"""Inequalities, scaling diagnostics, and trial-state energy pieces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lslab.bounds import (
    AppendixCountResult,
    PowerLogLaw,
    ScalingSpec,
    VoidTrialStateError,
    box_count_criterion,
    box_masses,
    check_appendix_count,
    check_lemma21,
    critical_density,
    format_value,
    pule_aonghusa_bound,
    scaling_diagnostics,
    theorem33_bound,
    transition_kinetic_constant,
    transition_switch,
    transition_switch_derivative,
    trial_state_energy,
)
from lslab.disorder import EnsembleSeed, sample_realization
from lslab.spectrum import EigenMode, dirichlet_energy, ground_mode

from conftest import make_realization


# ---------------------------------------------------------------------------
# longest-interval sandwich


def test_lemma21_bound_formulas():
    r = sample_realization(1.0, 1e5, EnsembleSeed(314159, 0))
    res = check_lemma21(r, epsilon=0.5, alpha=5.0)
    log_l = math.log(1e5)
    assert res.lower_bound == pytest.approx(log_l - 1.5 * math.log(log_l), rel=1e-15)
    assert res.upper_bound == pytest.approx(5.0 * log_l, rel=1e-15)
    assert res.lower_bound == pytest.approx(7.848, abs=2e-3)
    assert res.upper_bound == pytest.approx(57.56, abs=6e-3)
    assert res.l_max == r.interval_lengths.max()
    assert res.lower_ok and res.upper_ok


def test_lemma21_zero_point_box_breaks_upper():
    r = make_realization([], 1000.0)
    res = check_lemma21(r)
    assert res.l_max == 1000.0
    assert res.lower_ok
    assert not res.upper_ok


def test_lemma21_validation():
    r = make_realization([], 100.0)
    with pytest.raises(ValueError):
        check_lemma21(r, epsilon=0.0)
    with pytest.raises(ValueError):
        check_lemma21(r, epsilon=1.0)
    with pytest.raises(ValueError):
        check_lemma21(r, alpha=4.0)
    with pytest.raises(ValueError):
        check_lemma21(make_realization([], 2.0))  # box too short for ln ln


def test_lemma21_pass_fraction_grows_with_box():
    fractions = []
    for box in (1e3, 1e4, 1e5):
        flags = []
        for i in range(40):
            r = sample_realization(1.0, box, EnsembleSeed(314159, i))
            res = check_lemma21(r)
            flags.append(res.lower_ok and res.upper_ok)
        fractions.append(np.mean(flags))
    assert fractions[0] <= fractions[1] <= fractions[2]
    assert fractions[2] >= 0.95


# ---------------------------------------------------------------------------
# box masses and the occupation-density bound


def test_box_masses_symmetric_split():
    mode = EigenMode(0, 1, float(dirichlet_energy(1, 1.0)), 0.0, 1.0)
    masses = box_masses(mode, 0.5)
    assert [n for n, _ in masses] == [0, 1]
    np.testing.assert_allclose([m for _, m in masses], [0.5, 0.5], atol=1e-12)


def test_box_masses_match_quadrature():
    mode = EigenMode(0, 1, float(dirichlet_energy(1, 1.4)), 0.3, 1.4)
    masses = box_masses(mode, 0.5)
    assert [n for n, _ in masses] == [0, 1, 2, 3]
    assert abs(sum(m for _, m in masses) - 1.0) < 1e-12
    # |phi|^2 = (2/l) sin^2(n pi (x - left)/l) on the mode's interval
    density = lambda x: 2.0 / 1.4 * math.sin(math.pi * (x - 0.3) / 1.4) ** 2
    for n, m in masses:
        lo, hi = max(0.5 * n, 0.3), min(0.5 * (n + 1), 1.7)
        oracle, _ = integrate.quad(density, lo, hi)
        assert abs(m - oracle) < 1e-9


def test_box_masses_negative_coordinates():
    mode = EigenMode(3, 2, float(dirichlet_energy(2, 1.4)), -3.2, 1.4)
    masses = box_masses(mode, 0.5)
    assert masses[0][0] == math.floor(-3.2 / 0.5)
    assert abs(sum(m for _, m in masses) - 1.0) < 1e-12


def test_box_masses_validation():
    mode = EigenMode(0, 1, float(dirichlet_energy(1, 1.0)), 0.0, 1.0)
    with pytest.raises(ValueError):
        box_masses(mode, 0.0)


def test_box_masses_are_nonnegative_on_sliver_boxes():
    # an interval that ends a few ulps past a box edge leaves a sliver box
    # whose mass anti(l) - anti(l - sliver) can round to -1 ulp; masses are
    # probabilities, so box_masses clips them at 0
    masses = []
    for n in (1, 2, 3):
        for k in range(1, 40):
            length = float(k)
            for _ in range(3):
                length = math.nextafter(length, math.inf)
                mode = EigenMode(0, n, float(dirichlet_energy(n, length)), 0.0, length)
                masses += [m for _, m in box_masses(mode, 1.0)]
    assert min(masses) >= 0.0


def test_pule_aonghusa_extremes():
    assert pule_aonghusa_bound([(0, 1.0)], 250.0) == pytest.approx(1 / 250.0, rel=1e-15)
    masses = [(n, 0.25) for n in range(4)]
    assert pule_aonghusa_bound(masses, 80.0) == pytest.approx(4 / 80.0, rel=1e-12)


def test_pule_aonghusa_validation():
    with pytest.raises(ValueError):
        pule_aonghusa_bound([], 10.0)
    with pytest.raises(ValueError):
        pule_aonghusa_bound([(0, 0.4)], 10.0)  # does not sum to 1
    with pytest.raises(ValueError):
        pule_aonghusa_bound([(0, 1.5), (1, -0.5)], 10.0)
    with pytest.raises(ValueError):
        pule_aonghusa_bound([(0, 1.0)], 0.0)


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30))
def test_property_pule_aonghusa_between_extremes(raw):
    total = sum(raw)
    masses = [(n, v / total) for n, v in enumerate(raw)]
    L = 123.0
    val = pule_aonghusa_bound(masses, L)
    s = len(masses)
    assert val >= 1.0 / L - 1e-12
    assert val <= s / L + 1e-12


def test_pule_aonghusa_count_bound_on_ground_modes():
    # support over k boxes forces the bound below (ceil(l_max/a)+1)^2 / L
    L = 1e4
    for i in range(30):
        r = sample_realization(1.0, L, EnsembleSeed(99, i))
        gm = ground_mode(r)
        for a in (0.3, 1.0, 2.5):
            val = pule_aonghusa_bound(box_masses(gm, a), L)
            cap = (math.ceil(gm.interval_length / a) + 1) ** 2 / L
            assert val <= cap + 1e-12


@pytest.mark.parametrize("L", [1e3, 1e4, 1e5])
def test_hardcore_bound_sandwich_on_ground_modes(L):
    # (8/pi^2) l_max/a <= pa*L <= S for the ground mode on S support boxes.
    # Lower half: Cauchy-Schwarz in each box, int_box sqrt(f) <= sqrt(a m_n),
    # and int sqrt(f) = sqrt(8 l)/pi over the interval.  Upper half:
    # Cauchy-Schwarz over the boxes.  Both are close to equality (a << l_max,
    # a >> l_max), so a box_masses that misplaces mass breaks one of them.
    ratios = []
    for i in range(30):
        r = sample_realization(1.0, L, EnsembleSeed(2718, i))
        gm = ground_mode(r)
        for a in (0.05, 0.5, 2.0, 20.0):
            masses = box_masses(gm, a)
            support = sum(1 for _, m in masses if m > 0.0)
            pa_l = pule_aonghusa_bound(masses, L) * L
            lower = 8.0 / math.pi ** 2 * gm.interval_length / a
            assert lower <= pa_l <= support * (1.0 + 1e-12), (i, a)
            ratios.append(pa_l / lower)
    # the a = 0.05 cases sit within 1e-3 of the lower bound
    assert min(ratios) < 1.001


# ---------------------------------------------------------------------------
# deterministic envelopes


def test_theorem33_example_value():
    L = 1e12
    a = L ** -0.25
    val = theorem33_bound(5.0, 1.0, L, a)
    assert val == pytest.approx(25.0 * math.log(L) ** 2 / math.sqrt(L), rel=1e-12)
    assert val == pytest.approx(0.01909, abs=2e-5)


def test_theorem33_scaling_in_box_size():
    base = theorem33_bound(5.0, 1.0, 1e6, 0.2)
    assert theorem33_bound(5.0, 1.0, 1e6, 0.4) == pytest.approx(base / 4.0, rel=1e-14)


def test_theorem33_monotone_decreasing():
    grid_a = [0.1, 0.2, 0.5, 1.0, 3.0]
    vals = [theorem33_bound(5.0, 1.0, 1e5, a) for a in grid_a]
    assert np.all(np.diff(vals) < 0)
    grid_l = [10.0, 100.0, 1e4, 1e8]  # all above e^2
    vals = [theorem33_bound(5.0, 1.0, L, 0.5) for L in grid_l]
    assert np.all(np.diff(vals) < 0)


def test_theorem33_validation():
    with pytest.raises(ValueError):
        theorem33_bound(4.0, 1.0, 100.0, 0.5)
    with pytest.raises(ValueError):
        theorem33_bound(5.0, -1.0, 100.0, 0.5)
    with pytest.raises(ValueError):
        theorem33_bound(5.0, 1.0, 0.9, 0.5)


def test_critical_density_values():
    assert critical_density(0.5) == 1.0
    assert critical_density(0.25) == 2.0
    with pytest.raises(ValueError):
        critical_density(0.0)


def test_box_count_criterion_values():
    assert box_count_criterion(10, 1e4) == pytest.approx(0.01, rel=1e-15)
    for n in (4, 100, 10_000):
        assert box_count_criterion(int(math.isqrt(n)), n) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        box_count_criterion(0, 10)
    with pytest.raises(ValueError):
        box_count_criterion(3, 0)


def test_box_count_criterion_shrinks_along_schedule():
    # S = ceil(l_max/a)+1 with a = N^{-1/4}: S^2/N ~ ln^2 N / sqrt(N) falls.
    medians = []
    for n in (10**3, 10**4, 10**5):
        a = n ** -0.25
        vals = []
        for i in range(40):
            r = sample_realization(1.0, float(n), EnsembleSeed(505, i))
            s = math.ceil(r.l_max / a) + 1
            vals.append(box_count_criterion(s, n))
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


# ---------------------------------------------------------------------------
# scaling laws


def test_power_log_law_values_and_bounds():
    law = PowerLogLaw(2.0, -0.5, 1.0)
    n = 100.0
    assert law(n) == pytest.approx(2.0 * n ** -0.5 * math.log(n), rel=1e-15)
    assert law.bounded_above()
    assert PowerLogLaw(1.0, 0.0, 0.0).bounded_above()
    assert not PowerLogLaw(1.0, 0.1, 0.0).bounded_above()
    assert not PowerLogLaw(1.0, 0.0, 0.5).bounded_above()
    with pytest.raises(ValueError):
        PowerLogLaw(0.0, -1.0)


def test_scaling_spec_rejects_unbounded_sequences():
    ok = PowerLogLaw(1.0, -0.25)
    growing = PowerLogLaw(1.0, 0.3)
    with pytest.raises(ValueError):
        ScalingSpec(growing, ok, ok, ok)
    with pytest.raises(ValueError):
        ScalingSpec(ok, growing, ok, ok)
    ScalingSpec(ok, ok, growing, growing)  # floor and width may grow


def default_spec(delta=0.25, range_exp=0.0):
    return ScalingSpec(
        hardcore_radius=PowerLogLaw(1.0, -delta),
        interaction_range=PowerLogLaw(1.0, range_exp),
        interaction_floor=PowerLogLaw(1.0, 0.0),
        delta_width=PowerLogLaw(1.0, 0.0),
    )


def test_scaling_diagnostics_spot_values():
    diag = scaling_diagnostics(default_spec(), [10**3, 10**4, 10**6])
    hard = diag.columns["hardcore_vanishing"]
    # a = N^{-1/4}: ln^2 N / (a^2 N) = ln^2 N / sqrt(N)
    assert hard[1] == pytest.approx(math.log(1e4) ** 2 / 100.0, rel=1e-14)
    assert hard[1] == pytest.approx(0.8483, abs=1e-3)
    grow = diag.columns["range_growth"]
    assert grow[0] == pytest.approx(1e3 / math.log(1e3) ** 3, rel=1e-14)
    assert grow[0] == pytest.approx(3.034, abs=1e-3)


def test_scaling_diagnostics_trends():
    grid = np.logspace(3, 12, 10).astype(np.int64)
    assert scaling_diagnostics(default_spec(0.25), grid).trends["hardcore_vanishing"] \
        == "decreasing"
    assert scaling_diagnostics(default_spec(0.6), grid).trends["hardcore_vanishing"] \
        == "increasing"
    diag = scaling_diagnostics(default_spec(), grid)
    assert diag.trends["range_growth"] == "increasing"
    assert diag.trends["floor_range_growth"] == "increasing"
    assert diag.trends["delta_growth"] == "increasing"


def test_constant_radius_diagnostic_decreases_everywhere_past_8():
    grid = np.concatenate((np.arange(8, 64), [100, 1000, 10**6, 10**10]))
    diag = scaling_diagnostics(default_spec(delta=0.0), grid)
    assert np.all(np.diff(diag.columns["hardcore_vanishing"]) < 0)


def test_scaling_diagnostics_rows_and_validation():
    diag = scaling_diagnostics(default_spec(), [100, 1000])
    assert list(diag.n_grid) == [100, 1000]
    assert list(diag.columns) == ["hardcore_vanishing", "range_growth",
                                  "floor_range_growth", "delta_growth"]
    assert all(col.shape == (2,) for col in diag.columns.values())
    with pytest.raises(ValueError):
        scaling_diagnostics(default_spec(), [1, 10])
    with pytest.raises(ValueError):
        scaling_diagnostics(default_spec(), [100, 100])
    assert scaling_diagnostics(default_spec(), [50]).trends["range_growth"] == "flat"


# ---------------------------------------------------------------------------
# trial state


def test_transition_switch_shape():
    assert transition_switch(0.0) == 0.0
    assert transition_switch(-2.0) == 0.0
    assert transition_switch(1.0) == 1.0
    assert transition_switch(3.0) == 1.0
    assert transition_switch(0.5) == pytest.approx(0.5, rel=1e-15)
    t = np.linspace(0.0, 1.0, 101)
    vals = transition_switch(t)
    assert np.all(np.diff(vals) >= 0)
    np.testing.assert_allclose(vals + transition_switch(1.0 - t), 1.0, atol=1e-14)


def test_transition_switch_derivative_matches_finite_differences():
    t = np.linspace(0.05, 0.95, 181)
    h = 1e-6
    fd = (transition_switch(t + h) - transition_switch(t - h)) / (2 * h)
    np.testing.assert_allclose(transition_switch_derivative(t), fd, atol=5e-7)
    assert transition_switch_derivative(0.0) == 0.0
    assert transition_switch_derivative(1.0) == 0.0
    assert transition_switch_derivative(-0.5) == 0.0


def test_kinetic_constant_matches_quadrature():
    kappa = transition_kinetic_constant()
    assert kappa == float.fromhex("0x1.a365b36916d1cp+1")
    val, err = integrate.quad(lambda t: transition_switch_derivative(t) ** 2,
                              0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    assert err < 1e-8
    assert abs(kappa - 2.0 * val) <= math.ulp(kappa)


def test_trial_state_energy_example():
    r = make_realization([-2.0, 1.0], 10.0)  # lengths (3, 3, 4)
    res = trial_state_energy(r, particle_number=10, interaction_l1_norm=1.0)
    assert res.count_q == 3
    assert res.interaction_per_particle == 5.0
    assert res.kinetic_per_particle == transition_kinetic_constant()


def test_trial_state_zero_interaction():
    r = make_realization([], 6.0)
    res = trial_state_energy(r, 5, 0.0)
    assert res.interaction_per_particle == 0.0
    assert res.count_q == 1


def test_trial_state_threshold_is_inclusive():
    r = make_realization([], 3.0)  # exactly the minimum hosting length
    assert trial_state_energy(r, 2, 1.0).count_q == 1


def test_trial_state_void_and_validation():
    cramped = make_realization([0.0], 2.0)  # lengths (1, 1)
    with pytest.raises(VoidTrialStateError):
        trial_state_energy(cramped, 3, 1.0)
    r = make_realization([], 6.0)
    with pytest.raises(ValueError):
        trial_state_energy(r, 0, 1.0)
    with pytest.raises(ValueError):
        trial_state_energy(r, 3, -0.5)


# ---------------------------------------------------------------------------
# long-interval count floor


def test_appendix_threshold_value():
    r = sample_realization(1.0, 1e4, EnsembleSeed(271828, 0))
    res = check_appendix_count(r, density=1.0)
    exact = 1e4 / (4.0 * math.exp(3.0))
    assert res.threshold == pytest.approx(exact, rel=1e-14)
    assert res.threshold == pytest.approx(124.48, abs=0.02)
    assert res.passed == (res.count >= res.threshold)


def test_appendix_threshold_linear_in_n():
    a = check_appendix_count(sample_realization(1.0, 500.0, EnsembleSeed(1, 0)), 1.0)
    b = check_appendix_count(sample_realization(1.0, 1000.0, EnsembleSeed(1, 0)), 1.0)
    assert b.threshold == 2.0 * a.threshold


def test_appendix_zero_point_cases():
    small = check_appendix_count(make_realization([], 8.0), 1.0)
    assert small == AppendixCountResult(1, small.threshold, True)
    big = check_appendix_count(make_realization([], 100.0), 1.0)
    assert big.count == 1 and not big.passed
    with pytest.raises(ValueError):
        check_appendix_count(make_realization([], 8.0), 0.0)


# a NaN parameter is refused, as ExperimentConfig refuses it, rather than
# turned into a NaN bound or a failed comparison; "r" stands for a realization
# with three intervals of length >= 3
_NAN = math.nan


@pytest.mark.parametrize("function, args", [
    (check_lemma21, ("r", 0.5, _NAN)),
    (check_lemma21, ("r", _NAN, 5.0)),
    (theorem33_bound, (_NAN, 1.0, 100.0, 0.5)),
    (theorem33_bound, (5.0, _NAN, 100.0, 0.5)),
    (theorem33_bound, (5.0, 1.0, _NAN, 0.5)),
    (theorem33_bound, (5.0, 1.0, 100.0, _NAN)),
    (pule_aonghusa_bound, ([(0, 0.5), (1, 0.5)], _NAN)),
    (pule_aonghusa_bound, ([(0, _NAN), (1, 1.0)], 100.0)),
    (critical_density, (_NAN,)),
    (box_count_criterion, (_NAN, 100)),
    (box_count_criterion, (3, _NAN)),
    (check_appendix_count, ("r", _NAN)),
    (trial_state_energy, ("r", 100, _NAN)),
])
def test_bound_functions_refuse_nan(function, args):
    r = make_realization([-20.0, 5.0], 100.0)
    assert r.long_count == 3
    with pytest.raises(ValueError, match="must") as info:
        function(*(r if a == "r" else a for a in args))
    assert not isinstance(info.value, VoidTrialStateError)


# ---------------------------------------------------------------------------
# report plumbing


def test_format_value():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(np.bool_(True)) == "1"
    assert format_value(7) == "7"
    assert format_value(0.1) == "0.10000000000000001"

