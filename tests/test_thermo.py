"""Exact canonical-ensemble statistics against brute-force and closed forms."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lslab.thermo
from lslab.disorder import EnsembleSeed, sample_realization
from lslab.spectrum import MAX_MODES, build_spectrum, default_cutoff
from lslab.thermo import (
    THERMO_MAX_N,
    CutoffConvergenceWarning,
    boltzmann_sums,
    canonical_partition,
    condensate_profile,
    estimate_saturation_density,
    saturation_density,
)
from lslab.lab import main

from conftest import enumerate_bose, split_dump, toy_spectrum


BLOCK = lslab.thermo._BLOCK


def sampled_spectrum(box_length=2000.0, beta=1.0, seed=EnsembleSeed(10, 0)):
    r = sample_realization(1.0, box_length, seed)
    return build_spectrum(r, default_cutoff(r, beta))


def test_boltzmann_sums_two_level():
    s = toy_spectrum([0.0, 1.0])
    vals = boltzmann_sums(s, 1.0, 2)
    assert vals[0] == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)
    assert vals[1] == pytest.approx(1.0 + math.exp(-2.0), rel=1e-15)


def test_boltzmann_sums_cold_limit_counts_ground_multiplicity():
    s = toy_spectrum([0.0, 0.0, 0.0, 1.0, 2.0])
    vals = boltzmann_sums(s, 400.0, 3)
    np.testing.assert_allclose(vals, [3.0, 3.0, 3.0], rtol=0, atol=1e-15)


def test_boltzmann_sums_match_compensated_summation():
    spec = sampled_spectrum(box_length=15_000.0)
    assert len(spec) >= 10_000
    beta = 1.0
    shifted = spec.energies - spec.energies[0]
    oracle = math.fsum(math.exp(-beta * d) for d in shifted)
    s1 = boltzmann_sums(spec, beta, 1)[0]
    assert abs(s1 - oracle) <= 1e-12 * oracle


def test_boltzmann_sums_argument_validation():
    s = toy_spectrum([0.0, 1.0])
    with pytest.raises(ValueError):
        boltzmann_sums(s, -1.0, 2)
    with pytest.raises(ValueError):
        boltzmann_sums(s, 1.0, 0)


def test_partition_single_level_is_identically_one():
    s = toy_spectrum([0.0])
    log_z = canonical_partition(s, 3.7, 12)
    np.testing.assert_array_equal(log_z, np.zeros(13))


def test_partition_two_level_example():
    s = toy_spectrum([0.0, 1.0])
    log_z = canonical_partition(s, 1.0, 2)
    z2 = 1.0 + math.exp(-1.0) + math.exp(-2.0)
    assert math.exp(log_z[2]) == pytest.approx(z2, rel=1e-14)
    assert math.exp(log_z[2]) == pytest.approx(1.503214, abs=1e-6)


def test_partition_hot_limit_counts_multisets():
    # beta -> 0: every occupation multiset has weight 1, Z_N -> C(M+N-1, N).
    s = toy_spectrum([0.0, 1.0, 2.0])
    log_z = canonical_partition(s, 1e-9, 4)
    assert math.exp(log_z[4]) == pytest.approx(math.comb(3 + 4 - 1, 4), rel=1e-7)


def log_sum_exp_partitions(sums):
    """Reference oracle: ln Z_0..ln Z_N by log-sum-exp at every step.

    It adds the same terms as canonical_partition in log space, in another
    order and precision, so the two agree to a tolerance, not bit for bit.
    """
    n_max = len(sums)
    log_s = np.log(sums)
    log_z = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        terms = log_s[:n] + log_z[n - 1::-1]
        peak = terms.max()
        log_z[n] = peak + math.log(np.exp(terms - peak).sum()) - math.log(n)
    return log_z


def full_recursion_partitions(sums):
    """Reference oracle: ln Z_0..ln Z_N by the rescaled linear recursion on all S_k.

    This is the solve without the condensate split: every step is a sum of
    products over the whole spectrum's S_k, and the recursion runs to N.
    """
    n_max = len(sums)
    log_z = np.zeros(n_max + 1)
    buf = np.zeros(n_max + 1)
    buf[n_max] = 1.0
    shift = 0.0
    for n in range(1, n_max + 1):
        value = float(np.einsum("i,i->", sums[:n], buf[n_max - n + 1:])) / n
        buf[n_max - n] = value
        log_z[n] = shift + math.log(value)
        if value > 1e200:
            live = buf[n_max - n:]
            live /= value
            live[live < 1e-280] = 0.0
            shift = log_z[n]
    return log_z


def assert_matches_full_recursion(spec, beta, n):
    log_z = canonical_partition(spec, beta, n)
    oracle = full_recursion_partitions(boltzmann_sums(spec, beta, n))
    rel = np.abs(log_z - oracle) / np.maximum(1.0, np.abs(oracle))
    assert rel.max() <= 1e-12


def test_recursion_agrees_with_log_sum_exp_oracle():
    n = 5000
    r = sample_realization(1.0, n / 0.6, EnsembleSeed(21, 0))
    spec = build_spectrum(r, default_cutoff(r, 1.0))
    log_z = canonical_partition(spec, 1.0, n)
    oracle = log_sum_exp_partitions(boltzmann_sums(spec, 1.0, n))
    rel = np.abs(log_z - oracle) / np.maximum(1.0, np.abs(oracle))
    assert rel.max() <= 1e-12


def test_partition_degenerate_levels_closed_form_across_rescaling():
    # g levels at one energy: Z_n = C(n + g - 1, n).  ln Z_N ~ 1904 here, so
    # the linear recursion re-anchors its buffer several times on the way,
    # and some of those rescales leave rows of their block still pending.
    g, n_max = 1000, 2000
    log_z = canonical_partition(toy_spectrum([0.0] * g), 1.0, n_max)
    closed = np.array([math.lgamma(k + g) - math.lgamma(k + 1) - math.lgamma(g)
                       for k in range(n_max + 1)])
    assert closed[-1] > 1900.0
    rescales, shift = [], 0.0
    for n in range(1, n_max + 1):
        if closed[n] - shift > math.log(lslab.thermo._RESCALE_AT):
            rescales.append(n)
            shift = closed[n]
    assert any(n % BLOCK for n in rescales)
    np.testing.assert_allclose(log_z, closed, rtol=1e-12, atol=1e-12)


def test_near_degenerate_ground_pair_is_peeled_exactly_and_stops_early():
    # a level 1e-4 above the ground level: without peeling it, the excited
    # ratios tend to exp(-1e-4) and the recursion runs to N
    n, beta = 5000, 1.0
    sampled = sampled_spectrum(box_length=n / 0.6, seed=EnsembleSeed(23, 0))
    e = sampled.energies
    spec = toy_spectrum(np.insert(e, 1, e[0] + 1e-4), box_length=sampled.box_length)
    delta = spec.energies - spec.energies[0]
    g = lslab.thermo._peel_count(delta, beta, n)
    assert g >= 2
    stop = lslab.thermo._solve(spec, beta, n)[4]
    assert stop < 0.75 * n
    unpeeled = lslab.thermo._power_sums(delta, beta, n, (1,))[0]
    assert lslab.thermo._log_partitions(unpeeled, np.array([]), n)[1] == n
    assert_matches_full_recursion(spec, beta, n)


def test_split_stops_early_on_a_sampled_spectrum():
    n = 4000
    spec = sampled_spectrum(box_length=n / 0.6, seed=EnsembleSeed(23, 1))
    assert lslab.thermo._solve(spec, 1.0, n)[4] < 0.75 * n
    assert_matches_full_recursion(spec, 1.0, n)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
def test_block_seams_match_full_recursion(n):
    # the recursion runs to N here: a last block that is full or cut short
    spec = sampled_spectrum()
    assert lslab.thermo._solve(spec, 1.0, n)[4] == n
    assert_matches_full_recursion(spec, 1.0, n)


@pytest.mark.parametrize("row", [1, 0], ids=["first_row", "last_row"])
def test_stop_on_a_block_seam_matches_full_recursion(row):
    # m* = 1 mod BLOCK stops on a block's first row, m* = 0 mod BLOCK on its last
    n = 3000
    spec = sampled_spectrum(box_length=n / 0.6, seed=EnsembleSeed(26, 0))
    for beta in np.linspace(1.0, 1.5, 101):
        stop = lslab.thermo._solve(spec, beta, n)[4]
        if stop < n and stop % BLOCK == row:
            break
    else:
        pytest.fail(f"no beta stops on row {row} of a block")
    assert_matches_full_recursion(spec, beta, n)


def test_hot_spectrum_runs_every_block_to_n():
    # at beta = 0.3 the excited levels never saturate, so m* = N
    n, beta = 1203, 0.3
    spec = sampled_spectrum(box_length=n / 0.6, beta=beta, seed=EnsembleSeed(27, 0))
    assert lslab.thermo._solve(spec, beta, n)[4] == n
    assert_matches_full_recursion(spec, beta, n)


@pytest.mark.parametrize("box_length, base_seed, index, beta, n, stop, digest", [
    (4000 / 0.6, 23, 1, 1.0, 4000, 1519,
     "ea2bc1e278a75e2f578b652a4694bb0b346fa7849eb5531b2c67697176050e28"),
    (1203 / 0.6, 27, 0, 0.3, 1203, 1203,
     "a769481ef66af5ffac63e41a519295c9a4bf68e714f869f702282fff3c1519c9"),
], ids=["stops-early", "runs-to-n"])
def test_log_partition_bytes_are_pinned(box_length, base_seed, index, beta, n, stop, digest):
    # ln Z_0 .. ln Z_N bit for bit.  These are the bits of one numpy build,
    # libm and CPU feature set: np.exp and math.log pick a code path by CPU
    # feature (numpy's AVX-512 loops, libm's FMA variants), and the bits move
    # with it, so a host with a different dispatch may fail this pin alone
    spec = sampled_spectrum(box_length=box_length, beta=beta,
                            seed=EnsembleSeed(base_seed, index))
    assert lslab.thermo._solve(spec, beta, n)[4] == stop
    log_z = canonical_partition(spec, beta, n)
    assert hashlib.sha256(log_z.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("energies, n", [
    # 77 zero gaps make their occupations inf; 26 near-subnormal ones sum past the float max
    ([0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2.2250738585072014e-308] * 26, 1),
    # eight near-subnormal gaps: the peeled candidates' running sum passes the float max
    ([0.0] + [2.2250738585072014e-308] * 8 + [1.0], 3),
], ids=["sum", "cumsum"])
def test_peel_count_does_not_warn_on_huge_occupations(energies, n):
    spec = toy_spectrum(energies)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_z = canonical_partition(spec, 1.0, n)
    assert np.all(np.isfinite(log_z))
    assert_matches_full_recursion(spec, 1.0, n)


def test_results_compare_and_hash_by_identity():
    r = sample_realization(1.0, 300.0, EnsembleSeed(8, 1))
    twin = sample_realization(1.0, 300.0, EnsembleSeed(8, 1))
    spec, spec_twin = (build_spectrum(x, default_cutoff(x, 1.0)) for x in (r, twin))
    sol, sol_twin = (condensate_profile(x, 1.0, 100, 4) for x in (spec, spec_twin))
    for a, b in ((r, twin), (spec, spec_twin), (sol, sol_twin)):
        assert a == a and a != b
        assert len({hash(a), hash(b)}) == 2


def test_block_history_sums_cannot_overflow():
    # a history sum is at most N S_1^BLOCK times a held value below _RESCALE_AT
    exponent = (BLOCK * math.log10(MAX_MODES) + math.log10(THERMO_MAX_N)
                + math.log10(lslab.thermo._RESCALE_AT))
    assert exponent < math.log10(np.finfo(float).max)


@settings(max_examples=30, deadline=None)
@given(
    energies=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=12),
    multiplicity=st.integers(min_value=1, max_value=60),
    beta=st.floats(min_value=0.05, max_value=20.0),
    n=st.integers(min_value=1, max_value=1200),
)
@example(energies=[0.0, 1e-4, 0.5], multiplicity=1, beta=1.0, n=1200)
@example(energies=[0.0, 0.0, 3.0], multiplicity=1, beta=0.3, n=500)
@example(energies=[0.0, 1e-3, 1e-3, 2e-3, 4.0], multiplicity=1, beta=2.0, n=1000)
def test_property_split_equals_full_recursion_on_toy_spectra(energies, multiplicity,
                                                             beta, n):
    assert_matches_full_recursion(toy_spectrum(energies * multiplicity), beta, n)


@settings(max_examples=12, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=1000),
    box_length=st.floats(min_value=50.0, max_value=3000.0),
    beta=st.floats(min_value=0.3, max_value=3.0),
    n=st.integers(min_value=1, max_value=1800),
)
@example(index=0, box_length=3000.0, beta=0.3, n=1800)
def test_property_split_equals_full_recursion_on_sampled_spectra(index, box_length,
                                                                 beta, n):
    spec = sampled_spectrum(box_length=box_length, beta=beta, seed=EnsembleSeed(24, index))
    assert_matches_full_recursion(spec, beta, n)


def _assert_increments_log_concave(log_z, s1):
    # Z_n / Z_{n-1} lies in [1, S_1] and is non-increasing in n
    steps = np.diff(log_z)
    assert steps.min() >= -1e-12
    assert steps.max() <= math.log(s1) + 1e-12
    assert np.all(np.diff(steps) <= 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    energies=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=6),
    multiplicity=st.integers(min_value=1, max_value=400),
    beta=st.floats(min_value=0.05, max_value=5.0),
    n=st.integers(min_value=1, max_value=1500),
)
def test_property_increments_on_toy_spectra(energies, multiplicity, beta, n):
    s = toy_spectrum(energies * multiplicity)
    log_z = canonical_partition(s, beta, n)
    _assert_increments_log_concave(log_z, boltzmann_sums(s, beta, 1)[0])


@settings(max_examples=15, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=1000),
    box_length=st.floats(min_value=50.0, max_value=3000.0),
    beta=st.floats(min_value=0.2, max_value=3.0),
    n=st.integers(min_value=1, max_value=2000),
)
def test_property_increments_on_sampled_spectra(index, box_length, beta, n):
    spec = sampled_spectrum(box_length=box_length, beta=beta,
                            seed=EnsembleSeed(22, index))
    log_z = canonical_partition(spec, beta, n)
    _assert_increments_log_concave(log_z, boltzmann_sums(spec, beta, 1)[0])


def test_recursion_matches_enumeration_spot_checks():
    cases = [
        ([0.0, 0.7, 1.9], 0.8, 5),
        ([0.0, 0.1, 0.1, 3.0], 2.5, 6),
        ([0.0, 4.0], 0.3, 4),
    ]
    for energies, beta, n in cases:
        s = toy_spectrum(energies)
        z_oracle, occ_oracle = enumerate_bose(energies, beta, n)
        log_z = canonical_partition(s, beta, n)
        assert abs(math.exp(log_z[n]) - z_oracle) < 1e-10
        occ = condensate_profile(s, beta, n, len(s)).occupations
        np.testing.assert_allclose(occ, occ_oracle, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    energies=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4),
    beta=st.floats(min_value=0.1, max_value=5.0),
    n=st.integers(min_value=1, max_value=6),
)
def test_property_recursion_equals_enumeration(energies, beta, n):
    s = toy_spectrum(energies)
    z_oracle, occ_oracle = enumerate_bose(np.sort(energies), beta, n)
    log_z = canonical_partition(s, beta, n)
    assert abs(math.exp(log_z[n]) - z_oracle) < 1e-10
    np.testing.assert_allclose(condensate_profile(s, beta, n, len(s)).occupations,
                               occ_oracle, rtol=0, atol=1e-10)


def test_occupation_two_level_example():
    s = toy_spectrum([0.0, 1.0])
    n0 = condensate_profile(s, 1.0, 2, 1).occupations[0]
    closed = (2.0 + math.exp(-1.0)) / (1.0 + math.exp(-1.0) + math.exp(-2.0))
    assert n0 == pytest.approx(closed, rel=1e-14)
    assert n0 == pytest.approx(1.57522, abs=1e-5)
    n1 = condensate_profile(s, 1.0, 2, 2).occupations[1]
    assert n0 + n1 == pytest.approx(2.0, rel=1e-12)


def test_conservation_on_sampled_spectrum():
    spec = sampled_spectrum()
    n = 200
    occ = condensate_profile(spec, 1.0, n, len(spec)).occupations
    assert np.all(occ >= 0.0)
    assert abs(occ.sum() - n) <= 1e-8 * n


def test_occupations_monotone_in_energy():
    s = toy_spectrum([0.0, 0.5, 1.25, 3.0])
    occ = condensate_profile(s, 1.3, 5, len(s)).occupations
    assert np.all(np.diff(occ) < 0.0)


def test_degenerate_levels_share_occupation():
    s = toy_spectrum([0.0, 1.0, 1.0, 2.0])
    occ = condensate_profile(s, 0.9, 4, len(s)).occupations
    assert occ[1] == occ[2]


def test_gauge_invariance_under_energy_shift():
    base = [0.0, 0.4, 1.1, 2.7]
    shifted = [e + 7.3 for e in base]
    occ_a = condensate_profile(toy_spectrum(base), 1.7, 6, len(base)).occupations
    occ_b = condensate_profile(toy_spectrum(shifted), 1.7, 6, len(shifted)).occupations
    np.testing.assert_allclose(occ_a, occ_b, rtol=0, atol=1e-10)
    lz_a = canonical_partition(toy_spectrum(base), 1.7, 6)
    lz_b = canonical_partition(toy_spectrum(shifted), 1.7, 6)
    np.testing.assert_allclose(lz_a, lz_b, rtol=0, atol=1e-10)


def test_cold_gas_sits_in_the_ground_mode():
    # beta * gap = 50 pushes every excited weight below 1e-21.
    s = toy_spectrum([0.0, 1.0, 1.5])
    for n in (1, 10, 100):
        n0 = condensate_profile(s, 50.0, n, 1).occupations[0]
        assert n0 >= n - 1e-10


def test_occupation_argument_validation():
    s = toy_spectrum([0.0, 1.0])
    with pytest.raises(ValueError):
        canonical_partition(s, 1.0, 0)
    with pytest.raises(ValueError, match=str(THERMO_MAX_N)):
        canonical_partition(s, 1.0, THERMO_MAX_N + 1)


def test_profile_matches_single_mode_occupation():
    spec = sampled_spectrum(box_length=1000.0, seed=EnsembleSeed(12, 3))
    sol = condensate_profile(spec, 1.0, 1000, top_k=8)
    assert sol.condensate_density > 0.0
    n0 = condensate_profile(spec, 1.0, 1000, 1).occupations[0]
    assert sol.condensate_density == n0 / spec.box_length
    assert sol.condensate_fraction == pytest.approx(n0 / 1000.0, rel=1e-15)
    assert sol.occupations.shape == (8,)


def _occupation_single(delta_j, beta, log_z):
    """<n_j> as its own sum over k, the one-mode form condensate_profile replaced."""
    n = len(log_z) - 1
    k = np.arange(1, n + 1, dtype=float)
    exponents = -(k * beta) * delta_j + (log_z[n - 1::-1] - log_z[n])
    return float(np.exp(exponents).sum())


def _assert_occupations_equal_the_one_mode_form(spec, beta, n, top_k):
    sol = condensate_profile(spec, beta, n, top_k)
    delta = spec.energies - spec.energies[0]
    ref = [_occupation_single(float(delta[j]), beta, sol.log_partitions)
           for j in range(top_k)]
    assert [float(v).hex() for v in sol.occupations] == [v.hex() for v in ref]


@pytest.mark.parametrize("n", [2000, 20_000])
def test_profile_occupations_equal_the_one_mode_form_bit_for_bit(n):
    spec = sampled_spectrum(box_length=n / 0.6, seed=EnsembleSeed(25, 1))
    _assert_occupations_equal_the_one_mode_form(spec, 1.0, n, 8)


@pytest.mark.parametrize("energies, beta, n", [
    ([0.0], 1.0, 3),
    ([0.0, 1.0], 1.0, 2),
    ([0.0, 0.1, 0.1, 3.0], 2.5, 6),
    ([0.0, 0.5, 1.25, 3.0], 1.3, 50),
    ([0.0, 1e-3, 0.2, 40.0, 95.0], 0.9, 400),
])
def test_profile_all_modes_equal_the_one_mode_form_bit_for_bit(energies, beta, n):
    s = toy_spectrum(energies)
    _assert_occupations_equal_the_one_mode_form(s, beta, n, len(s))


def test_profile_total_is_conserved():
    spec = sampled_spectrum(box_length=500.0, seed=EnsembleSeed(12, 4))
    n = 300
    sol = condensate_profile(spec, 1.0, n, top_k=5)
    assert sol.occupations.sum() + sol.tail_occupation == pytest.approx(n, rel=1e-8)
    assert sol.log_partition == canonical_partition(spec, 1.0, n)[-1]


def test_profile_refuses_a_nan_occupation_total(monkeypatch):
    # a NaN total must fail the drift check, not slip past a `>` comparison
    monkeypatch.setattr(lslab.thermo, "_log_partitions",
                        lambda sums, peeled, n_max: (np.full(n_max + 1, np.nan), n_max))
    with pytest.raises(RuntimeError, match="drifted to nan"):
        condensate_profile(toy_spectrum([0.0, 0.5, 1.0]), 1.0, 3, top_k=2)


@pytest.mark.parametrize("n", [2000, 20_000])
def test_profile_catches_a_defect_in_the_excited_sums(monkeypatch, n):
    # the recursion reads S^ex and the occupation total reads the full S_k,
    # so a 1e-6 error in S^ex_1 moves the total by about 1e-7 N
    solve = lslab.thermo._log_partitions

    def planted(excited_sums, peeled, n_max):
        return solve(excited_sums * np.r_[1.0 + 1e-6, np.ones(n_max - 1)], peeled, n_max)

    spec = sampled_spectrum(box_length=n / 0.6, seed=EnsembleSeed(25, 0))
    condensate_profile(spec, 1.0, n, top_k=2)
    monkeypatch.setattr(lslab.thermo, "_log_partitions", planted)
    with pytest.raises(RuntimeError, match="drifted"):
        condensate_profile(spec, 1.0, n, top_k=2)


def test_profile_one_particle_is_gibbs_weight():
    s = toy_spectrum([0.0, 0.3, 0.9])
    beta = 1.4
    sol = condensate_profile(s, beta, 1, top_k=3)
    weights = np.exp(-beta * np.array([0.0, 0.3, 0.9]))
    assert sol.condensate_fraction == pytest.approx(weights[0] / weights.sum(), rel=1e-12)


def test_profile_cold_limit_condenses_fully():
    spec = sampled_spectrum(box_length=200.0, seed=EnsembleSeed(12, 5))
    sol = condensate_profile(spec, 300.0, 40, top_k=3)
    assert sol.condensate_fraction > 0.999999


def test_profile_top_k_validation():
    s = toy_spectrum([0.0, 1.0])
    with pytest.raises(ValueError):
        condensate_profile(s, 1.0, 2, top_k=3)
    with pytest.raises(ValueError):
        condensate_profile(s, 1.0, 2, top_k=0)


def test_unconverged_cutoff_warns_and_flags():
    r = sample_realization(1.0, 400.0, EnsembleSeed(15, 0))
    tight = build_spectrum(r, 1.0)
    with pytest.warns(CutoffConvergenceWarning):
        sol = condensate_profile(tight, 1.0, 20, top_k=2)
    assert not sol.cutoff_converged
    good = build_spectrum(r, default_cutoff(r, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = condensate_profile(good, 1.0, 20, top_k=2)
    assert sol.cutoff_converged


@pytest.mark.parametrize("call", [
    lambda s: canonical_partition(s, 1.0, 20),
    lambda s: condensate_profile(s, 1.0, 20, top_k=1).occupations[0],
    lambda s: condensate_profile(s, 1.0, 20, top_k=len(s)).occupations,
    lambda s: condensate_profile(s, 1.0, 20, top_k=2),
])
def test_cutoff_warning_points_at_the_caller(call):
    tight = build_spectrum(sample_realization(1.0, 400.0, EnsembleSeed(15, 0)), 1.0)
    with pytest.warns(CutoffConvergenceWarning) as caught:
        call(tight)
    assert [w.filename for w in caught] == [__file__]


def test_cutoff_insensitivity_beyond_default():
    r = sample_realization(1.0, 600.0, EnsembleSeed(15, 1))
    ec = default_cutoff(r, 1.0)
    occ_a = condensate_profile(build_spectrum(r, ec), 1.0, 50, 1).occupations[0]
    occ_b = condensate_profile(build_spectrum(r, 1.6 * ec), 1.0, 50, 1).occupations[0]
    assert abs(occ_a - occ_b) < 1e-9


def test_saturation_density_closed_form_and_estimator():
    s = toy_spectrum([0.0, 2.0], box_length=4.0)
    expected = 1.0 / math.expm1(1.5 * 2.0) / 4.0
    assert saturation_density(s, 1.5) == pytest.approx(expected, rel=1e-14)
    assert saturation_density(toy_spectrum([0.7]), 1.0) == 0.0
    a = estimate_saturation_density(1.0, 1.0, 500.0, realizations=4, base_seed=3)
    b = estimate_saturation_density(1.0, 1.0, 500.0, realizations=4, base_seed=3)
    assert a == b and a > 0.0


def test_thermo_text_export_round_trip(capsys):
    spec = sampled_spectrum(box_length=200.0, seed=EnsembleSeed(17, 0))
    sol = condensate_profile(spec, 1.0, 25, top_k=4)
    assert main(["occupancy", "--particles", "25", "--density", "0.125", "--beta", "1",
                 "--base-seed", "17", "--top-k", "4"]) == 0
    fields, _ = split_dump(capsys.readouterr().out)
    assert float(fields["beta"]) == 1.0
    assert int(fields["particle_number"]) == 25
    assert float(fields["condensate_density"]) == sol.condensate_density
    assert float(fields["log_partition"]) == sol.log_partition
    occ = [float(v) for v in fields["occupations"].split(",")]
    np.testing.assert_array_equal(occ, sol.occupations)
