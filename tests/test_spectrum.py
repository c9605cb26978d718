"""Dirichlet spectra: construction, ground mode, cutoff policy."""

import hashlib
import math

import numpy as np
import pytest

import lslab.spectrum
from lslab.disorder import EnsembleSeed, sample_realization
from lslab.spectrum import (
    PI_SQ,
    EmptySpectrumError,
    Spectrum,
    build_spectrum,
    cutoff_is_converged,
    default_cutoff,
    dirichlet_energy,
    ground_mode,
    ground_state_energy,
    spectrum_to_text,
    weyl_mode_count,
)

from conftest import make_realization


def test_dirichlet_energy_formula():
    assert dirichlet_energy(1, 1.0) == PI_SQ
    assert dirichlet_energy(3, 2.0) == pytest.approx(9.0 * PI_SQ / 4.0, rel=1e-15)
    np.testing.assert_allclose(dirichlet_energy(np.array([1, 2]), 1.0),
                               [PI_SQ, 4 * PI_SQ], rtol=1e-15)


def test_single_interval_pi_gives_square_energies():
    r = make_realization([], math.pi)
    s = build_spectrum(r, 10.0)
    np.testing.assert_allclose(s.energies, [1.0, 4.0, 9.0], rtol=1e-13)
    assert list(s.mode_numbers) == [1, 2, 3]


def test_two_interval_spectrum_with_degeneracy():
    # lengths (1, 2): energies pi^2/4, pi^2 (twice), 9 pi^2/4, ...
    r = make_realization([-0.5], 3.0)
    s = build_spectrum(r, 23.0)
    np.testing.assert_allclose(
        s.energies, [PI_SQ / 4, PI_SQ, PI_SQ, 9 * PI_SQ / 4], rtol=1e-13)
    degenerate = np.isclose(s.energies, PI_SQ, rtol=1e-12)
    assert degenerate.sum() == 2
    # deterministic tie-break: lower interval index first
    assert list(s.interval_indices[degenerate]) == [0, 1]
    # a tighter cutoff must exclude 9 pi^2/4 (~22.2) entirely
    s12 = build_spectrum(r, 12.0)
    np.testing.assert_allclose(s12.energies, [PI_SQ / 4, PI_SQ, PI_SQ], rtol=1e-13)
    assert s12.energies.max() <= 12.0


def test_ground_energy_is_first_entry():
    r = sample_realization(1.0, 200.0, EnsembleSeed(11, 0))
    s = build_spectrum(r, default_cutoff(r, 1.0))
    assert s.ground_energy == s.energies[0]
    assert s.ground_energy == pytest.approx(ground_state_energy(r), rel=1e-15)


def test_ground_state_energy_values():
    assert ground_state_energy(make_realization([], math.pi)) == pytest.approx(1.0, rel=1e-14)
    r = make_realization([], 10.0)
    assert ground_state_energy(r) == pytest.approx(PI_SQ / 100.0, rel=1e-15)
    assert ground_state_energy(r) == pytest.approx(0.0987, abs=2e-4)


def test_ground_mode_matches_spectrum_head():
    r = sample_realization(1.0, 300.0, EnsembleSeed(4, 2))
    s = build_spectrum(r, default_cutoff(r, 1.0))
    gm = ground_mode(r)
    assert gm.energy == s.energies[0]
    assert (gm.interval_index, gm.mode_number) == (s.interval_indices[0], s.mode_numbers[0])
    assert gm.interval_length == s.interval_lengths[gm.interval_index]


def test_median_ground_energy_scales_like_inverse_log_squared():
    # nu=1, rho=1, N=10^4: median of pi^2/l_max^2 within a factor 4 of
    # pi^2 nu^2 / ln^2 L.
    L = 1e4
    vals = [ground_state_energy(sample_realization(1.0, L, EnsembleSeed(6, i)))
            for i in range(100)]
    target = PI_SQ / math.log(L) ** 2
    ratio = np.median(vals) / target
    assert 0.25 < ratio < 4.0


def test_weyl_count_matches_built_spectrum():
    r = sample_realization(1.0, 500.0, EnsembleSeed(21, 5))
    cutoff = 40.0
    s = build_spectrum(r, cutoff)
    assert len(s) == weyl_mode_count(r.interval_lengths, cutoff)
    counts = np.bincount(s.interval_indices, minlength=r.n_intervals)
    per_interval = np.floor(r.interval_lengths * math.sqrt(cutoff) / math.pi)
    np.testing.assert_array_equal(counts, per_interval.astype(int))


def test_cutoff_completeness_no_mode_missing_or_extra():
    r = sample_realization(1.0, 300.0, EnsembleSeed(8, 8))
    cutoff = 25.0
    s = build_spectrum(r, cutoff)
    assert s.energies.max() <= cutoff
    # for every interval the next harmonic would exceed the cutoff
    n_top = np.zeros(r.n_intervals, dtype=np.int64)
    np.maximum.at(n_top, s.interval_indices, s.mode_numbers)
    next_energy = dirichlet_energy(n_top + 1, r.interval_lengths)
    assert np.all(next_energy > cutoff)


def test_exact_energy_ties_keep_construction_order():
    # lengths a, 2a and 4a: harmonic n of a ties with 2n of 2a and 4n of 4a
    # exactly, so most energies are tied; ties must stay in (interval,
    # harmonic) order, as a stable sort of the built table leaves them
    lengths = np.random.default_rng(5).permutation(np.repeat([1.0, 2.0, 4.0], 30))
    r = make_realization(np.cumsum(lengths)[:-1] - lengths.sum() / 2, lengths.sum())
    np.testing.assert_array_equal(r.interval_lengths, lengths)
    s = build_spectrum(r, 64 * PI_SQ)
    n_max = (8 * lengths).astype(np.int64)
    interval = np.repeat(np.arange(lengths.size), n_max)
    harmonic = np.concatenate([np.arange(1, n + 1) for n in n_max])
    built = dirichlet_energy(harmonic, lengths[interval])
    order = np.argsort(built, kind="stable")
    assert np.count_nonzero(np.diff(built[order]) == 0) > len(s) // 2
    np.testing.assert_array_equal(s.energies, built[order])
    np.testing.assert_array_equal(s.interval_indices, interval[order])
    np.testing.assert_array_equal(s.mode_numbers, harmonic[order])


@pytest.mark.parametrize("box_length, base_seed, index, beta, n_modes, digest", [
    (20000 / 0.6, 43, 0, 1.0, 51883,
     "fde3cef97634f8c7e9778b77618457287d5132fe2f47db837df7e7d8f2f3596d"),
    (1e4, 7, 2, 1.0, 15255, "284b2197f6acbe3d6604815a3cab968adb0e8b51f691e388a63f95dbefbc5d1b"),
    (300.0, 8, 1, 0.3, 899, "a4ceb7b6e0536d23f9dae7dd3f97656c90682a93d632224ce035668861c598b3"),
])
def test_built_spectrum_bytes_are_pinned(box_length, base_seed, index, beta, n_modes, digest):
    # energies, interval indices and mode numbers, bit for bit, in sorted order
    r = sample_realization(1.0, box_length, EnsembleSeed(base_seed, index))
    s = build_spectrum(r, default_cutoff(r, beta))
    assert len(s) == n_modes
    got = hashlib.sha256(s.energies.tobytes() + s.interval_indices.tobytes()
                         + s.mode_numbers.tobytes()).hexdigest()
    assert got == digest


def test_mode_count_above_ceiling_is_refused(monkeypatch):
    r = sample_realization(1.0, 300.0, EnsembleSeed(8, 8))
    total = len(build_spectrum(r, 25.0))
    monkeypatch.setattr(lslab.spectrum, "MAX_MODES", total)
    assert len(build_spectrum(r, 25.0)) == total
    # about 10^20 modes: past the int64 range, refused rather than wrapped
    with pytest.raises(ValueError, match="ceiling"):
        build_spectrum(make_realization([], 10.0), 1e40)
    monkeypatch.setattr(lslab.spectrum, "MAX_MODES", total - 1)
    with pytest.raises(ValueError, match="ceiling"):
        build_spectrum(r, 25.0)


def test_default_cutoff_is_converged():
    r = sample_realization(1.0, 1000.0, EnsembleSeed(14, 1))
    for beta in (0.25, 1.0, 4.0):
        ec = default_cutoff(r, beta)
        s = build_spectrum(r, ec)
        assert s.ground_energy < ec
        assert cutoff_is_converged(s, beta)


def test_tight_cutoff_is_flagged_unconverged():
    r = sample_realization(1.0, 1000.0, EnsembleSeed(14, 2))
    s = build_spectrum(r, ground_state_energy(r) * 1.5)
    assert not cutoff_is_converged(s, 1.0)


def test_empty_spectrum_error_and_validation():
    r = make_realization([], 1.0)  # ground energy pi^2
    with pytest.raises(EmptySpectrumError):
        build_spectrum(r, PI_SQ / 2.0)
    with pytest.raises(ValueError):
        build_spectrum(r, -3.0)
    with pytest.raises(ValueError):
        build_spectrum(r, math.inf)
    with pytest.raises(ValueError):
        default_cutoff(r, 0.0)


def test_spectrum_requires_sorted_energies():
    with pytest.raises(ValueError):
        Spectrum(np.array([2.0, 1.0]), np.zeros(2, dtype=np.int64),
                 np.array([1, 2], dtype=np.int64), np.array([1.0]), 10.0, 1.0)


@pytest.mark.parametrize("energies", [
    [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, math.nan, 0.5], [math.nan, 1.0],
    [1.0, math.inf, math.inf], [math.inf, 1.0], [-math.inf, 1.0], [1.0, 1.0, 0.5]])
def test_sorted_check_matches_the_difference_rule(energies):
    # the order check reads adjacent pairs; its verdict on signed zeros, NaN
    # and infinities is that of any(diff(energies) < 0), which warns on inf - inf
    e = np.array(energies)
    with np.errstate(invalid="ignore"):
        refused = bool(np.any(np.diff(e) < 0))
    m = e.size
    try:
        Spectrum(e, np.zeros(m, dtype=np.int64), np.arange(1, m + 1, dtype=np.int64),
                 np.array([1.0]), 10.0, 1.0)
    except ValueError:
        assert refused
    else:
        assert not refused


def test_mode_accessor_consistency():
    r = sample_realization(1.0, 100.0, EnsembleSeed(19, 0))
    s = build_spectrum(r, 30.0)
    for k in (0, len(s) // 2, len(s) - 1):
        length = s.interval_lengths[s.interval_indices[k]]
        assert length == r.interval_lengths[s.interval_indices[k]]
        assert s.energies[k] == pytest.approx(
            float(dirichlet_energy(s.mode_numbers[k], length)), rel=1e-15)


def test_spectrum_text_export():
    r = make_realization([-0.5], 3.0)
    s = build_spectrum(r, 23.0)
    text = spectrum_to_text(s)
    lines = text.strip().split("\n")
    assert lines[0] == "energy,interval_index,mode_number"
    assert len(lines) == len(s) + 1
    first = lines[1].split(",")
    assert float(first[0]) == s.energies[0]
    assert (int(first[1]), int(first[2])) == (s.interval_indices[0], s.mode_numbers[0])
    parsed = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    np.testing.assert_array_equal(parsed, s.energies)
