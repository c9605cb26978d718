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
    weyl_mode_count,
)
from lslab.lab import main

from conftest import make_realization, spectrum_listing


def test_dirichlet_energy_formula():
    assert dirichlet_energy(1, 1.0) == PI_SQ
    assert dirichlet_energy(3, 2.0) == pytest.approx(9.0 * PI_SQ / 4.0, rel=1e-15)
    np.testing.assert_allclose(dirichlet_energy(np.array([1, 2]), 1.0),
                               [PI_SQ, 4 * PI_SQ], rtol=1e-15)


def test_single_interval_pi_gives_square_energies():
    r = make_realization([], math.pi)
    s = build_spectrum(r, 10.0)
    np.testing.assert_allclose(s.energies, [1.0, 4.0, 9.0], rtol=1e-13)
    assert list(spectrum_listing(r, 10.0)[2]) == [1, 2, 3]


def test_two_interval_spectrum_with_degeneracy():
    # lengths (1, 2): energies pi^2/4, pi^2 (twice), 9 pi^2/4, ...
    r = make_realization([-0.5], 3.0)
    s = build_spectrum(r, 23.0)
    np.testing.assert_allclose(
        s.energies, [PI_SQ / 4, PI_SQ, PI_SQ, 9 * PI_SQ / 4], rtol=1e-13)
    degenerate = np.isclose(s.energies, PI_SQ, rtol=1e-12)
    assert degenerate.sum() == 2
    # deterministic tie-break: lower interval index first
    assert list(spectrum_listing(r, 23.0)[1][degenerate]) == [0, 1]
    # a tighter cutoff must exclude 9 pi^2/4 (~22.2) entirely
    s12 = build_spectrum(r, 12.0)
    np.testing.assert_allclose(s12.energies, [PI_SQ / 4, PI_SQ, PI_SQ], rtol=1e-13)
    assert s12.energies.max() <= 12.0


def test_ground_energy_is_first_entry():
    r = sample_realization(1.0, 200.0, EnsembleSeed(11, 0))
    s = build_spectrum(r, default_cutoff(r, 1.0))
    assert s.energies[0] == s.energies.min()
    assert s.energies[0] == pytest.approx(ground_mode(r).energy, rel=1e-15)


def test_ground_state_energy_values():
    assert ground_mode(make_realization([], math.pi)).energy == pytest.approx(1.0, rel=1e-14)
    r = make_realization([], 10.0)
    assert ground_mode(r).energy == pytest.approx(PI_SQ / 100.0, rel=1e-15)
    assert ground_mode(r).energy == pytest.approx(0.0987, abs=2e-4)


def test_ground_mode_matches_spectrum_head():
    r = sample_realization(1.0, 300.0, EnsembleSeed(4, 2))
    cutoff = default_cutoff(r, 1.0)
    s = build_spectrum(r, cutoff)
    _, interval, harmonic = spectrum_listing(r, cutoff)
    gm = ground_mode(r)
    assert gm.energy == s.energies[0]
    assert (gm.interval_index, gm.mode_number) == (interval[0], harmonic[0])
    assert gm.interval_length == s.interval_lengths[gm.interval_index]


def test_median_ground_energy_scales_like_inverse_log_squared():
    # nu=1, rho=1, N=10^4: median of pi^2/l_max^2 within a factor 4 of
    # pi^2 nu^2 / ln^2 L.
    L = 1e4
    vals = [ground_mode(sample_realization(1.0, L, EnsembleSeed(6, i))).energy
            for i in range(100)]
    target = PI_SQ / math.log(L) ** 2
    ratio = np.median(vals) / target
    assert 0.25 < ratio < 4.0


def test_weyl_count_matches_built_spectrum():
    r = sample_realization(1.0, 500.0, EnsembleSeed(21, 5))
    cutoff = 40.0
    s = build_spectrum(r, cutoff)
    assert len(s) == weyl_mode_count(r.interval_lengths, cutoff)
    counts = np.bincount(spectrum_listing(r, cutoff)[1], minlength=r.n_intervals)
    per_interval = np.floor(r.interval_lengths * math.sqrt(cutoff) / math.pi)
    np.testing.assert_array_equal(counts, per_interval.astype(int))


def test_cutoff_completeness_no_mode_missing_or_extra():
    r = sample_realization(1.0, 300.0, EnsembleSeed(8, 8))
    cutoff = 25.0
    energies, interval, harmonic = spectrum_listing(r, cutoff)
    assert energies.max() <= cutoff
    # for every interval the next harmonic would exceed the cutoff
    n_top = np.zeros(r.n_intervals, dtype=np.int64)
    np.maximum.at(n_top, interval, harmonic)
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
    energies, listed_interval, listed_harmonic = spectrum_listing(r, 64 * PI_SQ)
    n_max = (8 * lengths).astype(np.int64)
    interval = np.repeat(np.arange(lengths.size), n_max)
    harmonic = np.concatenate([np.arange(1, n + 1) for n in n_max])
    built = dirichlet_energy(harmonic, lengths[interval])
    order = np.argsort(built, kind="stable")
    assert np.count_nonzero(np.diff(built[order]) == 0) > len(s) // 2
    np.testing.assert_array_equal(s.energies, built[order])
    np.testing.assert_array_equal(energies, built[order])
    np.testing.assert_array_equal(listed_interval, interval[order])
    np.testing.assert_array_equal(listed_harmonic, harmonic[order])


def test_listing_puts_many_ties_in_lexsort_order():
    # 2000 unit intervals between integer points: each of the 8 levels is
    # 2000-fold degenerate, so a sort that is not stable scrambles the labels
    r = make_realization(np.arange(-999.0, 1000.0), 2000.0)
    assert np.all(r.interval_lengths == 1.0)
    cutoff = 8.5 ** 2 * PI_SQ
    interval = np.repeat(np.arange(2000), 8)
    harmonic = np.tile(np.arange(1, 9), 2000)
    built = dirichlet_energy(harmonic, r.interval_lengths[interval])
    order = np.lexsort((np.arange(built.size), built))
    energies, listed_interval, listed_harmonic = spectrum_listing(r, cutoff)
    np.testing.assert_array_equal(listed_interval, interval[order])
    np.testing.assert_array_equal(listed_harmonic, harmonic[order])
    sorted_bytes = np.sort(built).tobytes()
    assert energies.tobytes() == sorted_bytes
    assert build_spectrum(r, cutoff).energies.tobytes() == sorted_bytes


@pytest.mark.parametrize("box_length, base_seed, index, beta, n_modes, digest", [
    (20000 / 0.6, 43, 0, 1.0, 51883,
     "fde3cef97634f8c7e9778b77618457287d5132fe2f47db837df7e7d8f2f3596d"),
    (1e4, 7, 2, 1.0, 15255, "284b2197f6acbe3d6604815a3cab968adb0e8b51f691e388a63f95dbefbc5d1b"),
    (300.0, 8, 1, 0.3, 899, "a4ceb7b6e0536d23f9dae7dd3f97656c90682a93d632224ce035668861c598b3"),
])
def test_built_spectrum_bytes_are_pinned(box_length, base_seed, index, beta, n_modes, digest):
    # energies, then the listing's interval indices and mode numbers, bit for
    # bit, in sorted order
    r = sample_realization(1.0, box_length, EnsembleSeed(base_seed, index))
    cutoff = default_cutoff(r, beta)
    s = build_spectrum(r, cutoff)
    energies, interval, harmonic = spectrum_listing(r, cutoff)
    assert len(s) == n_modes
    assert energies.tobytes() == s.energies.tobytes()
    got = hashlib.sha256(s.energies.tobytes() + interval.tobytes()
                         + harmonic.tobytes()).hexdigest()
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
        assert s.energies[0] < ec
        assert cutoff_is_converged(s, beta)


def test_default_cutoff_passes_its_own_rule():
    # 126 boxes of about 10 points, e0 from about 1e-2 to 1e300: from e0 near
    # 1e15 / beta up, e0 + the tail gap rounds the cutoff's margin away
    checked = 0
    for i, exponent in enumerate(np.linspace(-149.0, 2.5, 126)):
        box_length = 10.0 ** exponent
        r = sample_realization(10.0 / box_length, box_length, EnsembleSeed(5, i))
        for beta in (0.01, 1.0, 100.0):
            try:
                cutoff = default_cutoff(r, beta)
            except ValueError as err:  # only a refusal by name may skip a box
                assert "is too small" in str(err)
                continue
            assert cutoff_is_converged(build_spectrum(r, cutoff), beta), (box_length, beta)
            checked += 1
    assert checked == 378


def test_cutoff_rule_reads_the_gap_above_the_ground_energy():
    # e0 = 10^4 and 2 modes below 4 E_cut: 10 above e0 leaves a tail of about
    # 2 exp(-10) at beta = 1, however large E_cut is; 40 above leaves 2 exp(-40)
    r = make_realization([], math.pi / 100.0)
    e0 = ground_mode(r).energy
    assert e0 == pytest.approx(1e4, rel=1e-12)
    assert not cutoff_is_converged(build_spectrum(r, e0 + 10.0), 1.0)
    assert cutoff_is_converged(build_spectrum(r, e0 + 40.0), 1.0)


def test_tight_cutoff_is_flagged_unconverged():
    r = sample_realization(1.0, 1000.0, EnsembleSeed(14, 2))
    s = build_spectrum(r, ground_mode(r).energy * 1.5)
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
        Spectrum(np.array([2.0, 1.0]), np.array([1.0]), 10.0, 1.0)


@pytest.mark.parametrize("energies", [
    [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, math.nan, 0.5], [math.nan, 1.0],
    [1.0, math.inf, math.inf], [math.inf, 1.0], [-math.inf, 1.0], [1.0, 1.0, 0.5]])
def test_sorted_check_matches_the_difference_rule(energies):
    # the order check reads adjacent pairs; its verdict on signed zeros, NaN
    # and infinities is that of any(diff(energies) < 0), which warns on inf - inf
    e = np.array(energies)
    with np.errstate(invalid="ignore"):
        refused = bool(np.any(np.diff(e) < 0))
    try:
        Spectrum(e, np.array([1.0]), 10.0, 1.0)
    except ValueError:
        assert refused
    else:
        assert not refused


def test_mode_accessor_consistency():
    r = sample_realization(1.0, 100.0, EnsembleSeed(19, 0))
    s = build_spectrum(r, 30.0)
    energies, interval, harmonic = spectrum_listing(r, 30.0)
    for k in (0, len(s) // 2, len(s) - 1):
        length = s.interval_lengths[interval[k]]
        assert length == r.interval_lengths[interval[k]]
        assert s.energies[k] == energies[k] == pytest.approx(
            float(dirichlet_energy(harmonic[k], length)), rel=1e-15)


def test_spectrum_text_export(capsys):
    r = sample_realization(1.0, 30.0, EnsembleSeed(2, 0))
    s = build_spectrum(r, 23.0)
    assert main(["spectrum", "--box-length", "30", "--cutoff", "23", "--base-seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "energy,interval_index,mode_number"
    assert len(lines) == len(s) + 1
    parsed = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    assert parsed.tobytes() == s.energies.tobytes()
    # each row's labels give back its energy, bit for bit
    indices = np.array([ln.split(",")[1:] for ln in lines[1:]], dtype=np.int64)
    np.testing.assert_array_equal(
        dirichlet_energy(indices[:, 1], s.interval_lengths[indices[:, 0]]), parsed)
