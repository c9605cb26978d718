"""Poisson cut-point sampling, interval decomposition, and serialization."""

import hashlib
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lslab.disorder
from lslab.disorder import (
    DisorderRealization,
    EnsembleSeed,
    sample_realization,
)
from lslab.lab import main
from lslab.spectrum import build_spectrum, default_cutoff, ground_mode

from conftest import make_realization, split_dump

_BLOCK = lslab.disorder._BLOCK


def _assert_statistics_match(r, ref):
    """The realization's stored statistics and ground mode equal those of the whole array ref."""
    assert ref.tobytes() == r.interval_lengths.tobytes()
    longest = int(np.argmax(ref))
    assert (r.l_max, r.l_max_index) == (float(ref[longest]), longest)
    assert r.long_count == np.count_nonzero(ref >= 3.0)
    mode = ground_mode(r)
    left_edges = np.concatenate(([-r.box_length / 2.0], r.points))
    assert (mode.interval_index, mode.interval_length) == (longest, ref[longest])
    assert mode.interval_left == left_edges[longest]


def test_stream_seed_is_pure_function_of_labels():
    a = EnsembleSeed(base_seed=5, realization_index=7)
    b = EnsembleSeed(base_seed=5, realization_index=7)
    assert a.stream_seed() == b.stream_seed()
    assert a.generator().random() == b.generator().random()


def test_stream_seeds_differ_across_indices_and_bases():
    seeds = {EnsembleSeed(b, i).stream_seed() for b in range(4) for i in range(64)}
    assert len(seeds) == 4 * 64


def test_seed_validation():
    with pytest.raises(ValueError):
        EnsembleSeed(-1, 0)
    with pytest.raises(ValueError):
        EnsembleSeed(2**64, 0)
    with pytest.raises(ValueError):
        EnsembleSeed(0, -3)


def test_zero_point_realization_is_single_full_interval():
    # nu*L = 0.01, so seed 0 draws no points and the box itself survives.
    r = sample_realization(0.01, 1.0, EnsembleSeed(0, 0))
    assert r.n_points == 0
    assert r.n_intervals == 1
    np.testing.assert_array_equal(r.interval_lengths, [1.0])
    assert ground_mode(r).interval_left == -0.5


@pytest.mark.parametrize("index", [0, 1, 17])
def test_intervals_tile_the_box(index):
    r = sample_realization(1.0, 100.0, EnsembleSeed(42, index))
    assert abs(r.interval_lengths.sum() - 100.0) <= 1e-9 * 100.0
    assert np.all(np.diff(r.points) > 0)
    assert np.all(np.abs(r.points) < 50.0)
    assert np.all(r.interval_lengths > 0)
    assert r.n_intervals == r.n_points + 1
    # the interior pieces are exactly the gaps between consecutive points
    np.testing.assert_array_equal(r.interval_lengths[1:-1], np.diff(r.points))


def test_sampling_is_deterministic_bitwise():
    a = sample_realization(1.0, 500.0, EnsembleSeed(9, 3))
    b = sample_realization(1.0, 500.0, EnsembleSeed(9, 3))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.interval_lengths, b.interval_lengths)


@pytest.mark.parametrize("box_length, base_seed, index, n_points, digest", [
    (1e6, 2, 0, 999404, "241f232ea682c3c8c5786da5f274e98231c53491f34266e8335b34432a653805"),
    (1e5, 314159, 3, 100332, "d459bb05c9cc2b1ac58e26fc3c0244a2de96560377f5528b11c71f86249f28e2"),
    (300.0, 8, 1, 327, "8f5919f7159554b082eb9197293cfe979dc1d453d9c188cf3b5a884db3d79061"),
])
def test_sampled_bytes_are_pinned(box_length, base_seed, index, n_points, digest):
    # the sampler's points and interval lengths, bit for bit, for fixed labels
    r = sample_realization(1.0, box_length, EnsembleSeed(base_seed, index))
    assert r.n_points == n_points
    got = hashlib.sha256(r.points.tobytes() + r.interval_lengths.tobytes()).hexdigest()
    assert got == digest


def test_repeated_and_edge_draws_are_merged(monkeypatch):
    draws, sizes = [], []

    class Stub:
        def poisson(self, lam):
            assert lam == 10.0
            sizes.clear()
            return len(draws)

        def random(self, out):
            # the sampler draws in blocks of u in place and makes -5 + 10 u of
            # them; hand the u of the draws out in order (u = 1 is the +5 edge)
            start = sum(sizes)
            sizes.append(out.size)
            out[:] = (np.asarray(draws[start:start + out.size]) + 5.0) / 10.0

    monkeypatch.setattr(EnsembleSeed, "generator", lambda self: Stub())
    # a repeated draw and draws exactly on both box edges (half = 5); every
    # draw is -5 + 10 u for a dyadic u, so u and the draw are exact
    draws[:] = [0.0, -5.0, 1.875, 0.0, -2.5, 5.0, 1.875, 3.75]
    r = sample_realization(1.0, 10.0, EnsembleSeed(0, 0))
    assert sum(sizes) == len(draws)
    np.testing.assert_array_equal(r.points, [-2.5, 0.0, 1.875, 3.75])
    # the refused first attempt saw the unmerged draws; the statistics are the merged ones
    _assert_statistics_match(r, np.array([2.5, 2.5, 1.875, 1.875, 1.25]))
    assert r.interval_lengths.sum() == 10.0

    # once the edge draws are cut off, draw _BLOCK repeats draw _BLOCK - 1,
    # so the repeat straddles the merge's first block seam; the last draw
    # comes three times
    first = -5.0 + 10.0 * (15.0 * np.arange(_BLOCK + 2) + 8.0) / 2**20
    draws[:] = [5.0, *first[::-1], first[_BLOCK - 1], -5.0, first[-1], -5.0, first[-1]]
    r = sample_realization(1.0, 10.0, EnsembleSeed(0, 0))
    assert sum(sizes) == len(draws)
    assert r.points.tobytes() == first.tobytes()
    _assert_statistics_match(r, np.diff(np.concatenate(([-5.0], first, [5.0]))))
    assert abs(r.interval_lengths.sum() - 10.0) <= 1e-12


def _generator_after_the_count():
    """The generator of labels (3, 1) after its Poisson count, as the sampler has it."""
    rng = EnsembleSeed(3, 1).generator()
    rng.poisson(10.0)
    return rng


@pytest.mark.parametrize("count", [7, 100_003, lslab.disorder._SPLIT_MIN + 11])
@pytest.mark.parametrize("split", [False, True], ids=["1", "2"])  # ids: pieces drawn
def test_split_draw_and_sort_equal_one_uniform_draw_and_sort(count, split):
    # the counts are odd, so the halves differ in size; the sampler splits
    # only counts of at least 2^19, so no half is empty
    ref = _generator_after_the_count().uniform(-7.5, 7.5, size=count)
    ref.sort()
    got = lslab.disorder._sorted_uniforms(_generator_after_the_count(), count, 7.5, split)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("size", [1, _BLOCK - 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("box_length", [1e7 / 0.6, 3.3])
def test_draw_in_place_equals_uniform(size, box_length):
    # the in-place draw rounds the product and the sum apart, as numpy's
    # uniform does; a numpy build whose uniform fused them would fail here
    half = box_length / 2.0
    ref = _generator_after_the_count().uniform(-half, half, size)
    out = np.empty(size)
    negative = lslab.disorder._draw(_generator_after_the_count(), out, half)
    assert out.tobytes() == ref.tobytes()
    assert negative == np.count_nonzero(ref < 0)


def test_split_at_zero_handles_halves_on_one_side():
    # over these labels some 3- or 4-point halves lie wholly below or above 0,
    # so the swap between the halves moves nothing or a whole half
    sides = set()
    for index in range(40):
        rng = EnsembleSeed(5, index).generator()
        ref = rng.uniform(-1.0, 1.0, size=7)
        sides |= {tuple(ref[:3] < 0), tuple(ref[3:] < 0)}
        ref.sort()
        got = lslab.disorder._sorted_uniforms(EnsembleSeed(5, index).generator(), 7, 1.0, True)
        assert got.tobytes() == ref.tobytes()
    assert {(True,) * 3, (False,) * 3, (True,) * 4, (False,) * 4} <= sides


def test_large_box_is_sampled_in_parts_with_the_same_points(monkeypatch):
    # 2^19 points or more are split in two; pretend there are three CPUs
    monkeypatch.setattr(lslab.disorder, "_cpu_count", lambda: 3)
    splits = []
    sorted_uniforms = lslab.disorder._sorted_uniforms

    def record_split(rng, count, half, split):
        splits.append(split)
        return sorted_uniforms(rng, count, half, split)

    monkeypatch.setattr(lslab.disorder, "_sorted_uniforms", record_split)
    seed = EnsembleSeed(11, 2)
    r = sample_realization(1.0, 2.5 * 2**19, seed)
    assert splits == [True] and r.n_points >= lslab.disorder._SPLIT_MIN
    rng = seed.generator()
    ref = rng.uniform(-2.5 * 2**18, 2.5 * 2**18, size=int(rng.poisson(2.5 * 2**19)))
    ref.sort()
    assert r.points.tobytes() == ref.tobytes()


def test_split_rule(monkeypatch):
    split, split_min = lslab.disorder._split, lslab.disorder._SPLIT_MIN
    monkeypatch.setattr(lslab.disorder, "_split_boxes", True)
    for cpus in (2, 8):
        monkeypatch.setattr(lslab.disorder, "_cpu_count", lambda n=cpus: n)
        got = [split(c) for c in (0, split_min - 1, split_min, 10**8)]
        assert got == [False, False, True, True]
    monkeypatch.setattr(lslab.disorder, "_cpu_count", lambda: 1)
    assert not split(10**8)
    # a worker of a parallel scan samples on one thread, whatever its CPUs
    monkeypatch.setattr(lslab.disorder, "_cpu_count", lambda: 8)
    lslab.disorder._sample_on_one_thread()
    assert not split(10**8)


def test_worker_thread_errors_reach_the_caller(monkeypatch):
    failed_on = []

    class FailingGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            failed_on.append(threading.current_thread())
            raise FloatingPointError("draw failed in a worker")

    # the first half draws from the caller's generator; the second half
    # builds its own, which fails on the thread that draws it
    rng = _generator_after_the_count()
    monkeypatch.setattr(lslab.disorder, "Generator", FailingGenerator)
    with pytest.raises(FloatingPointError, match="draw failed in a worker"):
        lslab.disorder._sorted_uniforms(rng, 10 * _BLOCK, 1.0, True)
    assert len(failed_on) == 1
    assert threading.main_thread() not in failed_on


def test_caller_errors_reach_it_after_the_helper_thread_ends(monkeypatch):
    failed, drawn = threading.Event(), []

    class FailingGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            failed.set()
            raise FloatingPointError("draw failed on the calling thread")

    class SlowGenerator(np.random.Generator):
        def random(self, *args, **kwargs):
            # still drawing well after the calling thread's half has failed
            failed.wait(5.0)
            time.sleep(0.1)
            drawn.append(threading.current_thread())
            return super().random(*args, **kwargs)

    # the first half draws from the caller's generator; the second half's
    # generator, one _BLOCK of draws, is built inside the sampler
    rng = FailingGenerator(_generator_after_the_count().bit_generator)
    monkeypatch.setattr(lslab.disorder, "Generator", SlowGenerator)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed on the calling thread"):
        lslab.disorder._sorted_uniforms(rng, 2 * _BLOCK, 1.0, True)
    assert threading.active_count() == threads
    assert len(drawn) == 1 and threading.main_thread() not in drawn


def test_longest_interval_follows_the_gumbel_law():
    # nu l_max - ln(nu L) tends to the Gumbel law exp(-e^{-y}).  Over these
    # 2000 realizations at L = 1e4 the KS distance is 0.011 (5% critical
    # value 0.030); points drawn at nu = 1.05 but read at nu = 1 give 0.145
    y = [sample_realization(1.0, 1e4, EnsembleSeed(1234, i)).l_max - math.log(1e4)
         for i in range(2000)]
    assert stats.kstest(y, "gumbel_r").statistic < 0.030


def test_distinct_indices_give_distinct_draws():
    a = sample_realization(1.0, 500.0, EnsembleSeed(9, 0))
    b = sample_realization(1.0, 500.0, EnsembleSeed(9, 1))
    assert a.n_points != b.n_points or not np.array_equal(a.points, b.points)


def test_point_count_matches_poisson_mean():
    # nu*L = 100; mean of 10^4 draws should sit within 3 sigma of 100.
    counts = [sample_realization(1.0, 100.0, EnsembleSeed(7, i)).n_points
              for i in range(10_000)]
    mean = np.mean(counts)
    assert abs(mean - 100.0) < 3.0 * 10.0 / math.sqrt(10_000)


def test_gap_law_is_exponential():
    # Interior gaps of a Poisson process are iid Exp(nu). KS test per
    # realization; at the 1% level the rejection rate should stay small.
    rejections = 0
    trials = 400
    for i in range(trials):
        r = sample_realization(2.0, 200.0, EnsembleSeed(123, i))
        gaps = np.diff(r.points)
        if gaps.size < 10:
            continue
        p = stats.kstest(gaps, "expon", args=(0, 1 / 2.0)).pvalue
        rejections += p < 0.01
    assert rejections <= 0.05 * trials


def test_mean_gap_inverse_intensity():
    # nu=1, L=10^6: the mean interior gap estimates 1/nu within 2%.
    gaps = np.concatenate([
        np.diff(sample_realization(1.0, 1e6, EnsembleSeed(2, i)).points)
        for i in range(50)
    ])
    assert abs(gaps.mean() - 1.0) < 0.02


def test_longest_interval_returns_first_maximum():
    r = make_realization([0.0], 2.0)  # lengths (1, 1): tie broken to index 0
    assert (r.l_max, r.l_max_index) == (1.0, 0)
    r2 = make_realization([-0.5], 3.0)  # lengths (1, 2)
    assert (r2.l_max, r2.l_max_index) == (2.0, 1)


def test_longest_interval_tracks_log_box_length():
    # E[l_max] ~ ln(L)/nu; a loose bracket is enough to catch scale bugs.
    lmax = [sample_realization(1.0, 1e5, EnsembleSeed(31, i)).l_max for i in range(300)]
    mean = np.mean(lmax)
    assert 0.5 * math.log(1e5) < mean < 5.0 * math.log(1e5)


def test_count_intervals_at_least():
    assert make_realization([-2.0, 1.0], 10.0).long_count == 3  # lengths (3, 3, 4)
    # lengths just below, exactly at and just above 3: a threshold of 2.9
    # would count three and one of 3.1 would count one
    r = _from_lengths([2.95, 3.0, 3.05])
    np.testing.assert_allclose(r.interval_lengths, [2.95, 3.0, 3.05], rtol=1e-15)
    assert r.interval_lengths[1] == 3.0
    assert r.long_count == 2


def test_count_rate_matches_exponential_tail():
    # P(interval >= t) ~ e^{-nu t}: mean count/L within 10% of e^{-3}.
    counts = [sample_realization(1.0, 1e4, EnsembleSeed(55, i)).long_count
              for i in range(200)]
    rate = np.mean(counts) / 1e4
    assert abs(rate - math.exp(-3.0)) < 0.1 * math.exp(-3.0)


def test_text_round_trip_is_bit_exact(capsys):
    # the `lslab sample` dump: its header replays the realization, its points read back
    r = sample_realization(1.5, 300.0, EnsembleSeed(77, 4))
    assert main(["sample", "--intensity", "1.5", "--box-length", "300",
                 "--base-seed", "77", "--index", "4"]) == 0
    header, points = split_dump(capsys.readouterr().out)
    assert int(header["n_points"]) == len(points)
    seed = EnsembleSeed(int(header["base_seed"]), int(header["realization_index"]))
    back = DisorderRealization(float(header["intensity"]), float(header["box_length"]),
                               np.array([float(p) for p in points]), seed)
    assert back.intensity == r.intensity
    assert back.box_length == r.box_length
    assert back.seed_info == r.seed_info
    np.testing.assert_array_equal(back.points, r.points)
    np.testing.assert_array_equal(back.interval_lengths, r.interval_lengths)


def test_sample_argument_validation():
    with pytest.raises(ValueError):
        sample_realization(0.0, 10.0, EnsembleSeed(0, 0))
    with pytest.raises(ValueError):
        sample_realization(1.0, -5.0, EnsembleSeed(0, 0))


def test_sampling_refuses_mean_count_above_ceiling_before_drawing(monkeypatch):
    def no_draw(self):
        raise AssertionError("a refused sample must draw nothing")

    monkeypatch.setattr(lslab.disorder, "MAX_POINTS", 200)
    assert sample_realization(2.0, 100.0, EnsembleSeed(0, 0)).n_points > 0
    monkeypatch.setattr(EnsembleSeed, "generator", no_draw)
    with pytest.raises(ValueError, match="ceiling"):
        sample_realization(2.0, 100.5, EnsembleSeed(0, 0))


def _reconstructed(r):
    half = r.box_length / 2.0
    edges = np.concatenate(([-half], r.points, [half]))
    return edges[:-1], np.diff(edges)


@pytest.mark.parametrize("make", [
    *(pytest.param(lambda i=i: sample_realization(1.0, 300.0, EnsembleSeed(8, i)),
                   id=f"sampled{i}") for i in range(4)),
    pytest.param(lambda: sample_realization(0.01, 1.0, EnsembleSeed(0, 0)), id="no-points"),
    pytest.param(lambda: make_realization([-2.0, 1.0], 10.0), id="hand-made"),
    pytest.param(lambda: make_realization([0.25], 1.5, 3.0), id="hand-made-one-point"),
])
def test_intervals_are_derived_from_the_points(make):
    r = make()
    lefts, lengths = _reconstructed(r)
    assert r.n_intervals == r.n_points + 1
    assert r.interval_lengths.flags.c_contiguous
    assert r.interval_lengths.tobytes() == lengths.tobytes()
    spec = build_spectrum(r, default_cutoff(r, 1.0))
    assert spec.interval_lengths.tobytes() == lengths.tobytes()
    mode = ground_mode(r)
    assert mode.interval_left == lefts[mode.interval_index]


def _from_lengths(lengths):
    # integer interior lengths and half-unit edge pieces: every point and
    # every difference is exact, so the lengths come back as given
    lengths = np.asarray(lengths, dtype=float)
    half = lengths.sum() / 2.0
    return make_realization(-half + np.cumsum(lengths[:-1]), 2.0 * half)


def _seam_lengths(n_points, longest_at):
    lengths = np.random.default_rng(n_points).integers(1, 1000, n_points + 1).astype(float)
    lengths[[0, -1]] = 0.5
    lengths[list(longest_at)] = 5000.0
    return lengths


def _seam_cases():
    # the longest interval at both edge pieces, next to them and on each
    # side of the first seam (interval _BLOCK opens the second block)
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
        for at in sorted({0, 1, _BLOCK - 1, _BLOCK, n - 1, n} - {n + 1}):
            yield pytest.param(n, (at,), id=f"n=B{n - _BLOCK:+d}-longest@{at}")
    # ties across a seam and across the whole array: the first index wins
    yield pytest.param(_BLOCK + 1, (_BLOCK - 1, _BLOCK), id="tie-across-seam")
    yield pytest.param(_BLOCK + 1, (3, _BLOCK + 1), id="tie-first-and-last-block")


@pytest.mark.parametrize("n_points, longest_at", _seam_cases())
def test_blocked_statistics_match_the_whole_array(n_points, longest_at):
    expected = _seam_lengths(n_points, longest_at)
    r = _from_lengths(expected)
    half = r.box_length / 2.0
    ref = np.diff(np.concatenate(([-half], r.points, [half])))
    assert ref.tobytes() == expected.tobytes()
    _assert_statistics_match(r, ref)
    assert r.l_max_index == longest_at[0]
    lengths = r.interval_lengths
    assert lengths.flags.c_contiguous and not lengths.flags.writeable
    assert r.interval_lengths is lengths
    assert r.n_intervals == ref.size


@pytest.mark.parametrize("at", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
@pytest.mark.parametrize("fault", ["repeat", "swap"])
def test_non_increasing_pair_at_a_seam_is_refused(at, fault):
    # interval `at` is pts[at] - pts[at - 1]; interval _BLOCK opens the second block
    r = _from_lengths(_seam_lengths(_BLOCK + 3, ()))
    pts = r.points.copy()
    pts[at] = pts[at - 1] if fault == "repeat" else pts[at - 1] - 0.25
    with pytest.raises(ValueError, match="strictly increasing"):
        DisorderRealization(1.0, r.box_length, pts, EnsembleSeed(0, 0))


# odd, so the validating pass streams intervals [0, n // 2) on the calling
# thread and the one more [n // 2, n] on the helper
_SPLIT_N = lslab.disorder._SPLIT_MIN + 5


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(lslab.disorder, "_split_boxes", True)
    monkeypatch.setattr(lslab.disorder, "_cpu_count", lambda: 2)


@pytest.mark.parametrize("longest_at", [(_SPLIT_N // 2 - 1, _SPLIT_N // 2), (1, _SPLIT_N)],
                         ids=["at-the-seam", "far-apart"])
def test_split_pass_gives_a_tie_across_the_halves_to_the_first_index(two_cpus, longest_at):
    expected = _seam_lengths(_SPLIT_N, longest_at)
    r = _from_lengths(expected)
    assert r.l_max_index == longest_at[0]
    _assert_statistics_match(r, expected)


@pytest.mark.parametrize("fault", ["seam", "last-point", "right-edge"])
def test_split_pass_refuses_a_fault_in_the_second_half(two_cpus, fault):
    r = _from_lengths(_seam_lengths(_SPLIT_N, ()))
    pts, mid = r.points.copy(), _SPLIT_N // 2
    if fault == "right-edge":
        pts[-1] = r.box_length / 2.0
    else:
        at = mid if fault == "seam" else _SPLIT_N - 1  # interval `at` is pts[at] - pts[at - 1]
        pts[at] = pts[at - 1]
    with pytest.raises(ValueError, match="strictly increasing"):
        DisorderRealization(1.0, r.box_length, pts, EnsembleSeed(0, 0))


def test_split_pass_streams_every_interval_once(two_cpus, monkeypatch):
    seen, stream = [], lslab.disorder._length_blocks

    def recorded(realization, first, last):
        for start, block in stream(realization, first, last):
            seen.append((start, start + block.size, threading.current_thread()))
            yield start, block

    monkeypatch.setattr(lslab.disorder, "_length_blocks", recorded)
    _from_lengths(_seam_lengths(_SPLIT_N, ()))
    seen.sort(key=lambda block: block[0])
    assert [start for start, _, _ in seen] == [0, *(stop for _, stop, _ in seen[:-1])]
    assert seen[-1][1] == _SPLIT_N + 1
    # intervals [0, n // 2) on the calling thread, the rest on one helper
    mid = _SPLIT_N // 2
    assert all(thread is threading.main_thread() for _, stop, thread in seen if stop <= mid)
    helpers = {thread for start, _, thread in seen if start >= mid}
    assert len(helpers) == 1 and threading.main_thread() not in helpers
    assert all(stop <= mid or start >= mid for start, stop, _ in seen)


@pytest.mark.parametrize("pts", [
    [0.4, 0.2],             # not increasing
    [0.1, 0.1],             # duplicate
    [-0.5, 0.0],            # on the left box edge
    [0.0, 0.5],             # on the right box edge
    [0.7],                  # outside the box
    [0.0, float("nan")],    # NaN
    [[0.1, 0.2]],           # 2-d
], ids=["unsorted", "duplicate", "left-edge", "right-edge", "outside", "nan", "2d"])
def test_realization_rejects_inconsistent_geometry(pts):
    with pytest.raises(ValueError):
        DisorderRealization(1.0, 1.0, np.array(pts), EnsembleSeed(0, 0))


def test_realization_arrays_are_frozen():
    r = sample_realization(1.0, 100.0, EnsembleSeed(3, 3))
    with pytest.raises(ValueError):
        r.points[0] = 0.0
    with pytest.raises(ValueError):
        r.interval_lengths[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(
    intensity=st.floats(min_value=0.1, max_value=5.0),
    box_length=st.floats(min_value=0.5, max_value=50.0),
    base_seed=st.integers(min_value=0, max_value=2**32),
    index=st.integers(min_value=0, max_value=10),
)
def test_property_valid_tiling(intensity, box_length, base_seed, index):
    r = sample_realization(intensity, box_length, EnsembleSeed(base_seed, index))
    assert abs(r.interval_lengths.sum() - box_length) <= 1e-9 * box_length
    assert np.all(r.interval_lengths > 0)
    assert r.n_intervals == r.n_points + 1
