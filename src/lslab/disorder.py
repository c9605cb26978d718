"""Poisson point configurations on a finite box.

A realization is a set of points thrown on the open box (-L/2, +L/2): the
point count is Poisson with mean nu*L and, given the count, the positions
are iid uniform (the exact conditional law of the homogeneous process).
The points cut the box into subintervals; interior gaps are iid Exp(nu)
while the two edge pieces are clipped by the box boundary.

Streams are counter-based: every (base_seed, realization_index) pair maps
to its own generator through a 64-bit finalizer, so ensemble members can be
produced in any order, in parallel, and replayed individually.

Every box is drawn in place, block by block: rng.random fills a block of
the points array and two in-place ufuncs turn u into -half + (2 half) u,
numpy's own uniform formula with the same two roundings and one 64-bit
output per draw, so no temporary array is made.  Written as two separate
roundings, the draw does not depend on whether a numpy build fuses the
multiply-add inside Generator.uniform.

A box with at least 2^19 points, in a process that may run on two CPUs or
more, is drawn in two halves, the first on the calling thread and the
second on one helper thread, from the PCG64 stream advanced to its first
draw.  Each half moves its draws below 0 to its front, one swap gathers all
of them at the front of the box, and the two sides of 0 are sorted side by
side.  The pass that validates the points then streams the two halves of
the intervals side by side.  The points and their statistics are bit for
bit those of one uniform draw, one sort and one pass, whatever the CPU
count.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import PCG64, Generator

__all__ = [
    "MAX_POINTS",
    "EnsembleSeed",
    "DisorderRealization",
    "check_point_budget",
    "sample_realization",
]

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15

# ceiling on the mean point count intensity*box_length; sampling and the
# checks peak at about 8 bytes per point (the points alone) plus one 512 KB
# length block per half of the validating pass, so this is under 1 GB; a
# spectrum adds 8 more per point for the interval lengths it reads
MAX_POINTS = 10**8

# intervals at least this long can host one unit plateau plus two unit
# switches (the trial state); the appendix floor counts the same intervals
LONG_INTERVAL = 3.0


def _splitmix64(state: int) -> int:
    # full-avalanche 64-bit finalizer of the splitmix64 counter sequence
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class EnsembleSeed:
    """Reproducible per-realization stream label.

    The derived stream seed is a pure function of base_seed and
    realization_index, nothing else.
    """

    base_seed: int
    realization_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.base_seed) <= _MASK64:
            raise ValueError("base_seed must fit in an unsigned 64-bit word")
        if int(self.realization_index) < 0:
            raise ValueError("realization_index must be nonnegative")

    def stream_seed(self) -> int:
        state = (int(self.base_seed) + (int(self.realization_index) + 1) * _GOLDEN64) & _MASK64
        return _splitmix64(state)

    def generator(self) -> Generator:
        return Generator(PCG64(self.stream_seed()))


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One point configuration on the open box (-L/2, +L/2).

    The sorted points are the whole realization: interval j runs from -L/2
    (j = 0) or points[j-1] to points[j] or +L/2 (j = n_points), so there are
    n_points + 1 intervals.  Their lengths are not stored: the pass that
    checks the points streams them in cache-sized blocks and keeps the three
    statistics the checks read, the longest length l_max, the first index
    l_max_index attaining it and long_count = #{length >= LONG_INTERVAL}.
    The interval_lengths array is built only when something asks for it.
    Instances compare and hash by identity.
    """

    intensity: float
    box_length: float
    points: np.ndarray
    seed_info: EnsembleSeed
    l_max: float = field(init=False)
    l_max_index: int = field(init=False)
    long_count: int = field(init=False)

    def __post_init__(self):
        if not (0 < self.intensity < np.inf and 0 < self.box_length < np.inf):
            raise ValueError("intensity and box_length must be positive and finite")
        if self.points.ndim != 1:
            raise ValueError("points must be a 1-d array")
        n = self.points.size
        if _split(n):
            (best, index, count), (top, at, more) = _side_by_side(
                lambda: _statistics(self, 0, n // 2),
                lambda: _statistics(self, n // 2, n + 1))
            # a tie goes to the first half, so the first index still wins
            if top > best:
                best, index = top, at
            count += more
        else:
            best, index, count = _statistics(self, 0, n + 1)
        object.__setattr__(self, "l_max", float(best))
        object.__setattr__(self, "l_max_index", index)
        object.__setattr__(self, "long_count", count)
        # realizations are immutable once built; shared freely across workers
        self.points.setflags(write=False)

    @property
    def n_points(self) -> int:
        return int(self.points.size)

    @property
    def n_intervals(self) -> int:
        return self.n_points + 1

    @cached_property
    def interval_lengths(self) -> np.ndarray:
        """All n_points + 1 interval lengths, read-only, built on first access."""
        lengths = np.empty(self.n_intervals)
        for start, block in _length_blocks(self, 0, self.n_intervals):
            lengths[start:start + block.size] = block
        lengths.setflags(write=False)
        return lengths


# 2^16 lengths (512 KB) per block stay in cache from the subtraction that
# writes them to the reduction that reads them
_BLOCK = 1 << 16


def _length_blocks(realization: DisorderRealization, first: int,
                   last: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first interval index, lengths) block by block for intervals first..last - 1.

    The values are np.diff over [-half, *points, half], written piecewise
    into one scratch buffer that every block reuses, so a block must be read
    before the next one is asked for.
    """
    pts, half = realization.points, realization.box_length / 2.0
    n = pts.size
    if not n:
        yield 0, np.array([half + half])
        return
    buf = np.empty(min(last - first, _BLOCK))
    for start in range(first, last, _BLOCK):
        stop = min(start + _BLOCK, last)
        block = buf[:stop - start]
        lo, hi = max(start, 1), min(stop, n)  # the interior lengths pts[i] - pts[i-1]
        np.subtract(pts[lo:hi], pts[lo - 1:hi - 1], out=block[lo - start:hi - start])
        if start == 0:
            block[0] = pts[0] + half
        if stop == n + 1:
            block[-1] = half - pts[-1]
        yield start, block


def _statistics(realization: DisorderRealization, first: int, last: int) -> tuple[float, int, int]:
    """(longest length, its first index, #{length >= LONG_INTERVAL}) over intervals first..last - 1.

    Raises ValueError unless every one of those lengths is positive.
    """
    best, index, count = -np.inf, first, 0
    for start, block in _length_blocks(realization, first, last):
        # min() > 0 exactly when the points increase strictly inside the box; NaN fails
        if not block.min() > 0:
            raise ValueError("points must be strictly increasing inside the open box")
        # only a strictly longer block maximum replaces the best, so the first index wins
        if (top := block.max()) > best:
            best, index = top, start + int((block == top).argmax())
        count += int(np.count_nonzero(block >= LONG_INTERVAL))
    return best, index, count


def check_point_budget(intensity: float, box_length: float) -> None:
    """Refuse a mean point count intensity*box_length above MAX_POINTS."""
    if intensity * box_length > MAX_POINTS:
        raise ValueError(
            f"intensity*box_length = {intensity * box_length:g} points exceeds the "
            f"sampling ceiling {MAX_POINTS:g}; shrink the box or the intensity")


# a box of 2^19 points or more is drawn and sorted in two halves; a half of at
# least 2 MB keeps thread start-up far below its share of the draw and the sort
_SPLIT_MIN = 1 << 19

# a worker of a parallel scan clears this: the workers already keep the CPUs busy
_split_boxes = True


def _sample_on_one_thread() -> None:
    """Draw and sort every box of this process on the calling thread."""
    global _split_boxes
    _split_boxes = False


def _cpu_count() -> int:
    """How many CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(count: int) -> bool:
    """Whether a box of count points is drawn, sorted and validated in two halves on two threads."""
    return _split_boxes and count >= _SPLIT_MIN and _cpu_count() > 1


def _side_by_side(first: Callable[[], object], second: Callable[[], object]) -> tuple:
    """Return (first(), second()), first run on the calling thread and second on a new one.

    The new thread has ended when this returns or raises; second's exception is raised here.
    """
    value = error = None

    def run() -> None:
        nonlocal value, error
        try:
            value = second()
        except BaseException as err:  # raised again in the caller below
            error = err

    thread = threading.Thread(target=run)
    thread.start()
    try:
        mine = first()
    finally:
        thread.join()
    if error is not None:
        raise error
    return mine, value


def _draw(rng: Generator, out: np.ndarray, half: float) -> int:
    """Fill out in place with rng's uniform(-half, half) draws, block by block; count those < 0.

    Each value is numpy's own low + range*u, rounded after the product and
    after the sum, from one 64-bit output of rng.
    """
    negative = 0
    for start in range(0, out.size, _BLOCK):
        block = out[start:start + _BLOCK]
        rng.random(out=block)
        np.multiply(block, half - (-half), out=block)
        np.add(block, -half, out=block)
        negative += int(np.count_nonzero(block < 0))
    return negative


def _draw_negatives_first(rng: Generator, out: np.ndarray, half: float) -> int:
    """_draw into out, then put the draws below 0 first; count them."""
    negative = _draw(rng, out, half)
    if 0 < negative < out.size:
        out.partition(negative)
    return negative


def _sorted_uniforms(rng: Generator, count: int, half: float, split: bool) -> np.ndarray:
    """The draws of rng's uniform(-half, half, size=count), sorted; with split, in two halves.

    The first count // 2 draws come from rng and the rest from a copy of its
    PCG64 advanced by count // 2, where one draw of the full size would be.
    A swap between the halves puts every draw below 0 first, and each side
    of 0 is sorted on its own thread; draws are never NaN or -0.0, so that
    equals one full sort.
    """
    pts = np.empty(count)
    if not split:
        _draw(rng, pts, half)
        pts.sort()
        return pts
    mid = count // 2
    bits = PCG64(0)
    bits.state = rng.bit_generator.state
    rest = Generator(bits.advance(mid))
    x, y = _side_by_side(lambda: _draw_negatives_first(rng, pts[:mid], half),
                         lambda: _draw_negatives_first(rest, pts[mid:], half))
    # pts is [x below 0 | >= 0 | y below 0 | >= 0]: swap the shorter middle run with the far
    # end of the other, in blocks, so that the peak stays at 8 B/point
    n = min(mid - x, y)
    a, b = pts[x:x + n], pts[mid + y - n:mid + y]
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        first = a[start:stop].copy()
        a[start:stop] = b[start:stop]
        b[start:stop] = first
    _side_by_side(pts[:x + y].sort, pts[x + y:].sort)
    return pts


def sample_realization(intensity: float, box_length: float,
                       seed: EnsembleSeed) -> DisorderRealization:
    """Draw one realization at the given intensity on a box of this length.

    Count first (Poisson with mean intensity*box_length), then that many
    sorted uniforms; at 2^19 points or more the draw, the sort and the
    validating pass are split over two of the process's CPUs, with the same
    points and statistics.  Only if a draw
    repeats or lands on a box edge are the repeats merged and the edge points
    dropped, so every interval has positive length.  A mean count above
    MAX_POINTS is refused before anything is drawn.
    """
    if not 0 < intensity < np.inf:
        raise ValueError("intensity must be positive and finite")
    if not 0 < box_length < np.inf:
        raise ValueError("box_length must be positive and finite")
    check_point_budget(intensity, box_length)
    rng = seed.generator()
    count = int(rng.poisson(intensity * box_length))
    half = box_length / 2.0
    pts = _sorted_uniforms(rng, count, half, _split(count))
    with suppress(ValueError):  # refused only for a repeated draw or one on an edge
        return DisorderRealization(float(intensity), float(box_length), pts, seed)
    # sorted: edge draws sit at the ends and a repeat follows its first copy
    inside = pts[np.searchsorted(pts, -half, "right"):np.searchsorted(pts, half)]
    # first copies move to the front of pts block by block, so the merge
    # allocates no second array and the peak stays at 8 B/point
    keep = np.empty(min(inside.size, _BLOCK), dtype=bool)
    kept = 0
    for start in range(0, inside.size, _BLOCK):
        block = inside[start:start + _BLOCK]
        first = keep[:block.size]
        np.not_equal(block[1:], block[:-1], out=first[1:])
        # inside[start - 1] still holds its draw: the writes so far stop short of
        # it, or reach it only when nothing before it was dropped
        first[0] = start == 0 or block[0] != inside[start - 1]
        moved = block[first]
        pts[kept:kept + moved.size] = moved
        kept += moved.size
    return DisorderRealization(float(intensity), float(box_length), pts[:kept], seed)
