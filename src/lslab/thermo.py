"""Exact canonical statistics of the ideal Bose gas on a fixed spectrum.

Everything runs in the ground-shifted gauge (energies minus the lowest
level, x_j = exp(-beta (e_j - e_0)), so x_0 = 1):

    S_k   = sum_j x_j^k                                 k = 1..N
    Z(t)  = sum_n Z_n t^n = prod_j (1 - x_j t)^-1
    <n_j> = sum_{k=1}^{N} x_j^k Z_{N-k} / Z_N

The lowest g levels are split off (the condensate/excited split of Navez et
al., PRL 79, 1789 (1997), applied to g levels):

    Z(t) = prod_{j<g} (1 - x_j t)^-1 * Z^ex(t),   n Z^ex_n = sum_k S^ex_k Z^ex_{n-k}

with S^ex_k summed over the levels from g up.  Z^ex comes from the power-sum
recursion in the linear domain, on a buffer that is rescaled whenever Z
passes 1e200; only ln Z leaves it.  The steps run in blocks of 8: one einsum
per block gives every row its sum over the steps before the block, and each
row adds the few products within the block in Python floats.  Each peeled
level folds back in as one first-order recurrence.  Z^ex is log-concave
(Stanley, Ann. N.Y. Acad. Sci. 576, 500 (1989)), so its ratios never grow
and the terms past step m sum to at most Z^ex_m r_m / (1 - r_m); the
recursion stops at the first m* where that bound is below 1e-18 of the
running sum of Z^ex.  m* is about the excited saturation count plus
ln(1e18) / (beta (e_g - e_0)), and g (1 to 8) is chosen from the spectrum
to make it small: a near-degenerate level above the ground level would
otherwise keep the recursion going to N.  The cost is O(m*^2 + g N) plus
the sums; where the excited levels never saturate, m* = N and the cost is
the full O(N^2), so THERMO_MAX_N still marks the desk-scale ceiling.  The
result is exact for the canonical ensemble at fixed particle number.
condensate_profile is the one entry point for occupations: it evaluates
<n_j> for the lowest top_k modes (top_k = the mode count gives them all)
and the total over every mode through the power-sum identity.
saturation_density gives the density the excited modes hold when the
chemical potential is pushed to the band edge, which is the natural
empirical estimate of where condensation sets in.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .disorder import EnsembleSeed, sample_realization
from .spectrum import Spectrum, build_spectrum, cutoff_is_converged, default_cutoff

__all__ = [
    "THERMO_MAX_N",
    "CutoffConvergenceWarning",
    "ThermoSolution",
    "boltzmann_sums",
    "canonical_partition",
    "condensate_profile",
    "saturation_density",
    "estimate_saturation_density",
]

# O(N^2) recursion ceiling: above this, one evaluation stops being desk-scale.
THERMO_MAX_N = 20_000

# exp(-80) ~ 1.8e-35; dropped tail terms total < 1e-29 against sums that are >= 1
_EXP_FLOOR = -80.0

# _log_partitions rescales its buffer when a value passes _RESCALE_AT, then
# sets entries below _FLUSH_BELOW to 0: together they add less than 1e-270
# (relative) to any later Z, and dropping them keeps subnormals out of the
# dot products
_RESCALE_AT = 1e200
_FLUSH_BELOW = 1e-280

# the excited recursion stops once its remaining terms sum to less than this
# fraction of the terms it has made
_STOP_RELATIVE = 1e-18
_STOP_LOG = math.log(1.0 / _STOP_RELATIVE)
# at most this many levels, the ground level included, are peeled, and each
# peeled excited level costs about this fraction of N recursion steps
_MAX_PEEL = 8
_PEEL_CHARGE = 1 / 64
# largest (powers x levels) slab one exp call in _power_sums evaluates
_SLAB_TERMS = 1 << 16
# steps per block of the excited recursion: one einsum per block makes the
# rows' history sums; 4 and 6 measured slower than 8, 10 and 12 no faster,
# and the overflow bound in _log_partitions allows at most 13
_BLOCK = 8


class CutoffConvergenceWarning(UserWarning):
    """The spectrum cutoff truncates non-negligible Boltzmann weight at this beta."""


@dataclass(frozen=True, eq=False)
class ThermoSolution:
    """Canonical occupation summary for one (spectrum, beta, N).

    occupations holds the lowest top_k modes; everything above them is
    aggregated into tail_occupation.
    """

    beta: float
    particle_number: int
    log_partitions: np.ndarray
    occupations: np.ndarray
    tail_occupation: float
    condensate_density: float
    condensate_fraction: float
    box_length: float
    cutoff_converged: bool

    @property
    def log_partition(self) -> float:
        """ln Z_N in the ground-shifted gauge."""
        return float(self.log_partitions[-1])


def _check_particles(particle_number) -> int:
    n = int(particle_number)
    if n != particle_number or n < 1:
        raise ValueError("particle_number must be a positive integer")
    if n > THERMO_MAX_N:
        raise ValueError(
            f"particle_number {n} exceeds the O(N^2) ceiling {THERMO_MAX_N}; "
            "split the schedule or drop the canonical evaluation at this size")
    return n


def boltzmann_sums(spectrum: Spectrum, beta: float, max_power: int) -> np.ndarray:
    """S_k for k = 1..max_power over the ground-shifted spectrum.

    Terms below exp(_EXP_FLOOR) are dropped; since S_k >= 1 (the ground mode
    contributes 1 exactly) this cannot move any sum at the 1e-12 level.
    """
    _check_beta(beta)
    k_max = int(max_power)
    if k_max < 1:
        raise ValueError("max_power must be >= 1")
    return _power_sums(spectrum.energies - spectrum.energies[0], beta, k_max, (0,))[0]


def _check_beta(beta: float) -> None:
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")


def _power_sums(delta: np.ndarray, beta: float, k_max: int, starts: tuple[int, ...]
                ) -> np.ndarray:
    """Row i: sum_{j >= starts[i]} exp(-k beta delta_j), k = 1..k_max, over sorted delta.

    Only terms with k beta delta_j <= 80 count.  The powers go in geometric
    blocks (1, 2, 4, ... of them), each one exp over a (powers x levels)
    slab of at most _SLAB_TERMS entries (or one row); a term past its own
    power's limit is set to exp(-inf) = 0, so each row keeps exactly the
    terms of a one-power-at-a-time sum.  Every row reduces its own columns
    of the same slab.
    """
    k_beta = beta * np.arange(1, k_max + 1)
    keep = np.searchsorted(delta, -_EXP_FLOOR / k_beta, side="right")
    out = np.zeros((len(starts), k_max))
    slab = np.empty(max(_SLAB_TERMS, int(keep[0])))
    k = 0
    while k < k_max and keep[k] > 0:
        width = int(keep[k])
        stop = min(k_max, k + max(1, min(k + 1, _SLAB_TERMS // width)))
        terms = slab[:(stop - k) * width].reshape(stop - k, width)
        np.multiply.outer(-k_beta[k:stop], delta[:width], out=terms)
        terms[np.arange(width) >= keep[k:stop, None]] = -np.inf
        np.exp(terms, out=terms)
        for row, first in zip(out, starts):
            row[k:stop] = terms[:, first:].sum(axis=1)
        k = stop
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i, with bits that do not depend on the host's thread count.

    np.dot hands long vectors (above about 10^4 elements for OpenBLAS) to the
    BLAS thread pool, whose partial sums round differently for each thread
    count.  einsum reduces in one fixed order on the calling thread.
    """
    return float(np.einsum("i,i->", a, b))


def _warn_if_unconverged(spectrum: Spectrum, beta: float) -> bool:
    converged = cutoff_is_converged(spectrum, beta)
    if not converged:
        # levels: here, _solve, the public entry point, its caller
        warnings.warn(
            f"spectrum cutoff {spectrum.energy_cutoff:g} is not converged at "
            f"beta={beta:g}; partition sums are truncated",
            CutoffConvergenceWarning, stacklevel=4)
    return converged


def _peel_count(delta: np.ndarray, beta: float, n: int) -> int:
    """g, the number of lowest levels to peel, the ground level included.

    With levels g and up left to it, the excited recursion grows until
    about N_sat(g) = sum_{j>=g} 1 / (exp(beta delta_j) - 1) particles (the
    excited occupation at mu = e_0), then falls off as exp(-beta delta_g)
    per step, so it stops near m*(g) = N_sat(g) + ln(1e18) / (beta delta_g).
    g is the count in 1.._MAX_PEEL that minimises min(m*(g), N) plus
    _PEEL_CHARGE * N steps per peeled excited level (its O(m* + N)
    recurrence).  Only levels with beta delta <= 1 are peeled, which keeps
    _geometric_filter's blocks at least 200 steps long.  Where no g stops
    before N, that is g = 1.
    """
    gaps = beta * delta[1:]
    count = min(gaps.size, 1 + int(np.count_nonzero(gaps[:_MAX_PEEL - 1] <= 1.0)))
    if count == 0:
        return 1
    # a zero gap makes its occupation and tail inf, and a sum of huge
    # occupations overflows; min(., N) clips such an inf like any m* past N
    with np.errstate(divide="ignore", over="ignore"):
        occupation = 1.0 / np.expm1(gaps)
        tail = _STOP_LOG / gaps[:count]
        head = occupation[:count]
        saturation = occupation[count:].sum() + np.cumsum(head[::-1])[::-1]
        cost = np.minimum(saturation + tail, n) + np.arange(count) * (n * _PEEL_CHARGE)
    return 1 + int(np.argmin(cost))


def _geometric_filter(x: float, y0: float, u: np.ndarray) -> np.ndarray:
    """y_t = x y_{t-1} + u_t for t = 1..len(u), from y_0 = y0, for 0 < x <= 1.

    Each block is x^t (y_start + cumsum(u_t x^-t)); blocks are short enough
    that x^-t stays below e^200.
    """
    block = max(1, int(200.0 / -math.log(x))) if x < 1.0 else len(u)
    powers = x ** np.arange(1, min(block, len(u)) + 1)
    y = np.empty_like(u)
    for start in range(0, len(u), block):
        p = powers[:len(u) - start]
        y[start:start + block] = p * (y0 + np.cumsum(u[start:start + block] / p))
        y0 = y[start:start + block][-1]
    return y


def _log_partitions(excited_sums: np.ndarray, peeled: np.ndarray, n_max: int
                    ) -> tuple[np.ndarray, int]:
    """(ln Z_0..ln Z_N, m*) from the excited power sums and the peeled weights.

    Z(t) = prod_{j<g} (1 - x_j t)^-1 * Z^ex(t); peeled holds x_1..x_{g-1}
    (the ground level, x_0 = 1, is always peeled).  Step n makes Z^ex_n from
    S^ex by the linear recursion, n Z^ex_n = sum_k S^ex_k Z^ex_{n-k}.  The
    Z^ex_j live in one buffer in reverse order (Z^ex_j at index N - j), and
    the steps run in blocks of _BLOCK.  At the start of a block that follows
    step m0, one einsum makes the history part of every row of the block,
    H_n = sum_{j<=m0} S^ex_{n-j} Z^ex_j: a strided (Hankel) view of the
    sums, row r starting at S^ex_{r+1}, times the buffer's live slice.  Row
    n then adds its in-block triangle, sum_{k<n-m0} S^ex_k Z^ex_{n-k}, in
    Python floats.  Z^ex_n passes through one first-order recurrence per
    peeled level, Y_n = x_j Y_{n-1} + W_n, and a running sum (x_0 = 1)
    gives Z_n.  Everything is held divided by exp(shift); when Z_n passes
    _RESCALE_AT, the buffer, the peeled states and the block's pending
    history sums are all divided by Z_n and shift becomes ln Z_n.  Nothing
    can overflow: every held Z value is at most Z_n, Z_n / Z_{n-1} is at
    most S_1 (the mode count at most), and a history sum is at most
    n Z^ex_n <= n S_1^_BLOCK Z^ex_{m0} with Z^ex_{m0} <= _RESCALE_AT.  So
    _BLOCK log10(MAX_MODES) + log10(THERMO_MAX_N) + log10(_RESCALE_AT) must
    stay below 308, which holds for _BLOCK <= 13.

    Z^ex is log-concave, so r_n = Z^ex_n / Z^ex_{n-1} never increases and the
    excited terms past n sum to at most Z^ex_n r_n / (1 - r_n).  The
    recursion stops at the first such m* where that is below _STOP_RELATIVE
    of sum_{j<=n} Z^ex_j, whichever row of a block that is.  That bounds the
    relative change to every Z_n, because Z_n = sum_m Z^ex_m h_{n-m} with
    h_n, the peeled factors' own coefficients, non-decreasing in n.  Past m*
    the peeled recurrences run on with W = 0, vectorised (_geometric_filter).
    """
    log_z = np.zeros(n_max + 1)
    buf = np.zeros(n_max + 1)
    buf[n_max] = 1.0
    states = [1.0] * len(peeled)
    peeled = [float(x) for x in peeled]
    head = excited_sums[:_BLOCK - 1].tolist()
    # read-only, and numpy refuses a view that would reach past its end
    sums = memoryview(excited_sums).toreadonly()
    step = excited_sums.itemsize
    shift, total, excited, prev = 0.0, 1.0, 1.0, 1.0
    stop = n_max
    for start in range(0, n_max, _BLOCK):
        rows = min(_BLOCK, n_max - start)
        hankel = np.ndarray((rows, start + 1), buffer=sums, strides=(step, step))
        history = np.einsum("ij,j->i", hankel, buf[n_max - start:]).tolist()
        # the block's Z^ex so far, newest first as in the buffer, which they
        # reach at a rescale or at the end of the block
        recent = []
        for r in range(rows):
            n = start + 1 + r
            value = sum(map(operator.mul, head, recent), history[r]) / n
            recent.insert(0, value)
            y = value
            for i, x in enumerate(peeled):
                y = states[i] = x * states[i] + y
            total += y
            excited += value
            log_z[n] = shift + math.log(total)
            if value < prev:
                ratio = value / prev
                if value * ratio < _STOP_RELATIVE * (1.0 - ratio) * excited:
                    stop = n
                    break
            prev = value
            if total > _RESCALE_AT:
                live = buf[n_max - n:]
                live[:r + 1] = recent
                live /= total
                live[live < _FLUSH_BELOW] = 0.0
                recent = live[:r + 1].tolist()
                history[r + 1:] = [h / total for h in history[r + 1:]]
                states = [v / total for v in states]
                prev /= total
                excited /= total
                total = 1.0
                shift = log_z[n]
        buf[n_max - n:n_max - start] = recent
        if stop < n_max:
            break
    if stop < n_max:
        y = np.zeros(n_max - stop)
        for x, state in zip(peeled, states):
            y = _geometric_filter(x, state / total, y)
        log_z[stop + 1:] = log_z[stop] + np.log1p(np.cumsum(y))
    return log_z, stop


def _solve(spectrum: Spectrum, beta: float, particle_number: int
           ) -> tuple[int, bool, np.ndarray, np.ndarray, int]:
    """(N, cutoff converged, S_1..S_N, ln Z_0..ln Z_N, m*) for the public entry points.

    The lowest g levels (_peel_count) are peeled, and the recursion runs on
    S^ex_k, summed over the levels from g up.  S_k, over the whole spectrum,
    takes no part in it.
    """
    n = _check_particles(particle_number)
    converged = _warn_if_unconverged(spectrum, beta)
    delta = spectrum.energies - spectrum.energies[0]
    g = _peel_count(delta, beta, n)
    sums, excited_sums = _power_sums(delta, beta, n, (0, g))
    log_z, stop = _log_partitions(excited_sums, np.exp(-beta * delta[1:g]), n)
    return n, converged, sums, log_z, stop


def canonical_partition(spectrum: Spectrum, beta: float, particle_number: int) -> np.ndarray:
    """ln Z_0 .. ln Z_N in the ground-shifted gauge.

    Z is computed in the linear domain on a rescaled buffer, with the lowest
    levels split off (see _log_partitions), and cannot overflow.
    """
    return _solve(spectrum, beta, particle_number)[3]


def condensate_profile(spectrum: Spectrum, beta: float, particle_number: int,
                       top_k: int) -> ThermoSolution:
    """Occupations of the lowest top_k modes plus an aggregated tail.

    The total occupation is evaluated through the power-sum identity
    sum_j <n_j> = sum_k S_k Z_{N-k}/Z_N and must land on N; a drift beyond
    1e-8 N raises.  The Z_n come from the excited sums S^ex_k and the peeled
    levels, while S_k here sums the whole spectrum, so the identity is a
    cross-check, not a tautology: a relative error eps in S^ex_k moves the
    total by about 0.1 eps N at k = 1, 0.01 eps N at k = 5, 0.002 eps N at
    k = 10 and 1e-6 eps N or less at k = 100 (sampled spectra, beta = 1,
    N = 2000 and 2*10^4).  So it catches eps = 1e-6 at k <= 4 but not at
    k >= 5, and no error below about 1e-7 at any k.
    """
    top_k = int(top_k)
    if not 1 <= top_k <= len(spectrum):
        raise ValueError("top_k must lie in 1..n_modes")
    n, converged, sums, log_z, _ = _solve(spectrum, beta, particle_number)
    delta = spectrum.energies[:top_k] - spectrum.energies[0]
    # <n_j> = sum_k exp(-k beta delta_j + ln Z_{N-k} - ln Z_N), k = 1..N
    k_beta = beta * np.arange(1, n + 1, dtype=float)
    tail = log_z[n - 1::-1] - log_z[n]
    occ = np.array([np.exp(-k_beta * d + tail).sum() for d in delta.tolist()])
    total = _dot(sums, np.exp(tail))
    if not abs(total - n) <= 1e-8 * n:
        raise RuntimeError(f"occupation total drifted to {total!r} for N={n}")
    return ThermoSolution(
        beta=float(beta),
        particle_number=n,
        log_partitions=log_z,
        occupations=occ,
        tail_occupation=total - float(occ.sum()),
        condensate_density=float(occ[0]) / spectrum.box_length,
        condensate_fraction=float(occ[0]) / n,
        box_length=spectrum.box_length,
        cutoff_converged=converged,
    )


def saturation_density(spectrum: Spectrum, beta: float) -> float:
    """Density held by the excited modes at the band-edge chemical potential."""
    _check_beta(beta)
    delta = spectrum.energies - spectrum.energies[0]
    excited = delta[delta > 0.0]
    return float((1.0 / np.expm1(beta * excited)).sum() / spectrum.box_length)


def estimate_saturation_density(intensity: float, beta: float, box_length: float,
                                realizations: int = 16, base_seed: int = 1) -> float:
    """Empirical saturation density: median of saturation_density over an ensemble."""
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    values = []
    for idx in range(int(realizations)):
        r = sample_realization(intensity, box_length, EnsembleSeed(base_seed, idx))
        spec = build_spectrum(r, default_cutoff(r, beta))
        values.append(saturation_density(spec, beta))
    return float(np.median(values))
