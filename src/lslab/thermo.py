"""Exact canonical statistics of the ideal Bose gas on a fixed spectrum.

Everything runs in the ground-shifted gauge (energies minus the lowest
level):

    S_k   = sum_j exp(-k beta (e_j - e_0))             k = 1..N
    Z_N   = (1/N) sum_{k=1}^{N} S_k Z_{N-k}            Z_0 = 1
    <n_j> = sum_{k=1}^{N} exp(-k beta (e_j - e_0)) Z_{N-k} / Z_N

The Z recursion runs in the linear domain, one sum of products per step, on a
buffer that is rescaled whenever its newest value passes 1e200; only ln Z
leaves it.  No value can overflow, because in this gauge Z_n / Z_{n-1} lies
in [1, S_1] and S_1 is at most the mode count.  The recursion is exact for
the canonical ensemble at fixed particle number and costs O(N^2);
THERMO_MAX_N marks the desk-scale ceiling.  saturation_density gives the
density the excited modes hold when the chemical potential is pushed to the
band edge, which is the natural empirical estimate of where condensation
sets in.
"""

from __future__ import annotations

import math
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
    "canonical_occupation",
    "canonical_occupations",
    "condensate_profile",
    "saturation_density",
    "estimate_saturation_density",
    "thermo_solution_to_text",
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


class CutoffConvergenceWarning(UserWarning):
    """The spectrum cutoff truncates non-negligible Boltzmann weight at this beta."""


@dataclass(frozen=True)
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
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    k_max = int(max_power)
    if k_max < 1:
        raise ValueError("max_power must be >= 1")
    delta = spectrum.energies - spectrum.energies[0]
    out = np.empty(k_max)
    for k in range(1, k_max + 1):
        hi = int(np.searchsorted(delta, -_EXP_FLOOR / (k * beta), side="right"))
        out[k - 1] = np.exp(-(k * beta) * delta[:hi]).sum()
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


def _log_partitions(sums: np.ndarray) -> np.ndarray:
    """ln Z_0..ln Z_N from the power sums by the rescaled linear recursion.

    The unnormalised Z_j live in one buffer in reverse order (Z_j at index
    N - j), so each step is a forward, contiguous sum of products.  The
    buffer holds Z_j / exp(shift); when the newest value passes _RESCALE_AT
    the live part is divided by that value and shift becomes its ln Z.  This
    cannot overflow: Z_n / Z_{n-1} lies in [1, S_1], because the ground mode
    alone gives Z_n >= Z_{n-1} and the generating function
    prod_j (1 - x_j t)^-1 makes the sequence log-concave, so one step grows
    the buffer by at most S_1 (at most the mode count) past _RESCALE_AT.
    """
    n_max = len(sums)
    log_z = np.zeros(n_max + 1)
    buf = np.zeros(n_max + 1)
    buf[n_max] = 1.0
    shift = 0.0
    for n in range(1, n_max + 1):
        value = _dot(sums[:n], buf[n_max - n + 1:]) / n
        buf[n_max - n] = value
        log_z[n] = shift + math.log(value)
        if value > _RESCALE_AT:
            live = buf[n_max - n:]
            live /= value
            live[live < _FLUSH_BELOW] = 0.0
            shift = log_z[n]
    return log_z


def _solve(spectrum: Spectrum, beta: float, particle_number: int
           ) -> tuple[int, bool, np.ndarray, np.ndarray]:
    """(N, cutoff converged, S_1..S_N, ln Z_0..ln Z_N) for the public entry points."""
    n = _check_particles(particle_number)
    converged = _warn_if_unconverged(spectrum, beta)
    sums = boltzmann_sums(spectrum, beta, n)
    return n, converged, sums, _log_partitions(sums)


def canonical_partition(spectrum: Spectrum, beta: float, particle_number: int) -> np.ndarray:
    """ln Z_0 .. ln Z_N in the ground-shifted gauge.

    Z is computed in the linear domain on a rescaled buffer (see
    _log_partitions), which cannot overflow.
    """
    return _solve(spectrum, beta, particle_number)[3]


def _occupation_single(delta_j: float, beta: float, log_z: np.ndarray) -> float:
    n = len(log_z) - 1
    k = np.arange(1, n + 1, dtype=float)
    exponents = -(k * beta) * delta_j + (log_z[n - 1::-1] - log_z[n])
    return float(np.exp(exponents).sum())


def canonical_occupation(spectrum: Spectrum, beta: float, particle_number: int,
                         mode_index: int) -> float:
    """Expected occupation <n_j> of one mode in the canonical ensemble."""
    if not 0 <= mode_index < len(spectrum):
        raise ValueError("mode_index out of range")
    *_, log_z = _solve(spectrum, beta, particle_number)
    delta_j = float(spectrum.energies[mode_index] - spectrum.energies[0])
    return _occupation_single(delta_j, beta, log_z)


def canonical_occupations(spectrum: Spectrum, beta: float, particle_number: int) -> np.ndarray:
    """All mode occupations at once (k-loop over the shifted spectrum)."""
    n, _, _, log_z = _solve(spectrum, beta, particle_number)
    delta = spectrum.energies - spectrum.energies[0]
    ratios = np.exp(log_z[n - 1::-1] - log_z[n])
    occ = np.zeros(len(spectrum))
    for k in range(1, n + 1):
        hi = int(np.searchsorted(delta, -_EXP_FLOOR / (k * beta), side="right"))
        occ[:hi] += ratios[k - 1] * np.exp(-(k * beta) * delta[:hi])
    return occ


def condensate_profile(spectrum: Spectrum, beta: float, particle_number: int,
                       top_k: int) -> ThermoSolution:
    """Occupations of the lowest top_k modes plus an aggregated tail.

    The total occupation is evaluated through the power-sum identity
    sum_j <n_j> = sum_k S_k Z_{N-k}/Z_N and must land on N; a drift beyond
    1e-8 N would indicate a numerical defect and raises.
    """
    top_k = int(top_k)
    if not 1 <= top_k <= len(spectrum):
        raise ValueError("top_k must lie in 1..n_modes")
    n, converged, sums, log_z = _solve(spectrum, beta, particle_number)
    delta = spectrum.energies - spectrum.energies[0]
    occ = np.array([_occupation_single(float(delta[j]), beta, log_z)
                    for j in range(top_k)])
    ratios = np.exp(log_z[n - 1::-1] - log_z[n])
    total = _dot(sums, ratios)
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
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
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


def thermo_solution_to_text(solution: ThermoSolution) -> str:
    """Flat record plus the top-k occupation list."""
    s = solution
    occ = ",".join(f"{v:.17g}" for v in s.occupations)
    lines = [
        "# thermo solution",
        f"beta = {s.beta:.17g}",
        f"particle_number = {s.particle_number}",
        f"box_length = {s.box_length:.17g}",
        f"log_partition = {s.log_partition:.17g}",
        f"condensate_density = {s.condensate_density:.17g}",
        f"condensate_fraction = {s.condensate_fraction:.17g}",
        f"tail_occupation = {s.tail_occupation:.17g}",
        f"cutoff_converged = {int(s.cutoff_converged)}",
        f"occupations = {occ}",
    ]
    return "\n".join(lines) + "\n"
