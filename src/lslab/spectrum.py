"""Spectrum of the one-particle Hamiltonian on a disorder realization.

The operator decomposes over the subintervals with a wall at every point
and at the box edges; on a piece of length l the eigenvalues are
pi^2 n^2 / l^2 (n >= 1) with normalized sine eigenfunctions supported on
that piece alone.  A Spectrum is the energy-sorted union of all modes up
to a finite cutoff, stored column-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderRealization

__all__ = [
    "MAX_MODES",
    "EmptySpectrumError",
    "EigenMode",
    "Spectrum",
    "dirichlet_energy",
    "build_spectrum",
    "ground_state_energy",
    "ground_mode",
    "weyl_mode_count",
    "default_cutoff",
    "cutoff_is_converged",
    "spectrum_to_text",
]

PI = math.pi
PI_SQ = math.pi ** 2

# neglected-Boltzmann-mass target used by default_cutoff / cutoff_is_converged
TAIL_WEIGHT_TARGET = 1e-12

# ceiling on the modes of one spectrum; building one peaks at about 57 bytes
# per mode (built and sorted columns side by side), so this is under 3 GB
MAX_MODES = 5 * 10**7


class EmptySpectrumError(ValueError):
    """The requested energy cutoff lies below the ground-state energy."""


def dirichlet_energy(mode_number, length):
    """pi^2 n^2 / l^2, evaluated through one floating path for scalars and arrays."""
    n = np.asarray(mode_number, dtype=float)
    l = np.asarray(length, dtype=float)
    return PI_SQ * n**2 / l**2


@dataclass(frozen=True)
class EigenMode:
    """One Dirichlet mode: which interval, which harmonic, what energy."""

    interval_index: int
    mode_number: int
    energy: float
    interval_left: float
    interval_length: float

    def __post_init__(self):
        if self.mode_number < 1:
            raise ValueError("mode_number must be >= 1")
        if self.interval_length <= 0:
            raise ValueError("interval_length must be positive")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Energy-sorted finite spectrum plus the lengths of its intervals."""

    energies: np.ndarray
    interval_indices: np.ndarray
    mode_numbers: np.ndarray
    interval_lengths: np.ndarray
    energy_cutoff: float
    box_length: float

    def __post_init__(self):
        if self.energies.size == 0:
            raise EmptySpectrumError("spectrum contains no modes")
        if (self.energies[1:] < self.energies[:-1]).any():
            raise ValueError("energies must be sorted ascending")
        for arr in (self.energies, self.interval_indices, self.mode_numbers,
                    self.interval_lengths):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.energies.size)

    @property
    def ground_energy(self) -> float:
        return float(self.energies[0])


def build_spectrum(realization: DisorderRealization, energy_cutoff: float) -> Spectrum:
    """All modes with energy <= cutoff, sorted by (energy, interval, harmonic).

    Raises EmptySpectrumError when the cutoff is below pi^2 / l_max^2 and
    refuses more than MAX_MODES modes before allocating them.
    """
    if energy_cutoff <= 0 or not math.isfinite(energy_cutoff):
        raise ValueError("energy_cutoff must be positive and finite")
    lengths = realization.interval_lengths
    n_max = np.floor(lengths * (math.sqrt(energy_cutoff) / PI))
    # counted in floating point, so a count past the int64 range is refused too
    if n_max.sum() > MAX_MODES:
        raise ValueError(
            f"cutoff {energy_cutoff:g} gives {n_max.sum():.4g} modes, above the "
            f"ceiling {MAX_MODES}; lower the cutoff or the box length")
    n_max = n_max.astype(np.int64)
    # repair floating-point boundary cases against the exact energy formula
    while True:
        bump = dirichlet_energy(n_max + 1, lengths) <= energy_cutoff
        if not bump.any():
            break
        n_max[bump] += 1
    while True:
        drop = (n_max > 0) & (dirichlet_energy(np.maximum(n_max, 1), lengths) > energy_cutoff)
        if not drop.any():
            break
        n_max[drop] -= 1
    total = int(n_max.sum())
    if total == 0:
        raise EmptySpectrumError(
            f"cutoff {energy_cutoff:g} lies below the ground-state energy "
            f"{ground_state_energy(realization):g}")
    interval_idx = np.repeat(np.arange(n_max.size, dtype=np.int64), n_max)
    starts = np.concatenate(([0], np.cumsum(n_max)[:-1]))
    mode_num = np.arange(total, dtype=np.int64) - np.repeat(starts, n_max) + 1
    energies = dirichlet_energy(mode_num, lengths[interval_idx])
    # built in (interval, harmonic) order; the default sort is several times
    # faster than a stable one, and a tie, where the two can differ, is put
    # back in construction order, so the result is the stable order on any host
    order = np.argsort(energies)
    ranked = energies[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = order[np.lexsort((order, ranked))]
    return Spectrum(ranked, interval_idx[order], mode_num[order],
                    lengths, float(energy_cutoff), realization.box_length)


def ground_state_energy(realization: DisorderRealization) -> float:
    """pi^2 / l_max^2: the first harmonic of the longest interval."""
    return ground_mode(realization).energy


def ground_mode(realization: DisorderRealization) -> EigenMode:
    """The lowest mode as an EigenMode record."""
    l_max, idx = realization.l_max, realization.l_max_index
    left = realization.points[idx - 1] if idx else -realization.box_length / 2.0
    return EigenMode(idx, 1, float(dirichlet_energy(1, l_max)), float(left), l_max)


def weyl_mode_count(lengths, energy: float) -> int:
    """Exact mode count below an energy: sum of floor(l sqrt(E)/pi)."""
    if energy <= 0:
        return 0
    lengths = np.asarray(lengths, dtype=float)
    return int(np.floor(lengths * (math.sqrt(energy) / PI)).sum())


def default_cutoff(realization: DisorderRealization, beta: float) -> float:
    """Cutoff with a comfortably negligible Boltzmann tail at this beta.

    Picks E_cut so that exp(-beta (E_cut - e0)) times the number of modes
    below 4 E_cut stays under TAIL_WEIGHT_TARGET (with a factor-2 margin).
    """
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    e0 = ground_state_energy(realization)
    lengths = realization.interval_lengths
    log_target = math.log(TAIL_WEIGHT_TARGET) + math.log(0.5)
    ecut = e0 + (math.log(2.0) - log_target) / beta
    for _ in range(64):
        count = max(weyl_mode_count(lengths, 4.0 * ecut), 1)
        new = e0 + (math.log(count) - log_target) / beta
        if new <= ecut * (1.0 + 1e-12):
            break
        ecut = new
    return ecut


def cutoff_is_converged(spectrum: Spectrum, beta: float) -> bool:
    """Whether the truncated Boltzmann weight is negligible at this beta."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if not math.isfinite(spectrum.energy_cutoff):
        return True
    count = max(weyl_mode_count(spectrum.interval_lengths, 4.0 * spectrum.energy_cutoff), 1)
    return math.exp(-beta * (spectrum.energy_cutoff - spectrum.ground_energy)) * count \
        < TAIL_WEIGHT_TARGET


def spectrum_to_text(spectrum: Spectrum) -> str:
    """Columnar dump (energy, interval_index, mode_number), energy-sorted."""
    lines = ["energy,interval_index,mode_number"]
    for e, j, n in zip(spectrum.energies, spectrum.interval_indices, spectrum.mode_numbers):
        lines.append(f"{e:.17g},{int(j)},{int(n)}")
    return "\n".join(lines) + "\n"
