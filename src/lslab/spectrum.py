"""Spectrum of the one-particle Hamiltonian on a disorder realization.

The operator decomposes over the subintervals with a wall at every point
and at the box edges; on a piece of length l the eigenvalues are
pi^2 n^2 / l^2 (n >= 1), with normalized sine eigenfunctions on that piece
alone.  A Spectrum is the sorted energies of all modes up to a finite cutoff,
which default_cutoff picks by the one rule cutoff_is_converged judges; only
`lslab spectrum` rebuilds which interval and harmonic each energy is.
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
    "ground_mode",
    "weyl_mode_count",
    "default_cutoff",
    "cutoff_is_converged",
]

PI = math.pi
PI_SQ = math.pi ** 2

# neglected-Boltzmann-mass target used by default_cutoff / cutoff_is_converged
TAIL_WEIGHT_TARGET = 1e-12

# ceiling on the modes of one spectrum; building one peaks at about 48 bytes
# per mode plus 17 per interval (_mode_table's columns), so this is about 3 GB
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
    """Sorted mode energies (8 bytes per mode) and the lengths of their intervals."""

    energies: np.ndarray
    interval_lengths: np.ndarray
    energy_cutoff: float
    box_length: float

    def __post_init__(self):
        if self.energies.size == 0:
            raise EmptySpectrumError("spectrum contains no modes")
        if (self.energies[1:] < self.energies[:-1]).any():
            raise ValueError("energies must be sorted ascending")
        for arr in (self.energies, self.interval_lengths):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.energies.size)


def _mode_table(realization: DisorderRealization, energy_cutoff: float) -> tuple:
    """(interval indices, mode numbers, energies) up to the cutoff, by interval, then harmonic."""
    if energy_cutoff <= 0 or not math.isfinite(energy_cutoff):
        raise ValueError("energy_cutoff must be positive and finite")
    e0 = ground_mode(realization).energy  # refuses a box too small for any mode
    lengths = realization.interval_lengths
    n_max = np.floor(lengths * (math.sqrt(energy_cutoff) / PI))
    # counted in floating point, so a count past the int64 range is refused too
    if n_max.sum() > MAX_MODES:
        raise ValueError(
            f"cutoff {energy_cutoff:g} gives {n_max.sum():.4g} modes, above the "
            f"ceiling {MAX_MODES}; lower the cutoff or the box length")
    n_max = n_max.astype(np.int64)
    # repair floating-point boundary cases against the exact energy formula
    while (bump := dirichlet_energy(n_max + 1, lengths) <= energy_cutoff).any():
        n_max[bump] += 1
    while (drop := (n_max > 0) & (dirichlet_energy(np.maximum(n_max, 1), lengths)
                                  > energy_cutoff)).any():
        n_max[drop] -= 1
    total = int(n_max.sum())
    if total == 0:
        raise EmptySpectrumError(
            f"cutoff {energy_cutoff:g} lies below the ground-state energy {e0:g}")
    interval_idx = np.repeat(np.arange(n_max.size, dtype=np.int64), n_max)
    starts = np.concatenate(([0], np.cumsum(n_max)[:-1]))
    mode_num = np.arange(total, dtype=np.int64) - np.repeat(starts, n_max) + 1
    return interval_idx, mode_num, dirichlet_energy(mode_num, lengths[interval_idx])


def build_spectrum(realization: DisorderRealization, energy_cutoff: float) -> Spectrum:
    """All modes with energy <= cutoff, as their sorted energies.

    Raises EmptySpectrumError when the cutoff is below pi^2 / l_max^2 and
    refuses more than MAX_MODES modes before allocating them.  The build
    peaks at about 48 bytes per mode plus 17 per interval; the result keeps 8.
    """
    energies = _mode_table(realization, energy_cutoff)[2]
    energies.sort()  # tied energies are equal floats, so any sort gives the same bytes
    return Spectrum(energies, realization.interval_lengths, float(energy_cutoff),
                    realization.box_length)


def ground_mode(realization: DisorderRealization) -> EigenMode:
    """The lowest mode as an EigenMode record; refused if its energy is not finite."""
    l_max, idx = realization.l_max, realization.l_max_index
    with np.errstate(over="ignore", divide="ignore"):  # inf is refused below
        energy = float(dirichlet_energy(1, l_max))
    if energy == math.inf:
        raise ValueError(f"box_length {realization.box_length:g} is too small: its "
                         "ground-state energy pi^2/l_max^2 is not a finite float")
    left = realization.points[idx - 1] if idx else -realization.box_length / 2.0
    return EigenMode(idx, 1, energy, float(left), l_max)


def weyl_mode_count(lengths, energy: float) -> int:
    """Exact mode count below an energy: sum of floor(l sqrt(E)/pi)."""
    if energy <= 0:
        return 0
    lengths = np.asarray(lengths, dtype=float)
    return int(np.floor(lengths * (math.sqrt(energy) / PI)).sum())


def _tail_is_negligible(energy_cutoff: float, ground_energy: float, beta: float,
                        count: int) -> bool:
    """The cutoff rule, given count, the number of modes below 4 E_cut."""
    return math.exp(-beta * (energy_cutoff - ground_energy)) * max(count, 1) \
        < TAIL_WEIGHT_TARGET


def default_cutoff(realization: DisorderRealization, beta: float) -> float:
    """Cutoff with a comfortably negligible Boltzmann tail at this beta.

    E_cut = e0 + (ln c - ln(TAIL_WEIGHT_TARGET / 2)) / beta, from c = 2 and
    then with c the mode count below 4 E_cut until that count stops growing
    (it grows like sqrt(ln c)).  Where e0 + the gap rounds the factor-2
    margin away, E_cut steps up one float at a time, so the result always
    passes cutoff_is_converged.
    """
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    e0 = ground_mode(realization).energy
    lengths = realization.interval_lengths
    log_target = math.log(TAIL_WEIGHT_TARGET) + math.log(0.5)
    c = 2
    ecut = e0 + (math.log(c) - log_target) / beta
    while True:
        if not 4.0 * ecut < math.inf:
            raise ValueError(f"beta {beta:g} is too small: the energy cutoff it needs "
                             "is not a finite float")
        count = weyl_mode_count(lengths, 4.0 * ecut)
        if count > c:
            c = count
            ecut = e0 + (math.log(c) - log_target) / beta
        elif _tail_is_negligible(ecut, e0, beta, count):
            return ecut
        else:
            ecut = math.nextafter(ecut, math.inf)


def cutoff_is_converged(spectrum: Spectrum, beta: float) -> bool:
    """Whether the truncated Boltzmann weight is negligible at this beta."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if not math.isfinite(spectrum.energy_cutoff):
        return True
    count = weyl_mode_count(spectrum.interval_lengths, 4.0 * spectrum.energy_cutoff)
    return _tail_is_negligible(spectrum.energy_cutoff, float(spectrum.energies[0]), beta, count)
