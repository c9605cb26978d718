"""Independent recomputation of scan outputs, run outside the timed region.

Nothing here calls lslab's spectrum, thermo or bounds code: interval
lengths come straight from the sampled points, the Dirichlet levels from
pi^2 n^2 / l^2, and ln Z_N from a linear-domain recursion with rescaling
(the log-domain recursion lslab uses is a different algorithm).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# relative tolerance on ln Z_N; both recursions are accurate to ~1e-13
LOG_Z_RTOL = 1e-9
# S_k terms below exp(-700) are dropped; lslab itself drops below exp(-80)
_EXP_CUT = 700.0
_RESCALE_AT = 1e250
_TRIAL_MIN_LENGTH = 3.0


def read_records(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def interval_lengths(points: np.ndarray, box_length: float) -> np.ndarray:
    half = box_length / 2.0
    lengths = np.diff(np.concatenate(([-half], points, [half])))
    return lengths[lengths > 0.0]


def dirichlet_levels(lengths: np.ndarray, cutoff: float) -> np.ndarray:
    """Sorted energies pi^2 n^2 / l^2 <= cutoff over all intervals."""
    n_top = np.floor(lengths * (math.sqrt(cutoff) / math.pi)).astype(np.int64) + 1
    which = np.repeat(np.arange(lengths.size), n_top)
    starts = np.cumsum(n_top) - n_top
    n = (np.arange(which.size) - np.repeat(starts, n_top) + 1).astype(float)
    energies = math.pi ** 2 * n ** 2 / lengths[which] ** 2
    return np.sort(energies[energies <= cutoff])


def log_partition(energies: np.ndarray, beta: float, particles: int) -> float:
    """ln Z_N in the ground-shifted gauge, Z_n = (1/n) sum_k S_k Z_{n-k}."""
    x = beta * (energies - energies[0])
    k = np.arange(1, particles + 1)
    keep = np.searchsorted(x, _EXP_CUT / k, side="right")
    sums = np.array([np.exp(-kk * x[:hi]).sum() for kk, hi in zip(k, keep)])
    z = np.zeros(particles + 1)
    z[0] = 1.0
    log_scale = 0.0
    for m in range(1, particles + 1):
        z[m] = np.dot(sums[:m], z[m - 1::-1]) / m
        if z[m] > _RESCALE_AT:
            log_scale += math.log(z[m])
            z[: m + 1] /= z[m]
    return math.log(z[particles]) + log_scale


def check_cell(row: dict[str, str], points: np.ndarray, beta: float) -> list[str]:
    """Mismatches between one emitted record row and the recomputation."""
    problems = []
    box_length = float(row["box_length"])
    lengths = interval_lengths(points, box_length)
    l_max = float(lengths.max())
    long_count = int(np.count_nonzero(lengths >= _TRIAL_MIN_LENGTH))
    if "lemma21_l_max" in row and float(row["lemma21_l_max"]) != l_max:
        problems.append(f"l_max {row['lemma21_l_max']} != {l_max!r}")
    if "appendix_count" in row and int(row["appendix_count"]) != long_count:
        problems.append(f"#(l>=3) {row['appendix_count']} != {long_count}")
    if row.get("trial_defined") == "1" and int(row["trial_count_q"]) != long_count:
        problems.append(f"trial count {row['trial_count_q']} != {long_count}")
    if "thermo_log_partition" in row:
        energies = dirichlet_levels(lengths, float(row["thermo_energy_cutoff"]))
        if energies.size != int(row["thermo_n_modes"]):
            problems.append(f"modes {row['thermo_n_modes']} != {energies.size}")
        expected = log_partition(energies, beta, int(row["n"]))
        got = float(row["thermo_log_partition"])
        if not abs(got - expected) <= LOG_Z_RTOL * max(1.0, abs(expected)):
            problems.append(f"ln Z {got!r} != {expected!r}")
    return problems
