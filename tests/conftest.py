"""Shared construction helpers and independent oracles for the test suite."""

import itertools
import math

import numpy as np

from lslab.disorder import DisorderRealization, EnsembleSeed
from lslab.lab import _spectrum_listing
from lslab.spectrum import Spectrum


def make_realization(points, box_length, intensity=1.0, seed=None):
    """Build a realization from hand-picked cut points (may be empty)."""
    if seed is None:
        seed = EnsembleSeed(0, 0)
    pts = np.sort(np.asarray(points, dtype=float))
    return DisorderRealization(float(intensity), float(box_length), pts, seed)


def toy_spectrum(energies, box_length=1.0):
    """Wrap a bare sorted-or-not energy list as a Spectrum.

    The interval lengths are a stub (one unit interval); only code paths that
    read energies and box_length should receive these.
    """
    return Spectrum(
        energies=np.sort(np.asarray(energies, dtype=float)),
        interval_lengths=np.array([1.0]),
        energy_cutoff=math.inf,
        box_length=float(box_length),
    )


def spectrum_listing(realization, cutoff):
    """The `lslab spectrum` rows of a realization as (energies, interval indices, mode numbers)."""
    rows = _spectrum_listing(realization, cutoff).splitlines()
    assert rows[0] == "energy,interval_index,mode_number"
    energy, interval, harmonic = zip(*(row.split(",") for row in rows[1:]))
    return (np.array(energy, dtype=float), np.array(interval, dtype=np.int64),
            np.array(harmonic, dtype=np.int64))


def compensated_sum(values, start=0):
    """A float sum() as Python 3.12 and later compute it, with Neumaier compensation."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def split_dump(text):
    """A command's text as its `key = value` fields (in order) and its other lines.

    Comment lines are dropped.
    """
    fields, rest = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
        else:
            rest.append(line)
    return fields, rest


def enumerate_bose(energies, beta, n):
    """Exhaustive canonical ensemble by multiset enumeration.

    Returns (Z_n, occupations) in the ground-shifted gauge.  Cost grows as
    C(levels + n - 1, n), so keep levels and n tiny; this is the ground-truth
    oracle the O(N^2) recursion is checked against.
    """
    shifted = np.asarray(energies, dtype=float)
    shifted = shifted - shifted.min()
    z = 0.0
    weighted = np.zeros(shifted.size)
    for combo in itertools.combinations_with_replacement(range(shifted.size), n):
        w = math.exp(-beta * sum(shifted[j] for j in combo))
        z += w
        for j in combo:
            weighted[j] += w
    return z, weighted / z
