"""Closed-form bounds, box decompositions, and scaling diagnostics.

Each check evaluates one inequality or one sequence on concrete inputs and
reports the numbers.  Statements that only hold eventually or almost surely
are left to ensemble pass fractions in the lab module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disorder import DisorderRealization
from .spectrum import EigenMode

__all__ = [
    "VoidTrialStateError",
    "Lemma21Result",
    "AppendixCountResult",
    "TrialStateEnergy",
    "PowerLogLaw",
    "ScalingDiagnostics",
    "check_lemma21",
    "box_masses",
    "pule_aonghusa_bound",
    "theorem33_bound",
    "scaling_diagnostics",
    "critical_density",
    "box_count_criterion",
    "transition_switch",
    "transition_switch_derivative",
    "transition_kinetic_constant",
    "trial_state_energy",
    "check_appendix_count",
]

class VoidTrialStateError(ValueError):
    """No interval is long enough to host a trial bump."""


# ---------------------------------------------------------------------------
# longest-interval sandwich


class Lemma21Result(NamedTuple):
    lower_ok: bool
    upper_ok: bool
    l_max: float
    lower_bound: float
    upper_bound: float


def check_lemma21(realization: DisorderRealization, epsilon: float = 0.5,
                  alpha: float = 5.0) -> Lemma21Result:
    """Sandwich test for the longest interval length:

        (1/nu) [ln L - (1+eps) ln ln L]  <=  l_max  <=  (alpha/nu) ln L

    The bracket only makes sense for alpha > 4 and L > e.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 4.0 < alpha < math.inf:
        raise ValueError("alpha must exceed 4 and be finite")
    big_l = realization.box_length
    if big_l <= math.e:
        raise ValueError("box_length must exceed e for the iterated logarithm")
    nu = realization.intensity
    log_l = math.log(big_l)
    lower = (log_l - (1.0 + epsilon) * math.log(log_l)) / nu
    upper = alpha * log_l / nu
    l_max = realization.l_max
    return Lemma21Result(l_max >= lower, l_max <= upper, l_max, lower, upper)


# ---------------------------------------------------------------------------
# box decompositions and the two condensate bounds


# ceiling on the boxes box_masses lays over one interval; each costs 40
# bytes of arrays at the peak (8 in the result) and 0.02 us, so the ceiling
# is about 40 MB and 0.02 s
MAX_BOXES = 10**6


def box_masses(mode: EigenMode, box_length: float) -> np.ndarray:
    """Per-box masses of an eigenmode on the grid of boxes [a n, a (n+1)), n integer.

    The masses are closed-form integrals of |phi|^2: the antiderivative of
    (2/l) sin^2(n pi u / l) is u/l - sin(2 n pi u/l)/(2 n pi).  Returns one
    float array over the boxes that meet the mode's interval, in order:
    masses[i] is the mass of box floor(interval_left / a) + i.  The masses
    sum to 1.  An interval that would span MAX_BOXES boxes or more is
    refused.
    """
    a = float(box_length)
    if a <= 0:
        raise ValueError("box_length must be positive")
    lo, l = mode.interval_left, mode.interval_length
    hi = lo + l
    if not l / a < MAX_BOXES:
        raise ValueError(f"an interval of length {l:g} spans at "
                         f"least {MAX_BOXES:g} boxes of length {a:g}")
    first = math.floor(lo / a)
    last = math.floor(hi / a)
    # boxes are half-open [a n, a (n+1)): a support ending exactly on a box
    # edge contributes nothing to the box that starts there
    if last > first and last * a >= hi:
        last -= 1
    edges = np.arange(first, last + 2) * a
    edges[0], edges[-1] = max(edges[0], lo), min(edges[-1], hi)
    # the edges lie in [lo, hi], so u >= 0; hi - lo can round past l
    u = np.minimum(edges - lo, l)
    two_n_pi = 2.0 * math.pi * mode.mode_number
    anti = u / l - np.sin(two_n_pi * u / l) / two_n_pi
    masses = anti[1:] - anti[:-1]
    # an empty box, or one whose difference rounds below 0, has mass 0.0
    masses[(u[1:] <= u[:-1]) | (masses < 0)] = 0.0
    return masses


def pule_aonghusa_bound(box_masses: np.ndarray, box_total_length: float) -> float:
    """Occupation-density bound (1/L) (sum_n sqrt(m_n))^2 from one array of box masses."""
    if not 0 < box_total_length < math.inf:
        raise ValueError("box_total_length must be positive and finite")
    m = np.asarray(box_masses, dtype=float)
    if m.ndim != 1:
        raise ValueError("box masses must be one array of masses")
    if m.size == 0:
        raise ValueError("no box masses given")
    if not np.all(m >= -1e-12):
        raise ValueError("masses must be nonnegative")
    if not abs(float(m.sum()) - 1.0) <= 1e-6:
        raise ValueError("masses must sum to 1")
    root_sum = float(np.sqrt(np.clip(m, 0.0, None)).sum())
    return root_sum ** 2 / box_total_length


def theorem33_bound(alpha: float, intensity: float, box_total_length: float,
                    box_length: float) -> float:
    """Deterministic envelope alpha^2 nu^-2 ln^2(L) / (a^2 L) for the box bound."""
    if not 4.0 < alpha < math.inf:
        raise ValueError("alpha must exceed 4 and be finite")
    if not (0 < intensity < math.inf and 0 < box_length < math.inf):
        raise ValueError("intensity and box_length must be positive and finite")
    if not 1.0 < box_total_length < math.inf:
        raise ValueError("box_total_length must exceed 1 and be finite")
    log_l = math.log(box_total_length)
    return (alpha / intensity) ** 2 * log_l ** 2 / (box_length ** 2 * box_total_length)


def critical_density(radius_sup: float) -> float:
    """Hard-core packing ceiling 1 / (2 sup_N a_N)."""
    if not 0 < radius_sup < math.inf:
        raise ValueError("radius_sup must be positive and finite")
    return 1.0 / (2.0 * radius_sup)


def box_count_criterion(support_box_count: int, particle_number: float) -> float:
    """S^2 / N for a state supported on S boxes; small values favor condensation."""
    if not support_box_count >= 1:
        raise ValueError("support_box_count must be >= 1")
    if not 0 < particle_number < math.inf:
        raise ValueError("particle_number must be positive and finite")
    return float(support_box_count) ** 2 / float(particle_number)


# ---------------------------------------------------------------------------
# scaling sequences and their diagnostics


@dataclass(frozen=True)
class PowerLogLaw:
    """Sequence c * N^p * ln(N)^q evaluated at integer or float N >= 2."""

    coefficient: float
    exponent: float
    log_exponent: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.coefficient, self.exponent, self.log_exponent))):
            raise ValueError("coefficient, exponent and log_exponent must be finite")
        if self.coefficient <= 0:
            raise ValueError("coefficient must be positive")

    def bounded_above(self) -> bool:
        return self.exponent < 0 or (self.exponent == 0 and self.log_exponent <= 0)

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        val = self.coefficient * n ** self.exponent * np.log(n) ** self.log_exponent
        return float(val) if val.ndim == 0 else val


# attribute names of the four tuning sequences a_N, A_N, b_N and eps_N
SCALING_LAWS = ("hardcore_radius", "interaction_range", "interaction_floor", "delta_width")


@dataclass(frozen=True)
class ScalingDiagnostics:
    """Diagnostic sequences on a grid, with the tail trend of each."""

    n_grid: np.ndarray
    columns: dict[str, np.ndarray]
    trends: dict[str, str]


def _tail_trend(values: np.ndarray) -> str:
    start = min(len(values) // 2, max(len(values) - 2, 0))
    tail = values[start:]
    if len(tail) < 2:
        return "flat"
    diffs = np.diff(tail)
    if np.all(diffs > 0):
        return "increasing"
    if np.all(diffs < 0):
        return "decreasing"
    if np.all(diffs == 0):
        return "flat"
    return "mixed"


def scaling_diagnostics(laws, n_grid) -> ScalingDiagnostics:
    """Evaluate the condensation-relevant combinations along a grid.

    `laws` holds the SCALING_LAWS as PowerLogLaw attributes: hard-core radius
    a_N, interaction range A_N, interaction floor b_N and soft-window width
    eps_N.  An ExperimentConfig is such an object.

    hardcore_vanishing   ln^2 N / (a_N^2 N)      must vanish
    range_growth         A_N^3 N / ln^3 N        must diverge
    floor_range_growth   b_N A_N^3 N / ln^3 N    must diverge when b_N -> 0
    delta_growth         eps_N^3 N / ln^3 N      must diverge (b_N = 1/(2 eps_N))

    A law value or a diagnostic that is not positive and finite, such as one
    that overflows on the grid, raises ValueError naming it and the N.
    """
    grid = np.asarray(list(n_grid), dtype=float)
    if grid.size < 1 or np.any(grid < 2):
        raise ValueError("n_grid entries must be >= 2")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("n_grid must be strictly increasing")
    log_n = np.log(grid)
    with np.errstate(all="ignore"):  # an overflow is refused below, by its value
        sequences = {name: getattr(laws, name)(grid) for name in SCALING_LAWS}
        a, big_a, floor, width = sequences.values()
        columns = {
            "hardcore_vanishing": log_n ** 2 / (a ** 2 * grid),
            "range_growth": big_a ** 3 * grid / log_n ** 3,
            "floor_range_growth": floor * big_a ** 3 * grid / log_n ** 3,
            "delta_growth": width ** 3 * grid / log_n ** 3,
        }
    for name, values in {**sequences, **columns}.items():
        bad = ~((values > 0) & (values < math.inf))
        if bad.any():
            raise ValueError(f"{name} is {values[bad][0]:g} at N = {grid[bad][0]:g}, "
                             "not positive and finite")
    trends = {name: _tail_trend(col) for name, col in columns.items()}
    return ScalingDiagnostics(grid, columns, trends)


# ---------------------------------------------------------------------------
# trial state energy


def transition_switch(t):
    """Smooth unit switch: exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))) on (0, 1).

    Rises from 0 at t=0 to 1 at t=1 with all derivatives vanishing at both
    ends, so a state glued from plateaus and switches stays in the form
    domain of the Hamiltonian.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    inner = (t > 0.0) & (t < 1.0)
    ti = np.where(inner, t, 0.5)
    f = np.exp(-1.0 / ti)
    g = np.exp(-1.0 / (1.0 - ti))
    out = np.where(inner, f / (f + g), out)
    return float(out) if out.ndim == 0 else out


def transition_switch_derivative(t):
    """d/dt of transition_switch; vanishes to all orders at 0 and 1."""
    t = np.asarray(t, dtype=float)
    inner = (t > 0.0) & (t < 1.0)
    ti = np.where(inner, t, 0.5)
    f = np.exp(-1.0 / ti)
    g = np.exp(-1.0 / (1.0 - ti))
    num = f * g * (1.0 / ti ** 2 + 1.0 / (1.0 - ti) ** 2)
    out = np.where(inner, num / (f + g) ** 2, 0.0)
    return float(out) if out.ndim == 0 else out


def transition_kinetic_constant() -> float:
    """Kinetic cost of one plateau state: 2 * integral of switch'(t)^2 over (0,1).

    Both switches of a plateau contribute the same integral by symmetry.
    The literal is 2 * quad(transition_switch_derivative(t)**2, 0, 1) from
    scipy.integrate (epsabs = epsrel = 1e-10, limit = 200, error estimate
    2.4e-13), fixed here so it cannot drift with the host's scipy or exp.
    """
    return 3.276541162789398


class TrialStateEnergy(NamedTuple):
    kinetic_per_particle: float
    interaction_per_particle: float
    count_q: int


def trial_state_energy(realization: DisorderRealization, particle_number: int,
                       interaction_l1_norm: float) -> TrialStateEnergy:
    """Per-particle energy pieces of the plateau trial state.

    The state puts one unit plateau with two unit switches on every interval
    of length >= 3.  With count_q such intervals, the squared norm is at
    least count_q (one unit plateau each), and that lower bound replaces the
    exact norm, so both returned pieces are upper bounds:

        kinetic      kappa * count_q / count_q = kappa
        interaction  (N-1)/2 * L * |U|_1 / count_q^2
    """
    n = int(particle_number)
    if n < 1:
        raise ValueError("particle_number must be a positive integer")
    if not 0.0 <= interaction_l1_norm < math.inf:
        raise ValueError("interaction_l1_norm must be nonnegative and finite")
    count_q = realization.long_count
    if count_q == 0:
        raise VoidTrialStateError("no interval of length >= 3 to host the trial state")
    kappa = transition_kinetic_constant()
    kinetic = kappa * count_q / count_q
    interaction = 0.5 * (n - 1) * realization.box_length * interaction_l1_norm \
        / count_q ** 2
    return TrialStateEnergy(kinetic, interaction, count_q)


# ---------------------------------------------------------------------------
# long-interval count floor


class AppendixCountResult(NamedTuple):
    count: int
    threshold: float
    passed: bool


def check_appendix_count(realization: DisorderRealization,
                         density: float) -> AppendixCountResult:
    """Floor on the number of intervals of length >= 3:

        #{l_j >= 3}  >=  nu / (4 e^{3 nu} rho) * N      with N = rho * L.
    """
    if not 0 < density < math.inf:
        raise ValueError("density must be positive and finite")
    nu = realization.intensity
    n = density * realization.box_length
    threshold = nu / (4.0 * math.exp(3.0 * nu) * density) * n
    count = realization.long_count
    return AppendixCountResult(count, threshold, count >= threshold)
