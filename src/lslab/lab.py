"""Ensemble orchestration, deterministic reports, and the command line.

A run is described by an ExperimentConfig: one disorder ensemble per entry
of the N schedule (box length L = N / density, never stored separately),
with a fixed set of checks evaluated on every realization.  Records are
plain dicts with a stable column set, so the emitted CSV files are
byte-identical across repeated runs of the same configuration.

The other modules return numbers; this one alone writes text, every value
through format_value: booleans as 0/1, integers as they are, and reals at
17 significant digits, which read back to the same float.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .bounds import (MAX_BOXES, SCALING_LAWS, PowerLogLaw, ScalingDiagnostics,
                     VoidTrialStateError, box_count_criterion, box_masses,
                     check_appendix_count, check_lemma21, critical_density,
                     pule_aonghusa_bound, scaling_diagnostics, theorem33_bound,
                     trial_state_energy)
from .disorder import (EnsembleSeed, _sample_on_one_thread, check_point_budget,
                       sample_realization)
from .spectrum import build_spectrum, default_cutoff, ground_mode
from .thermo import THERMO_MAX_N, condensate_profile

if TYPE_CHECKING:
    import argparse

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EnsembleReport",
    "KNOWN_CHECKS",
    "load_config",
    "run_ensemble",
    "emit_report",
    "main",
]


class ConfigError(ValueError):
    """The experiment configuration is inconsistent or unsupported."""


_META_COLUMNS = ("n", "realization_index", "base_seed", "box_length")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a scan needs; box lengths are always derived as N / density.

    The fields are the config schema: each is a config-file key and a flag,
    parsed by its type.  Building a config refuses any key whose own value is
    out of range, raising ConfigError, and puts `checks` in registry order,
    each name once.
    """

    intensity: float = 1.0
    density: float = 1.0
    beta: float = 1.0
    n_schedule: tuple[int, ...] = (1000,)
    realizations_per_n: int = 8
    base_seed: int = 20260814
    top_k: int = 8
    checks: tuple[str, ...] = ("lemma21",)
    output_dir: str = "lslab-out"
    lemma21_epsilon: float = 0.5
    lemma21_alpha: float = 5.0
    interaction_l1_norm: float = 1.0
    workers: int = 1
    hardcore_radius: PowerLogLaw = PowerLogLaw(1.0, -0.25)
    interaction_range: PowerLogLaw = PowerLogLaw(1.0, -0.2)
    interaction_floor: PowerLogLaw = PowerLogLaw(1.0, 0.0)
    delta_width: PowerLogLaw = PowerLogLaw(1.0, -0.2)

    def __post_init__(self) -> None:
        for key in ("intensity", "density", "beta"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite")
        for key in ("hardcore_radius", "interaction_range"):
            if not getattr(self, key).bounded_above():
                raise ConfigError(f"{key} must stay bounded above")
        if not self.n_schedule:
            raise ConfigError("n_schedule must not be empty")
        if any(not 2 <= n <= sys.float_info.max or int(n) != n for n in self.n_schedule):
            raise ConfigError("n_schedule entries must be integers >= 2 within the float range")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ConfigError("n_schedule must be strictly increasing")
        if self.realizations_per_n < 1:
            raise ConfigError("realizations_per_n must be >= 1")
        if not 0 <= self.base_seed < 2 ** 64:
            raise ConfigError("base_seed must lie in [0, 2**64)")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # refused even when the check that reads them is off
        if not 0.0 < self.lemma21_epsilon < 1.0:
            raise ConfigError("lemma21_epsilon must lie in (0, 1)")
        if not 4.0 < self.lemma21_alpha < math.inf:
            raise ConfigError("lemma21_alpha must exceed 4 and be finite")
        if not 0.0 <= self.interaction_l1_norm < math.inf:
            raise ConfigError("interaction_l1_norm must be nonnegative and finite")
        if not self.checks:
            raise ConfigError("no checks configured")
        unknown = [c for c in self.checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {', '.join(unknown)}")
        object.__setattr__(self, "checks", tuple(c for c in KNOWN_CHECKS if c in self.checks))

    def validate(self) -> ScalingDiagnostics | None:
        """Refuse a schedule that the configured checks cannot run.

        Returns the scaling check's diagnostics over the schedule, or None.
        """
        try:
            check_point_budget(self.intensity, max(self.n_schedule) / self.density)
        except ValueError as err:
            raise ConfigError(f"largest N = {max(self.n_schedule)}: {err}") from None
        if "lemma21" in self.checks and self.n_schedule[0] / self.density <= math.e:
            raise ConfigError("lemma21 needs box lengths above e; raise N or lower density")
        if "thermo" in self.checks and max(self.n_schedule) > THERMO_MAX_N:
            raise ConfigError(
                f"thermo check is O(N^2) and capped at N={THERMO_MAX_N}; trim the "
                "schedule or drop the thermo check for the largest sizes")
        if "hardcore_bound" in self.checks:
            with np.errstate(over="ignore"):
                radii = [self.hardcore_radius(n) for n in self.n_schedule]
            for n, radius in zip(self.n_schedule, radii):
                # the check lays boxes of this width over the longest interval,
                # which is at least the mean one, about 1/intensity
                if not radius * self.intensity * MAX_BOXES >= 1:
                    raise ConfigError(
                        f"hardcore_radius is {radius:g} at N = {n:g}; it must be "
                        f"positive, with at most {MAX_BOXES:g} boxes of that width "
                        "on the mean interval 1/intensity")
            try:
                ceiling = critical_density(max(radii))  # refuses a law that overflowed
            except ValueError as err:
                raise ConfigError(f"hardcore_radius: {err}") from None
            if self.density >= ceiling:
                raise ConfigError(
                    f"density {self.density:g} exceeds the hard-core packing ceiling "
                    f"{ceiling:g}; shrink the radius or the density")
        if "scaling" in self.checks:
            try:
                return scaling_diagnostics(self, self.n_schedule)
            except ValueError as err:
                raise ConfigError(str(err)) from None
        return None


# ---------------------------------------------------------------------------
# config parsing


def _as_int(value) -> int:
    """An exact integer: '1e4' is accepted because it is integral, '100.4' is not.

    It must not pass the largest float: every integer read here is a size, a
    count, an index or a seed, which the program also computes with as a
    float, and an exponent must not build a huge integer.
    """
    if not isinstance(value, (str, float)):
        number = operator.index(value)
        if abs(number) > sys.float_info.max:
            raise ValueError(f"an integer of {number.bit_length()} bits is too large for a float")
        return number
    try:
        number = Decimal(value)
    except InvalidOperation:
        raise ValueError(f"{value!r} is not a number") from None
    if not number.is_finite() or number != number.to_integral_value():
        raise ValueError(f"{value!r} is not an integer")
    if abs(number) > sys.float_info.max:
        raise ValueError(f"{value!r} has too many digits for a float")
    return int(number)


def _comma_list(value) -> tuple:
    """The nonblank entries of a comma list, stripped; a sequence as it is."""
    if isinstance(value, str):
        return tuple(t.strip() for t in value.split(",") if t.strip())
    return tuple(value)


def _as_int_list(value) -> tuple[int, ...]:
    return tuple(_as_int(v) for v in _comma_list(value))


def _as_law(value) -> PowerLogLaw:
    parts = [float(t) for t in _comma_list(str(value))]
    if len(parts) not in (2, 3):
        raise ValueError("expected 'coefficient,exponent[,log_exponent]'")
    return PowerLogLaw(*parts)


# the parser of each field type of ExperimentConfig (its annotation, as text)
_PARSERS = {"float": float, "int": _as_int, "str": str, "tuple[int, ...]": _as_int_list,
            "tuple[str, ...]": _comma_list, "PowerLogLaw": _as_law}

_CONFIG_FIELDS = {field.name: _PARSERS[field.type] for field in fields(ExperimentConfig)}


def _parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional flat key-value file plus overrides.

    Override entries with value None are ignored, so argparse defaults can be
    passed straight through; explicit flags win over the file.  Each key's
    own value is checked, as it is in every ExperimentConfig; the schedule is
    checked against the checks by validate(), where a schedule runs.
    """
    raw: dict = {}
    if path is not None:
        raw.update(_parse_config_text(Path(path).read_text(encoding="utf-8")))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        try:
            kwargs[key] = _CONFIG_FIELDS[key](value)
        except ValueError as err:
            raise ConfigError(f"bad value for {key}: {err}") from None
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# per-realization evaluation
#
# Evaluators return their values under the check's unprefixed field names.
# They look the lslab functions up as module globals at call time, so a
# caller can swap those globals (e.g. to trace them).


def _realization(config, box_length, index):
    seed = EnsembleSeed(config.base_seed, index)
    return sample_realization(config.intensity, box_length, seed)


def _eval_lemma21(config, n, realization):
    res = check_lemma21(realization, config.lemma21_epsilon, config.lemma21_alpha)
    return {"l_max": res.l_max, "lower": res.lower_bound, "upper": res.upper_bound,
            "lower_ok": res.lower_ok, "upper_ok": res.upper_ok,
            "pass": res.lower_ok and res.upper_ok}


def _eval_appendix(config, n, realization):
    res = check_appendix_count(realization, config.density)
    return {"count": res.count, "threshold": res.threshold, "pass": res.passed}


def _thermo(config, n, realization):
    spec = build_spectrum(realization, default_cutoff(realization, config.beta))
    return spec, condensate_profile(spec, config.beta, n, min(config.top_k, len(spec)))


def _eval_thermo(config, n, realization):
    spec, sol = _thermo(config, n, realization)
    return {"n_modes": len(spec), "energy_cutoff": spec.energy_cutoff,
            "log_partition": sol.log_partition,
            "condensate_occupation": float(sol.occupations[0]),
            "condensate_density": sol.condensate_density,
            "condensate_fraction": sol.condensate_fraction,
            "tail_occupation": sol.tail_occupation,
            "cutoff_converged": sol.cutoff_converged}


def _eval_hardcore(config, n, realization):
    radius = config.hardcore_radius(n)
    masses = box_masses(ground_mode(realization), radius)
    support = np.count_nonzero(masses > 0.0)
    pa = pule_aonghusa_bound(masses, realization.box_length)
    t33 = theorem33_bound(config.lemma21_alpha, config.intensity,
                          realization.box_length, radius)
    return {"radius": radius, "support_boxes": support, "pa_bound": pa,
            "t33_bound": t33, "box_criterion": box_count_criterion(support, n),
            "pass": pa <= t33}


def _eval_scaling(config, n, realization):
    diag = scaling_diagnostics(config, [n])
    return {name: float(col[0]) for name, col in diag.columns.items()}


def _eval_trial(config, n, realization):
    try:
        res = trial_state_energy(realization, n, config.interaction_l1_norm)
    except VoidTrialStateError:
        nan = float("nan")
        return {"count_q": 0, "kinetic_pp": nan, "interaction_pp": nan,
                "defined": False}
    return {"count_q": res.count_q, "kinetic_pp": res.kinetic_per_particle,
            "interaction_pp": res.interaction_per_particle, "defined": True}


@dataclass(frozen=True)
class Check:
    """One check: its record columns (prefix + field), its flags, and its evaluator.

    Flags are summarized as fractions; pass_field, when set, is the flag that
    gives the check's verdict in the pass-fraction table.
    """

    name: str
    prefix: str
    fields: tuple[str, ...]
    flags: frozenset[str]
    pass_field: str | None
    evaluate: Callable


CHECKS = {check.name: check for check in (
    Check("lemma21", "lemma21_",
          ("l_max", "lower", "upper", "lower_ok", "upper_ok", "pass"),
          frozenset({"lower_ok", "upper_ok", "pass"}), "pass", _eval_lemma21),
    Check("appendix", "appendix_", ("count", "threshold", "pass"),
          frozenset({"pass"}), "pass", _eval_appendix),
    Check("thermo", "thermo_",
          ("n_modes", "energy_cutoff", "log_partition", "condensate_occupation",
           "condensate_density", "condensate_fraction", "tail_occupation",
           "cutoff_converged"),
          frozenset({"cutoff_converged"}), "cutoff_converged", _eval_thermo),
    Check("hardcore_bound", "hardcore_",
          ("radius", "support_boxes", "pa_bound", "t33_bound", "box_criterion", "pass"),
          frozenset({"pass"}), "pass", _eval_hardcore),
    Check("scaling", "scaling_",
          ("hardcore_vanishing", "range_growth", "floor_range_growth", "delta_growth"),
          frozenset(), None, _eval_scaling),
    Check("trial_energy", "trial_",
          ("count_q", "kinetic_pp", "interaction_pp", "defined"),
          frozenset({"defined"}), "defined", _eval_trial),
)}

KNOWN_CHECKS = tuple(CHECKS)


def _evaluate_cell(config: ExperimentConfig, n: int, idx: int) -> dict:
    """All configured checks on realization (base_seed, idx) at size N=n.

    A check that raises is re-raised as a RuntimeError naming the cell.
    """
    realization = _realization(config, n / config.density, idx)
    rec: dict = {"n": n, "realization_index": idx, "base_seed": config.base_seed,
                 "box_length": realization.box_length}
    for name in config.checks:
        check = CHECKS[name]
        try:
            values = check.evaluate(config, n, realization)
        except Exception as err:
            raise RuntimeError(
                f"N={n}, realization {idx}, base_seed {config.base_seed}: "
                f"check {name} failed: {err!r}") from err
        rec.update((check.prefix + f, values[f]) for f in check.fields)
    return rec


def _value_columns(checks) -> list[tuple[str, bool]]:
    """(column, is_flag) for every column of the given checks, in registry order."""
    return [(check.prefix + f, f in check.flags) for check in CHECKS.values()
            if check.name in checks for f in check.fields]


@dataclass(frozen=True)
class EnsembleReport:
    """Full record set of one scan plus optional scaling diagnostics."""

    config: ExperimentConfig
    records: list[dict]
    scaling: ScalingDiagnostics | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        """The record columns: the meta columns, then those of each configured check."""
        return _META_COLUMNS + tuple(col for col, _ in _value_columns(self.config.checks))


def run_ensemble(config: ExperimentConfig, workers: int | None = None) -> EnsembleReport:
    """Evaluate every (N, realization) cell; deterministic record order.

    Cells are independent, so they can be fanned out over processes; results
    are merged back in schedule order regardless of completion order.
    """
    diag = config.validate()
    n_workers = config.workers if workers is None else int(workers)
    cells = [(n, idx) for n in config.n_schedule
             for idx in range(config.realizations_per_n)]
    if n_workers > 1:
        # imported here: it loads multiprocessing, socket, subprocess and
        # logging, which a serial scan never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers,
                                 initializer=_sample_on_one_thread) as pool:
            futures = {cell: pool.submit(_evaluate_cell, config, *cell)
                       for cell in cells}
            records = [futures[cell].result() for cell in cells]
    else:
        records = [_evaluate_cell(config, n, idx) for n, idx in cells]
    return EnsembleReport(config=config, records=records, scaling=diag)


# ---------------------------------------------------------------------------
# text forms and report emission


def format_value(value) -> str:
    """Deterministic text form: booleans as 0/1, reals at 17 significant digits."""
    if isinstance(value, float):  # the common case; np.float64 is a float, a bool is not
        return f"{value:.17g}"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return f"{float(value):.17g}"
    return str(value)


def _key_lines(values: dict) -> list[str]:
    """One `key = value` line per entry, in order."""
    return [f"{key} = {format_value(value)}" for key, value in values.items()]


def _aggregate(values: np.ndarray) -> tuple[float, float, float, float]:
    """NaN-skipping mean, median, 5% and 95% quantile.

    The median and the quantiles are np.nanmedian's and np.nanquantile's
    (method "linear") to the bit, signed zeros included: the same NaN
    removal, the same partitions, the same arithmetic.  They are written out
    because those two functions import numpy.ma on first use.
    """
    nan = np.isnan(values)
    gaps = np.flatnonzero(nan)
    kept = values
    if gaps.size:
        # numpy's order: NaN slots are filled from the end, the end dropped
        kept = values.copy()
        tail = kept[-gaps.size:][~nan[-gaps.size:]]
        kept[gaps[:tail.size]] = tail
        kept = kept[:-gaps.size]
    if kept.size == 0:
        return math.nan, math.nan, math.nan, math.nan
    half = kept.size // 2
    middle = [half - 1, half] if kept.size % 2 == 0 else [half]
    median = np.mean(np.partition(kept, middle + [-1])[middle[0]:half + 1])
    return (float(np.nanmean(values)), float(median),
            _quantile(kept, 0.05), _quantile(kept, 0.95))


def _quantile(kept: np.ndarray, q: float) -> float:
    """np.quantile(kept, q), method "linear", for NaN-free kept."""
    index = (kept.size - 1) * q
    below = math.floor(index)
    if index >= kept.size - 1:
        # numpy reads the last value on both sides, at weight index + 1
        below = above = -1
    else:
        above = below + 1
    part = np.partition(kept, sorted({0, -1, below, above}))
    low, high = part[below], part[above]
    weight = index - below
    diff = high - low
    if weight >= 0.5:
        return float(high - diff * (1 - weight))
    return float(low + diff * weight)


def _summary_table(report: EnsembleReport) -> tuple[list[str], list[list]]:
    header = ["n", "ensemble_size"]
    value_cols = _value_columns(report.config.checks)
    for col, is_flag in value_cols:
        if is_flag:
            header.append(f"{col}_fraction")
        else:
            header.extend(f"{col}{s}" for s in ("_mean", "_median", "_q05", "_q95"))
    rows = []
    for n in report.config.n_schedule:
        group = [rec for rec in report.records if rec["n"] == n]
        row: list = [n, len(group)]
        for col, is_flag in value_cols:
            vals = np.array([float(rec[col]) for rec in group], dtype=float)
            if is_flag:
                row.append(float(vals.mean()))
            else:
                row.extend(_aggregate(vals))
        rows.append(row)
    return header, rows


def _pass_table(checks, header, rows) -> tuple[list[str], list[list]]:
    """Each verdict's fraction per N, read from the summary table's rows."""
    verdicts = [(name, header.index(f"{CHECKS[name].prefix}{CHECKS[name].pass_field}_fraction"))
                for name in checks if CHECKS[name].pass_field is not None]
    return (["n", "check", "pass_fraction", "ensemble_size"],
            [[row[0], name, row[col], row[1]] for row in rows for name, col in verdicts])


def _csv_lines(header, rows) -> list[str]:
    return [",".join(header), *(",".join(map(format_value, row)) for row in rows)]


def _write_table(path: Path, header, rows) -> Path:
    path.write_text("\n".join(_csv_lines(header, rows)) + "\n", encoding="utf-8")
    return path


def emit_report(report: EnsembleReport, output_dir: str | Path) -> list[Path]:
    """Write the report as comma-separated files; returns the paths written.

    summary.csv, then pass_fractions.csv when a configured check has a
    verdict, then scaling_trends.csv when the scaling check is on, then
    records.csv.  Emission is pure formatting: running the same
    configuration twice yields byte-identical files.
    """
    if not report.records:
        raise ValueError("report has no records")
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    header, rows = _summary_table(report)
    paths = [_write_table(outdir / "summary.csv", header, rows)]
    pheader, prows = _pass_table(report.config.checks, header, rows)
    if prows:
        paths.append(_write_table(outdir / "pass_fractions.csv", pheader, prows))
    if report.scaling is not None:
        paths.append(_write_table(outdir / "scaling_trends.csv",
                                  ["diagnostic", "tail_trend"],
                                  report.scaling.trends.items()))
    columns = report.columns
    records = ([rec[c] for c in columns] for rec in report.records)
    paths.append(_write_table(outdir / "records.csv", columns, records))
    return paths


def _cell_text(checks, rec: dict) -> str:
    """One cell's record as `check.key = value` lines, grouped by check.

    Each check repeats the meta columns as `check.in.key`, then lists its
    fields, with its verdict (if any) last as `check.pass`.
    """
    values = {}
    for name in checks:
        check = CHECKS[name]
        values.update((f"{name}.in.{key}", rec[key]) for key in _META_COLUMNS)
        values.update((f"{name}.{f}", rec[check.prefix + f])
                      for f in check.fields if f != check.pass_field)
        if check.pass_field:
            values[f"{name}.pass"] = bool(rec[check.prefix + check.pass_field])
    return "\n".join(_key_lines(values)) + "\n"


# ---------------------------------------------------------------------------
# command line


def _config(args, **fixed) -> ExperimentConfig:
    """The config of a subcommand: its config flags, then the keys it fixes.

    Only the keys are checked here; `scan` and `bounds` run a schedule, so
    they check it against the checks through validate().
    """
    overrides = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
    return load_config(getattr(args, "config", None), {**overrides, **fixed})


def _cmd_sample(args) -> str:
    """The realization's header, whose seed replays it, then one point per line."""
    config = _config(args)
    r = _realization(config, args.box_length, args.index)
    lines = ["# disorder realization", *_key_lines({
        "intensity": r.intensity, "box_length": r.box_length,
        "base_seed": r.seed_info.base_seed,
        "realization_index": r.seed_info.realization_index, "n_points": r.n_points})]
    lines.extend(map(format_value, r.points.tolist()))
    return "\n".join(lines) + "\n"


def _cmd_spectrum(args) -> str:
    if args.cutoff is None and args.beta is None:
        raise ValueError("provide --cutoff or --beta (for the automatic cutoff)")
    config = _config(args)
    r = _realization(config, args.box_length, args.index)
    cutoff = args.cutoff if args.cutoff is not None else default_cutoff(r, config.beta)
    s = build_spectrum(r, cutoff)
    # the rows _csv_lines would write, with one format_value per row: the indices are ints
    rows = zip(map(format_value, s.energies.tolist()), s.interval_indices.tolist(),
               s.mode_numbers.tolist())
    return "\n".join(["energy,interval_index,mode_number",
                      *(f"{e},{j},{n}" for e, j, n in rows)]) + "\n"


def _cmd_occupancy(args) -> str:
    config = _config(args)
    r = _realization(config, args.particles / config.density, args.index)
    _, sol = _thermo(config, args.particles, r)
    lines = ["# thermo solution", *_key_lines({
        "beta": sol.beta, "particle_number": sol.particle_number,
        "box_length": sol.box_length, "log_partition": sol.log_partition,
        "condensate_density": sol.condensate_density,
        "condensate_fraction": sol.condensate_fraction,
        "tail_occupation": sol.tail_occupation, "cutoff_converged": sol.cutoff_converged,
        "occupations": ",".join(map(format_value, sol.occupations.tolist()))})]
    return "\n".join(lines) + "\n"


def _cmd_bounds(args) -> str:
    config = _config(args, n_schedule=(args.particles,))
    config.validate()
    rec = _evaluate_cell(config, args.particles, args.index)
    return _cell_text(config.checks, rec)


def _cmd_scan(args) -> str:
    config = _config(args)
    report = run_ensemble(config)
    return "".join(f"{path}\n" for path in emit_report(report, config.output_dir))


def _cmd_diag(args) -> str:
    diag = scaling_diagnostics(_config(args), _as_int_list(args.n_grid))
    rows = ([int(n), *values] for n, *values in zip(diag.n_grid, *diag.columns.values()))
    lines = _csv_lines(["n", *diag.columns], rows)
    lines.extend(f"# tail trend {name} = {trend}" for name, trend in diag.trends.items())
    return "\n".join(lines) + "\n"


_FLAG_HELP = {
    "density": "particle density; the box length is N/density",
    "n_schedule": "comma list of particle numbers, strictly increasing",
    "base_seed": "ensemble base seed",
    "checks": "comma list from: " + ", ".join(KNOWN_CHECKS),
    "workers": "process count for the realization fan-out",
    "hardcore_radius": "hard-core radius sequence c*N^p*ln(N)^q",
}


def _integer(value: str) -> int:
    """_as_int for argparse, which would word a ValueError as "invalid ... value"."""
    import argparse  # loaded already: only a parser calls this
    try:
        return _as_int(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


# every argument that is not a config key: its flags and add_argument keywords
_ARGUMENTS = {
    "config": (("--config",), dict(help="flat key=value config file")),
    "box_length": (("--box-length",), dict(type=float, required=True)),
    "cutoff": (("--cutoff",), dict(type=float,
                                   help="energy cutoff; omit to derive it from --beta")),
    "particles": (("--particles",), dict(type=_integer, required=True)),
    "index": (("--index",), dict(type=_integer, default=0,
                                 help="realization index within the ensemble (default 0)")),
    "n_grid": (("--n-grid",), dict(required=True,
                                   help="comma list of sizes, e.g. 1e2,1e4,1e6,1e8")),
    "output": (("-o", "--output"), {}),
}

# each subcommand: its help, the config keys it takes as flags, its other arguments
# and its function; `bounds` evaluates one realization, so it takes no scan-only key
_COMMANDS = {
    "sample": ("draw one disorder realization", ("intensity", "base_seed"),
               ("box_length", "index", "output"), _cmd_sample),
    "spectrum": ("modes of one realization up to a cutoff", ("intensity", "beta", "base_seed"),
                 ("box_length", "cutoff", "index", "output"), _cmd_spectrum),
    "occupancy": (f"exact canonical occupations (O(N^2), capped at N={THERMO_MAX_N})",
                  ("intensity", "density", "beta", "base_seed", "top_k"),
                  ("particles", "index", "output"), _cmd_occupancy),
    "bounds": ("evaluate checks on one realization",
               tuple(key for key in _CONFIG_FIELDS if key not in
                     ("n_schedule", "realizations_per_n", "output_dir", "workers")),
               ("config", "particles", "index", "output"), _cmd_bounds),
    "scan": ("run a full ensemble and write CSV reports", tuple(_CONFIG_FIELDS),
             ("config",), _cmd_scan),
    "diag": ("scaling diagnostics only, no sampling", SCALING_LAWS,
             ("n_grid", "output"), _cmd_diag),
}


def _build_parser() -> argparse.ArgumentParser:
    # imported here, so that `import lslab` does not load it
    import argparse

    parser = argparse.ArgumentParser(
        prog="lslab",
        description="Point-disorder Bose gas laboratory: sampling, spectra, "
                    "exact canonical occupations, and condensation bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys, others, func) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in keys:
            # --key-with-dashes; its value stays a string for load_config
            p.add_argument("--" + key.replace("_", "-"), help=_FLAG_HELP.get(key),
                           metavar="C,P[,Q]" if key in SCALING_LAWS else None)
        for name in others:
            flags, options = _ARGUMENTS[name]
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; its text goes to its -o file, or else to stdout."""
    args = _build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if getattr(args, "output", None):
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # `python -m lslab.lab` would run a second copy of this module
    print("error: run the command line as `python -m lslab` (or `lslab`), "
          "not `python -m lslab.lab`", file=sys.stderr)
    raise SystemExit(2)
