"""Ensemble orchestration, deterministic reports, and the command line.

A run is described by an ExperimentConfig: one disorder ensemble per entry
of the N schedule (box length L = N / density, never stored separately),
with a fixed set of checks evaluated on every realization.  Records are
plain dicts with a stable column set, so the emitted CSV files are
byte-identical across repeated runs of the same configuration.
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

from .bounds import (PowerLogLaw, ScalingDiagnostics, ScalingSpec, VoidTrialStateError,
                     box_count_criterion, box_masses, check_appendix_count,
                     check_lemma21, critical_density, format_value,
                     pule_aonghusa_bound, scaling_diagnostics, theorem33_bound,
                     trial_state_energy)
from .disorder import EnsembleSeed, check_point_budget, realization_to_text, sample_realization
from .spectrum import (build_spectrum, default_cutoff, ground_mode,
                       spectrum_to_text)
from .thermo import (THERMO_MAX_N, condensate_profile, thermo_solution_to_text)

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
    out of range, raising ConfigError.
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

    @property
    def scaling(self) -> ScalingSpec:
        """The four laws together; raises ValueError on an unbounded radius or range."""
        return ScalingSpec(self.hardcore_radius, self.interaction_range,
                           self.interaction_floor, self.delta_width)

    def __post_init__(self) -> None:
        for key in ("intensity", "density", "beta"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite")
        try:
            self.scaling  # builds the ScalingSpec, which refuses an unbounded radius or range
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if not self.n_schedule:
            raise ConfigError("n_schedule must not be empty")
        if any(int(n) != n or n < 2 for n in self.n_schedule):
            raise ConfigError("n_schedule entries must be integers >= 2")
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

    def validate(self) -> None:
        """Refuse a schedule that the configured checks cannot run."""
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
            radius_sup = max(self.hardcore_radius(n) for n in self.n_schedule)
            try:
                ceiling = critical_density(radius_sup)  # refuses a law that overflowed
            except ValueError as err:
                raise ConfigError(f"hardcore_radius: {err}") from None
            if self.density >= ceiling:
                raise ConfigError(
                    f"density {self.density:g} exceeds the hard-core packing ceiling "
                    f"{ceiling:g}; shrink the radius or the density")


# ---------------------------------------------------------------------------
# config parsing


# int() refuses decimal strings longer than this by default; an exponent must
# not get round that and build a huge integer
_INT_MAX_DIGITS = 4300


def _as_int(value) -> int:
    """An exact integer: '1e4' is accepted because it is integral, '100.4' is not."""
    if not isinstance(value, (str, float)):
        return operator.index(value)
    try:
        number = Decimal(value)
    except InvalidOperation:
        raise ValueError(f"{value!r} is not a number") from None
    if not number.is_finite() or number != number.to_integral_value():
        raise ValueError(f"{value!r} is not an integer")
    if number.adjusted() >= _INT_MAX_DIGITS:
        raise ValueError(f"{value!r} has too many digits")
    return int(number)


def _as_int_list(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [t for t in value.split(",") if t.strip()]
    return tuple(_as_int(v) for v in value)


def _as_checks(value) -> tuple[str, ...]:
    if isinstance(value, str):
        toks = [t.strip() for t in value.split(",") if t.strip()]
    else:
        toks = list(value)
    unknown = [t for t in toks if t not in KNOWN_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    return tuple(c for c in KNOWN_CHECKS if c in toks)


def _as_law(value) -> PowerLogLaw:
    if isinstance(value, PowerLogLaw):
        return value
    parts = [float(t) for t in str(value).split(",") if t.strip()]
    if len(parts) not in (2, 3):
        raise ValueError("expected 'coefficient,exponent[,log_exponent]'")
    return PowerLogLaw(*parts)


# the parser of each field type of ExperimentConfig (its annotation, as text)
_PARSERS = {"float": float, "int": _as_int, "str": str, "tuple[int, ...]": _as_int_list,
            "tuple[str, ...]": _as_checks, "PowerLogLaw": _as_law}

_CONFIG_FIELDS = {field.name: _PARSERS[field.type] for field in fields(ExperimentConfig)}

_LAW_KEYS = tuple(key for key, parse in _CONFIG_FIELDS.items() if parse is _as_law)


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


def load_config(path: str | Path | None = None, overrides: dict | None = None,
                scan: bool = True) -> ExperimentConfig:
    """Build a validated config from an optional flat key-value file plus overrides.

    Override entries with value None are ignored, so argparse defaults can be
    passed straight through; explicit flags win over the file.  With
    scan=False only each key's own value is checked, as it is in every
    ExperimentConfig, for a caller that reads some keys but runs neither the
    schedule nor the checks.
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
    config = ExperimentConfig(**kwargs)
    if scan:
        config.validate()
    return config


# ---------------------------------------------------------------------------
# per-realization evaluation
#
# Evaluators return their values under the check's unprefixed field names.
# They look the lslab functions up as module globals at call time, so a
# caller can swap those globals (e.g. to trace them).


def _eval_lemma21(config, n, realization):
    res = check_lemma21(realization, config.lemma21_epsilon, config.lemma21_alpha)
    return {"l_max": res.l_max, "lower": res.lower_bound, "upper": res.upper_bound,
            "lower_ok": res.lower_ok, "upper_ok": res.upper_ok,
            "pass": res.lower_ok and res.upper_ok}


def _eval_appendix(config, n, realization):
    res = check_appendix_count(realization, config.density)
    return {"count": res.count, "threshold": res.threshold, "pass": res.passed}


def _eval_thermo(config, n, realization):
    cutoff = default_cutoff(realization, config.beta)
    spec = build_spectrum(realization, cutoff)
    sol = condensate_profile(spec, config.beta, n, min(config.top_k, len(spec)))
    return {"n_modes": len(spec), "energy_cutoff": cutoff,
            "log_partition": sol.log_partition,
            "condensate_occupation": float(sol.occupations[0]),
            "condensate_density": sol.condensate_density,
            "condensate_fraction": sol.condensate_fraction,
            "tail_occupation": sol.tail_occupation,
            "cutoff_converged": sol.cutoff_converged}


def _eval_hardcore(config, n, realization):
    radius = config.hardcore_radius(n)
    masses = box_masses(ground_mode(realization), radius)
    support = sum(1 for _, m in masses if m > 0.0)
    pa = pule_aonghusa_bound(masses, realization.box_length)
    t33 = theorem33_bound(config.lemma21_alpha, config.intensity,
                          realization.box_length, radius)
    return {"radius": radius, "support_boxes": support, "pa_bound": pa,
            "t33_bound": t33, "box_criterion": box_count_criterion(support, n),
            "pass": pa <= t33}


def _eval_scaling(config, n, realization):
    diag = scaling_diagnostics(config.scaling, [n])
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
    seed = EnsembleSeed(config.base_seed, idx)
    realization = sample_realization(config.intensity, n / config.density, seed)
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
    config.validate()
    n_workers = config.workers if workers is None else int(workers)
    cells = [(n, idx) for n in config.n_schedule
             for idx in range(config.realizations_per_n)]
    if n_workers > 1:
        # imported here: it loads multiprocessing, socket, subprocess and
        # logging, which a serial scan never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = {cell: pool.submit(_evaluate_cell, config, *cell)
                       for cell in cells}
            records = [futures[cell].result() for cell in cells]
    else:
        records = [_evaluate_cell(config, n, idx) for n, idx in cells]
    diag = None
    if "scaling" in config.checks:
        diag = scaling_diagnostics(config.scaling, config.n_schedule)
    return EnsembleReport(config=config, records=records, scaling=diag)


# ---------------------------------------------------------------------------
# report emission


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


def _pass_table(report: EnsembleReport) -> tuple[list[str], list[list]]:
    header = ["n", "check", "pass_fraction", "ensemble_size"]
    rows = []
    for n in report.config.n_schedule:
        group = [rec for rec in report.records if rec["n"] == n]
        for name in report.config.checks:
            check = CHECKS[name]
            if check.pass_field is None:
                continue
            flags = [bool(rec[check.prefix + check.pass_field]) for rec in group]
            rows.append([n, name, sum(flags) / len(flags), len(flags)])
    return header, rows


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
    paths = [_write_table(outdir / "summary.csv", *_summary_table(report))]
    pheader, prows = _pass_table(report)
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
    lines = []
    for name in checks:
        check = CHECKS[name]
        lines.extend(f"{name}.in.{key} = {format_value(rec[key])}" for key in _META_COLUMNS)
        lines.extend(f"{name}.{f} = {format_value(rec[check.prefix + f])}"
                     for f in check.fields if f != check.pass_field)
        if check.pass_field:
            passed = bool(rec[check.prefix + check.pass_field])
            lines.append(f"{name}.pass = {format_value(passed)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line


def _emit_text(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _config(args, scan: bool = False, **fixed) -> ExperimentConfig:
    """The config of a subcommand: its config flags, then the keys it fixes.

    Only `scan` and `bounds` run the schedule and checks, so only they pass
    scan=True; the others get the per-key checks alone.
    """
    overrides = {key: getattr(args, key, None) for key in _CONFIG_FIELDS}
    return load_config(getattr(args, "config", None), {**overrides, **fixed}, scan)


def _cmd_sample(args) -> int:
    config = _config(args)
    seed = EnsembleSeed(config.base_seed, args.index)
    r = sample_realization(config.intensity, args.box_length, seed)
    _emit_text(realization_to_text(r), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    if args.cutoff is None and args.beta is None:
        raise ValueError("provide --cutoff or --beta (for the automatic cutoff)")
    config = _config(args)
    seed = EnsembleSeed(config.base_seed, args.index)
    r = sample_realization(config.intensity, args.box_length, seed)
    cutoff = args.cutoff if args.cutoff is not None else default_cutoff(r, config.beta)
    _emit_text(spectrum_to_text(build_spectrum(r, cutoff)), args.output)
    return 0


def _cmd_occupancy(args) -> int:
    config = _config(args)
    seed = EnsembleSeed(config.base_seed, args.index)
    r = sample_realization(config.intensity, args.particles / config.density, seed)
    spec = build_spectrum(r, default_cutoff(r, config.beta))
    sol = condensate_profile(spec, config.beta, args.particles,
                             min(config.top_k, len(spec)))
    _emit_text(thermo_solution_to_text(sol), args.output)
    return 0


def _cmd_bounds(args) -> int:
    config = _config(args, scan=True, n_schedule=(args.particles,))
    rec = _evaluate_cell(config, args.particles, args.index)
    _emit_text(_cell_text(config.checks, rec), args.output)
    return 0


def _cmd_scan(args) -> int:
    config = _config(args, scan=True)
    report = run_ensemble(config)
    for path in emit_report(report, config.output_dir):
        print(path)
    return 0


def _cmd_diag(args) -> int:
    diag = scaling_diagnostics(_config(args).scaling, _as_int_list(args.n_grid))
    rows = ([int(n), *values] for n, *values in zip(diag.n_grid, *diag.columns.values()))
    lines = _csv_lines(["n", *diag.columns], rows)
    lines.extend(f"# tail trend {name} = {trend}" for name, trend in diag.trends.items())
    _emit_text("\n".join(lines) + "\n", args.output)
    return 0


# config keys that only a whole scan uses; `bounds` evaluates one realization
_SCAN_ONLY_KEYS = ("n_schedule", "realizations_per_n", "output_dir", "workers")

_FLAG_HELP = {
    "density": "particle density; the box length is N/density",
    "n_schedule": "comma list of particle numbers, strictly increasing",
    "base_seed": "ensemble base seed",
    "checks": "comma list from: " + ", ".join(KNOWN_CHECKS),
    "workers": "process count for the realization fan-out",
    "hardcore_radius": "hard-core radius sequence c*N^p*ln(N)^q",
}


_INDEX_HELP = "realization index within the ensemble (default 0)"


def _add_config_flags(parser, keys) -> None:
    """--key-with-dashes for each config key; its value stays a string for load_config."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            metavar="C,P[,Q]" if key in _LAW_KEYS else None,
                            help=_FLAG_HELP.get(key))


def _build_parser() -> argparse.ArgumentParser:
    # imported here, so that `import lslab` does not load it
    import argparse
    parser = argparse.ArgumentParser(
        prog="lslab",
        description="Point-disorder Bose gas laboratory: sampling, spectra, "
                    "exact canonical occupations, and condensation bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one disorder realization")
    _add_config_flags(p, ("intensity", "base_seed"))
    p.add_argument("--box-length", type=float, required=True)
    p.add_argument("--index", type=_as_int, default=0, help=_INDEX_HELP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="modes of one realization up to a cutoff")
    _add_config_flags(p, ("intensity", "beta", "base_seed"))
    p.add_argument("--box-length", type=float, required=True)
    p.add_argument("--cutoff", type=float, default=None,
                   help="energy cutoff; omit to derive it from --beta")
    p.add_argument("--index", type=_as_int, default=0, help=_INDEX_HELP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "occupancy",
        help=f"exact canonical occupations (O(N^2), capped at N={THERMO_MAX_N})")
    _add_config_flags(p, ("intensity", "density", "beta", "base_seed", "top_k"))
    p.add_argument("--particles", type=_as_int, required=True)
    p.add_argument("--index", type=_as_int, default=0, help=_INDEX_HELP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_occupancy)

    p = sub.add_parser("bounds", help="evaluate checks on one realization")
    p.add_argument("--config", default=None, help="flat key=value config file")
    _add_config_flags(p, [k for k in _CONFIG_FIELDS if k not in _SCAN_ONLY_KEYS])
    p.add_argument("--particles", type=_as_int, required=True)
    p.add_argument("--index", type=_as_int, default=0, help=_INDEX_HELP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("scan", help="run a full ensemble and write CSV reports")
    p.add_argument("--config", default=None, help="flat key=value config file")
    _add_config_flags(p, _CONFIG_FIELDS)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("diag", help="scaling diagnostics only, no sampling")
    p.add_argument("--n-grid", required=True,
                   help="comma list of sizes, e.g. 1e2,1e4,1e6,1e8")
    _add_config_flags(p, _LAW_KEYS)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
