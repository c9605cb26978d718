"""lslab benchmark: time `lslab scan` end to end, or layer by layer with --trace 1.

    python3 lsbench/run.py --workload thermo-large --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; lslab is imported from its `src/`.  Each
repetition runs in a fresh interpreter (rep.py), so the peak-RSS high-water
mark and the import cache never carry over from one repetition to the next.
Repetitions of one run share one config, built from --seed, and must emit
byte-identical reports.  Repetitions start until --seconds have passed;
times are reported as medians over them.

--trace 0 prints the end-to-end metrics: scan_wall_s, cells_per_s, setup_s
and peak_rss_mb.  failed_frac is failed / attempted of the result line.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones; spans go to .lsbench/traces/.

The last line of stdout is the JSON result; the lines before it record the
machine, the inputs and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYERS
from workloads import DENSITY, INTENSITY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
# every run ends well inside the 180 s a run is allowed
HARD_LIMIT_S = 165.0
MIN_SCAN_REPS = 3
MIN_SETUP_SAMPLES = 12

END_TO_END_UNITS = {"scan_wall_s": "s", "cells_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
COUNT_UNITS = {"disorder.points": "count", "disorder.bytes": "bytes",
               "spectrum.modes": "count", "thermo.sum_terms": "count",
               "thermo.recursion_terms": "count", "bounds.boxes": "count",
               "lab.report_bytes": "bytes"}


class ChildFailed(RuntimeError):
    pass


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must fit in an unsigned 64-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _llc_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except OSError:
            return None
    return None


def _environment(workload, seed: int) -> dict:
    largest_box = max(workload.n_schedule) / DENSITY
    llc = _llc_bytes()
    # 8 bytes per point plus 24 per interval row: the realization's arrays
    cell_bytes = int(32 * INTENSITY * largest_box)
    return {
        "workload": workload.name, "seed": seed,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "llc_bytes": llc,
        "largest_cell_array_bytes": cell_bytes,
        "largest_cell_over_llc": cell_bytes / llc if llc else None,
        "n_schedule": list(workload.n_schedule),
        "realizations_per_n": workload.realizations_per_n,
        "cells": workload.cells, "beta": workload.beta,
        "workers": workload.workers, "checks": list(workload.checks),
    }


def _run_child(job: dict, deadline: float) -> dict:
    """Run rep.py in a new session; kill the whole group if it overruns.

    setup_s is the time from here, just before the interpreter starts, to
    the child's validated config (`config_at`, on the same system-wide
    monotonic clock).
    """
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(REP), json.dumps(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{job['mode']} repetition overran the run's time limit")
    finally:
        # pool workers left behind by a failed repetition die with their group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{job['mode']} repetition exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed(f"{job['mode']} repetition printed no result") from None
    if "config_at" in result:
        result["setup_s"] = result["config_at"] - started
    return result


class Run:
    """The repetitions of one benchmark run and their verification tally."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.config = work / "scan.cfg"
        self.config.write_text(workload.config_text(seed, str(work / "out")),
                               encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests = None
        self.failed_cells = 0
        self.results: list[dict] = []

    def setup_probe(self) -> dict:
        return _run_child({"mode": "setup", "config": str(self.config),
                           "out": str(self.work)}, self.deadline)

    def repetition(self, mode: str) -> dict | None:
        """One fresh-interpreter repetition, verified and tallied.

        Every repetition must emit the reports of the first byte for byte,
        so the cells recomputed independently in the first one stand for
        all of them.
        """
        index = len(self.results)
        cells = self.workload.cells
        pick = random.Random(self.seed)
        job = {"mode": mode, "config": str(self.config),
               "out": str(self.work / f"rep{index}"),
               "verify": sorted(pick.sample(range(cells), self.workload.verify_cells))
               if self.digests is None else [],
               "spans": str(ROOT / ".lsbench" / "traces" /
                            f"{self.workload.name}-seed{self.seed}-rep{index}.json")}
        self.attempted += cells
        try:
            res = _run_child(job, self.deadline)
        except ChildFailed as err:
            self.failed += cells
            self.problems.append(str(err))
            self.results.append({})
            return None
        finally:
            shutil.rmtree(self.work / f"rep{index}", ignore_errors=True)
        self.results.append(res)
        self.problems.extend(res["problems"])
        if self.digests is None:
            self.digests = res["digests"]
            self.failed_cells = len(res["failed_cells"])
        if res["digests"] != self.digests:
            self.problems.append(f"repetition {index} emitted other reports")
            self.failed += cells
        else:
            self.failed += max(self.failed_cells, len(res["failed_cells"]))
        return res

    def of(self, mode: str) -> list[dict]:
        return [r for r in self.results if r.get("mode") == mode]


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _end_to_end(run: Run, started: float, seconds: float) -> dict:
    while run.deadline - time.monotonic() > 0 and (
            len(run.results) < MIN_SCAN_REPS or time.monotonic() - started < seconds):
        run.repetition("scan")
    scans = run.of("scan")
    setups = [r["setup_s"] for r in scans]
    while len(setups) < MIN_SETUP_SAMPLES and run.deadline - time.monotonic() > 10:
        setups.append(run.setup_probe()["setup_s"])
    if not scans:
        raise ChildFailed("no scan repetition completed")
    cells = run.workload.cells
    values = {
        "scan_wall_s": _median(scans, "scan_wall_s"),
        "cells_per_s": statistics.median(cells / r["scan_wall_s"] for r in scans),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median(scans, "peak_rss_mb"),
    }
    walls = " ".join(f"{r['scan_wall_s']:.3f}" for r in scans)
    print(f"# {len(scans)} scans of {cells} cells: scan_wall_s median "
          f"{values['scan_wall_s']:.4f} s of [{walls}]; setup_s median "
          f"{values['setup_s']:.4f} s of {len(setups)} interpreters "
          f"[{' '.join(f'{v:.3f}' for v in setups)}]")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def _per_layer(run: Run, started: float, seconds: float) -> dict:
    while run.deadline - time.monotonic() > 0 and (
            not run.of("trace") or time.monotonic() - started < seconds):
        if run.repetition("scan") is None or run.repetition("trace") is None:
            break
    scans, traces = run.of("scan"), run.of("trace")
    if not scans or not traces:
        raise ChildFailed("no scan/trace repetition pair completed")
    counts = traces[0]["counts"]
    if any(t["counts"] != counts for t in traces[1:]):
        run.problems.append("work counts differ between traced repetitions")
        run.failed = run.attempted
    # one whole repetition, the median by traced wall, so that its layer
    # self times still add up to its wall time
    wall = statistics.median_low(t["trace.wall_s"] for t in traces)
    median_trace = next(t for t in traces if t["trace.wall_s"] == wall)
    values = {key: value for key, value in median_trace.items()
              if isinstance(value, float) and key.endswith(("_s", ".share"))}
    untraced_wall = _median(scans, "scan_wall_s")
    values["trace.overhead_s"] = wall - untraced_wall
    values["lab.report_bytes"] = median_trace["report_bytes"]
    values["disorder.points"] = counts["disorder.points"]
    values["disorder.bytes"] = 8 * counts["disorder.points"] + \
        24 * counts["disorder.intervals"]
    for key in ("spectrum.modes", "thermo.sum_terms", "thermo.recursion_terms",
                "bounds.boxes"):
        values[key] = counts[key]
    accounted = sum(values[f"{layer}.self_s"] for layer in LAYERS) + \
        values["lab.overhead_s"]
    if median_trace["untraced"]:
        print("# lslab.lab no longer calls, so not traced: " +
              ", ".join(median_trace["untraced"]))
    print(f"# {len(traces)} traced / {len(scans)} untraced repetitions; traced wall "
          f"{values['trace.wall_s']:.4f} s vs untraced {untraced_wall:.4f} s; "
          f"layer self times + lab.overhead_s = {accounted:.4f} s")
    for layer in LAYERS:
        print(f"#   {layer:9s} self {values[f'{layer}.self_s']:.4f} s "
              f"share {values[f'{layer}.share']:.4f}")
    metrics = {}
    for key in sorted(values):
        unit = COUNT_UNITS.get(key, "s" if key.endswith("_s") else "frac")
        metrics[key] = {"value": values[key], "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "lslab" / "__init__.py").is_file():
        print(f"error: no lslab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    work = ROOT / ".lsbench" / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    (ROOT / ".lsbench" / "traces").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    print("# env " + json.dumps(_environment(workload, args.seed)))
    run = Run(workload, args.seed, work, started + HARD_LIMIT_S)
    try:
        # compiles bytecode and warms the file cache; not measured
        run.setup_probe()
        started = time.monotonic()
        measure = _per_layer if args.trace else _end_to_end
        metrics = measure(run, started, args.seconds)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        for problem in run.problems[:20]:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    print(f"# failed_frac {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} cells)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
