"""One benchmark repetition in a fresh interpreter; prints one JSON line.

    python3 rep.py '<job json>'

The job names a mode:
  setup  import lslab and load the config (setup_s only);
  scan   load_config -> run_ensemble -> emit_report, untraced;
  trace  the same scan with a span around each public call (tracing.py).

The result holds `config_at`, the system-wide monotonic clock right after
load_config returns; the parent subtracts the moment it started this
interpreter, so setup_s covers interpreter start, `import lslab` and
`load_config`.  scan_wall_s runs from load_config to the end of
emit_report.  Peak RSS is read before verification starts.  Verification
(a second emit, independent recomputation of a subsample of cells) runs
after every timer has stopped.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _digests(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


def _report_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus, with a pool, workers x the largest worker.

    Pool workers have exited by the time emit_report returns.  Shared pages
    count once per process, so with workers > 1 this is an upper bound on
    the summed peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * kids if workers > 1 else 0)) / 1024.0


def _verify(lslab, config, out: Path, sample: list[int]) -> dict:
    """Recompute the sampled cells of the emitted records independently."""
    from verify import check_cell, read_records

    rows = read_records(out / "records.csv")
    problems: list[str] = []
    failed = []
    for i in sample:
        row = rows[i]
        seed = lslab.EnsembleSeed(config.base_seed, int(row["realization_index"]))
        r = lslab.sample_realization(config.intensity, float(row["box_length"]), seed)
        bad = check_cell(row, r.points, config.beta)
        if bad:
            failed.append(i)
            problems.extend(f"cell {row['n']}:{row['realization_index']}: {p}"
                            for p in bad)
    return {"cells": len(rows), "failed_cells": failed, "problems": problems}


def main() -> int:
    job = json.loads(sys.argv[1])
    out = Path(job["out"])
    import lslab
    t_imported = time.perf_counter()
    if not Path(lslab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lslab was imported from {lslab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    result: dict = {"mode": job["mode"]}
    if job["mode"] == "setup":
        lslab.load_config(job["config"])
        result["config_at"] = time.monotonic()
    elif job["mode"] == "scan":
        config = lslab.load_config(job["config"])
        result["config_at"] = time.monotonic()
        report = lslab.run_ensemble(config)
        paths = lslab.emit_report(report, out)
        t_emit = time.perf_counter()
        result.update(
            scan_wall_s=t_emit - t_imported, peak_rss_mb=_peak_rss_mb(config.workers),
            digests=_digests(paths), report_bytes=_report_bytes(paths))
        result.update(_verify(lslab, config, out, job["verify"]))
        again = lslab.emit_report(report, out / "again")
        if _digests(again) != result["digests"]:
            result["problems"].append("a second emit of the same report differs")
            result["failed_cells"] = list(range(result["cells"]))
    else:
        from tracing import Tracer, layer_metrics, probe_thermo, trace_scan
        tracer = Tracer()
        config, paths = trace_scan(lslab, job["config"], str(out), tracer)
        thermo_times, thermo_counts = probe_thermo(lslab, tracer.thermo_inputs)
        result.update(layer_metrics(tracer.spans), **thermo_times,
                      counts=dict(tracer.counts, **thermo_counts),
                      untraced=tracer.untraced, digests=_digests(paths),
                      report_bytes=_report_bytes(paths))
        result.update(_verify(lslab, config, out, job["verify"]))
        Path(job["spans"]).write_text(json.dumps(tracer.as_dicts()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
