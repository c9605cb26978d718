"""The benchmark's own test: python3 -m pytest lsbench

Most tests run the benchmark through its command line on many-small (the
workload that exercises all five layers), with one-second runs.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from tracing import LAYERS
from verify import dirichlet_levels, interval_lengths, log_partition

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

COUNTS = ("disorder.points", "disorder.bytes", "spectrum.modes",
          "thermo.sum_terms", "thermo.recursion_terms", "bounds.boxes")


def _bench(seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "lsbench/run.py", "--workload", "many-small", "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return [_result(_bench(seed=5, trace=1)) for _ in range(2)]


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_traced_run_prints_the_declared_per_layer_metrics(traced_twice):
    for result in traced_twice:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            _declared("per_layer")


def test_counts_repeat_exactly(traced_twice):
    first, second = (r["metrics"] for r in traced_twice)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_traced_metrics_are_sane(traced_twice):
    for result in traced_twice:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        times = {k: v for k, v in m.items() if k.endswith(("_s", ".share"))
                 and k != "trace.overhead_s"}
        assert all(v >= 0 for v in times.values()), times
        # many-small calls thermo on every cell, so every part of it is timed
        for part in ("sums", "recursion", "occupation"):
            assert m[f"thermo.{part}_s"] > 0, part
        # lab.py's own work between the calls is a small part of the scan
        assert m["lab.overhead_s"] < 0.25 * m["trace.wall_s"]
        # sanity check on layer_metrics: self times telescope to the wall
        accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["lab.overhead_s"]
        assert math.isclose(accounted, m["trace.wall_s"], rel_tol=1e-9)


def test_traced_scan_spans_nest_and_name_their_cells(tmp_path):
    import lslab
    from tracing import CALLS, Tracer, layer_metrics, probe_thermo, trace_scan
    from workloads import WORKLOADS
    workload = replace(WORKLOADS["many-small"], n_schedule=(100, 200),
                       realizations_per_n=3)
    config_path = tmp_path / "scan.cfg"
    config_path.write_text(workload.config_text(7, str(tmp_path / "out")))
    tracer = Tracer()
    config, paths = trace_scan(lslab, str(config_path), str(tmp_path / "traced"),
                               tracer)

    # the shims are gone and the traced scan emitted the untraced bytes
    assert all(getattr(lslab.lab, name) is getattr(lslab, name) for name in CALLS)
    assert tracer.untraced == []
    plain = lslab.emit_report(lslab.run_ensemble(config, workers=1), tmp_path / "plain")
    assert [p.read_bytes() for p in plain] == [p.read_bytes() for p in paths]

    spans = tracer.spans
    assert [s[0] for s in spans if s[3] is None] == ["lab.scan"]
    for name, start, end, parent, _ in spans:
        assert end >= start, name
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2], name
    run = next(i for i, s in enumerate(spans) if s[0] == "lab.run")
    calls = [s for s in spans if s[3] == run]
    assert {s[0] for s in calls} <= set(CALLS.values())
    cells = {(n, i) for n in (100, 200) for i in range(3)}
    assert {s[4] for s in calls} == cells | {None}
    # only the schedule-level scaling call belongs to no cell
    assert [s[0] for s in calls if s[4] is None] == ["bounds.scaling"]
    assert sum(s[0] == "disorder.sample" for s in calls) == len(cells)

    points = sum(lslab.sample_realization(config.intensity, n / config.density,
                                          lslab.EnsembleSeed(7, i)).n_points
                 for n, i in cells)
    assert tracer.counts["disorder.points"] == points
    assert all(v >= 0 for k, v in layer_metrics(spans).items())
    times, counts = probe_thermo(lslab, tracer.thermo_inputs)
    assert counts["thermo.recursion_terms"] == 3 * (100 * 101 + 200 * 201) // 2
    assert all(v >= 0 for v in times.values())


def test_second_seed_has_no_failures():
    result = _result(_bench(seed=6, trace=0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 192
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "lsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_independent_log_partition_matches_enumeration():
    # two levels 0 and 1 at beta = ln 2: Z_N = sum_{m=0}^{N} 2^-m
    for n in (1, 2, 5):
        expected = math.log(sum(2.0 ** -m for m in range(n + 1)))
        assert log_partition(np.array([0.0, 1.0]), math.log(2.0), n) == \
            pytest.approx(expected, rel=1e-13)


def test_independent_log_partition_matches_lslab():
    from lslab import EnsembleSeed, build_spectrum, canonical_partition, \
        default_cutoff, sample_realization
    r = sample_realization(1.0, 3000 / 0.6, EnsembleSeed(3, 0))
    cutoff = default_cutoff(r, 1.0)
    spec = build_spectrum(r, cutoff)
    levels = dirichlet_levels(interval_lengths(r.points, r.box_length), cutoff)
    assert np.array_equal(levels, spec.energies)
    assert log_partition(levels, 1.0, 3000) == pytest.approx(
        canonical_partition(spec, 1.0, 3000)[-1], rel=1e-11)
