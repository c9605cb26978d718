"""Traced scan: the program's own scan with a span around each public call.

While a traced scan runs, the public functions that `lslab.lab` calls
through its module globals are swapped for shims.  A shim records a span
(name, start, end, parent, cell id) around the call and notes what the call
did: points sampled, modes built, boxes counted.  The scan itself is the
program's own `load_config -> run_ensemble(config, workers=1) ->
emit_report`, so the trace follows whatever path lab.py takes between those
calls.  Spans stay in memory until the end.

A span's cell is the (N, realization) cell of the latest
`sample_realization` call, read from its arguments.

`boltzmann_sums` and `canonical_partition` are not separate calls in a scan.
After the scan, `probe_thermo` times them with `condensate_profile` on the
spectra the scan built, outside the traced wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("disorder", "spectrum", "thermo", "bounds", "lab")

# lslab.lab module global -> span name; the span name's prefix is its layer
CALLS = {
    "sample_realization": "disorder.sample",
    "default_cutoff": "spectrum.cutoff",
    "build_spectrum": "spectrum.build",
    "ground_mode": "spectrum.ground_mode",
    "condensate_profile": "thermo.profile",
    "check_lemma21": "bounds.lemma21",
    "check_appendix_count": "bounds.appendix",
    "box_masses": "bounds.hardcore",
    "pule_aonghusa_bound": "bounds.hardcore",
    "theorem33_bound": "bounds.hardcore",
    "box_count_criterion": "bounds.hardcore",
    "trial_state_energy": "bounds.trial",
    "scaling_diagnostics": "bounds.scaling",
}

# boltzmann_sums keeps the S_k terms with k beta (e_j - e_0) <= 80
_SUM_EXPONENT_LIMIT = 80.0
# rounds of sums / partition / profile per spectrum in probe_thermo
PROBE_ROUNDS = 3


class Tracer:
    """Spans as [name, start, end, parent id, cell], held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.density = 1.0
        self.cell: tuple[int, int] | None = None
        self.counts = {"disorder.points": 0, "disorder.intervals": 0,
                       "spectrum.modes": 0, "bounds.boxes": 0}
        # (spectrum, beta, N, top_k) of every condensate_profile call
        self.thermo_inputs: list[tuple] = []
        # CALLS entries that lslab.lab no longer has; their time is lab overhead
        self.untraced: list[str] = []

    @contextmanager
    def span(self, name: str, cell: tuple[int, int] | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, cell]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def as_dicts(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "cell": None if cell is None else f"{cell[0]}:{cell[1]}"}
                for name, start, end, parent, cell in self.spans]

    def shim(self, global_name: str, fn):
        """fn wrapped in a span named CALLS[global_name], with its notes."""
        name = CALLS[global_name]
        cell_of = {"sample_realization": self._enter_cell,
                   "scaling_diagnostics": self._scaling_cell}.get(global_name)
        note = {"sample_realization": self._note_realization,
                "build_spectrum": self._note_spectrum,
                "box_masses": self._note_boxes,
                "condensate_profile": self._note_thermo}.get(global_name)

        def traced(*args, **kwargs):
            cell = self.cell if cell_of is None else cell_of(*args, **kwargs)
            with self.span(name, cell):
                result = fn(*args, **kwargs)
            if note is not None:
                note(result, *args, **kwargs)
            return result
        return traced

    # the argument names below are those of the lslab functions
    def _enter_cell(self, intensity, box_length, seed):
        self.cell = (round(box_length * self.density), seed.realization_index)
        return self.cell

    def _scaling_cell(self, spec, n_grid):
        # per cell the grid is [N]; the schedule-level call after the last
        # cell passes the whole schedule and belongs to no cell
        if self.cell is not None and list(n_grid) == [self.cell[0]]:
            return self.cell
        return None

    def _note_realization(self, r, *args, **kwargs):
        self.counts["disorder.points"] += r.n_points
        self.counts["disorder.intervals"] += r.n_intervals

    def _note_spectrum(self, spec, *args, **kwargs):
        self.counts["spectrum.modes"] += len(spec)

    def _note_boxes(self, masses, *args, **kwargs):
        self.counts["bounds.boxes"] += len(masses)

    def _note_thermo(self, solution, spectrum, beta, particle_number, top_k):
        self.thermo_inputs.append((spectrum, beta, particle_number, top_k))


@contextmanager
def shimmed(lab, tracer: Tracer):
    """Swap lab's module globals in CALLS for tracer shims; restore on exit."""
    saved = {}
    try:
        for global_name in CALLS:
            fn = getattr(lab, global_name, None)
            if fn is None:
                tracer.untraced.append(global_name)
                continue
            saved[global_name] = fn
            setattr(lab, global_name, tracer.shim(global_name, fn))
        yield
    finally:
        for global_name, fn in saved.items():
            setattr(lab, global_name, fn)


def trace_scan(lslab, config_path: str, output_dir: str, tracer: Tracer):
    """Traced load_config -> run_ensemble(workers=1) -> emit_report.

    The scan is serial so that every call lands in this process's spans.
    Returns the config and the emitted paths.
    """
    with tracer.span("lab.scan"):
        with tracer.span("lab.config"):
            config = lslab.load_config(config_path)
        tracer.density = config.density
        with shimmed(lslab.lab, tracer), tracer.span("lab.run"):
            report = lslab.run_ensemble(config, workers=1)
        with tracer.span("lab.emit"):
            paths = lslab.emit_report(report, output_dir)
    return config, paths


def probe_thermo(lslab, thermo_inputs: list[tuple]) -> tuple[dict, dict]:
    """Split condensate_profile into sums, recursion and occupation.

    On each spectrum of the scan, boltzmann_sums, canonical_partition and
    condensate_profile run back to back for PROBE_ROUNDS rounds, and each
    keeps its fastest time.  recursion is partition minus sums, occupation
    is profile minus partition, both per spectrum and clamped at 0: each is
    a difference of two timings.  Occupation is top_k passes of O(N), so
    where the recursion is long it is below the timing noise.

    Returns those times and the work counts: S_k terms kept and recursion
    terms N(N+1)/2.
    """
    times = dict.fromkeys(("thermo.sums_s", "thermo.recursion_s",
                           "thermo.occupation_s"), 0.0)
    counts = {"thermo.sum_terms": 0, "thermo.recursion_terms": 0}
    for spec, beta, n, top_k in thermo_inputs:
        best = [float("inf")] * 3
        for _ in range(PROBE_ROUNDS):
            for i, call in enumerate((
                    lambda: lslab.boltzmann_sums(spec, beta, n),
                    lambda: lslab.canonical_partition(spec, beta, n),
                    lambda: lslab.condensate_profile(spec, beta, n, top_k))):
                start = time.perf_counter()
                call()
                best[i] = min(best[i], time.perf_counter() - start)
        sums, partition, profile = best
        times["thermo.sums_s"] += sums
        times["thermo.recursion_s"] += max(partition - sums, 0.0)
        times["thermo.occupation_s"] += max(profile - partition, 0.0)
        delta = spec.energies - spec.energies[0]
        limits = _SUM_EXPONENT_LIMIT / (beta * np.arange(1, n + 1))
        counts["thermo.sum_terms"] += int(np.searchsorted(delta, limits,
                                                          side="right").sum())
        counts["thermo.recursion_terms"] += n * (n + 1) // 2
    return times, counts


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-call times and per-layer self times from one traced scan.

    A span's self time is its duration minus its children's.  The self time
    of lab.run (run_s minus the calls it made into the other layers) is
    lab.overhead_s rather than lab self time: it is lab.py's own work between
    those calls.  lab.cells_s is the time of the calls that belong to a cell.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    self_time = list(dur)
    for (_, _, _, parent, _), d in zip(spans, dur):
        if parent is not None:
            self_time[parent] -= d
    total: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    overhead = cells = 0.0
    for (name, _, _, _, cell), d, own in zip(spans, dur, self_time):
        total[name] = total.get(name, 0.0) + d
        if cell is not None:
            cells += d
        if name == "lab.run":
            overhead += own
        else:
            layer_self[name.split(".")[0]] += own
    wall = total["lab.scan"]
    out = {
        "trace.wall_s": wall,
        "disorder.sample_s": total.get("disorder.sample", 0.0),
        "spectrum.cutoff_s": total.get("spectrum.cutoff", 0.0),
        "spectrum.build_s": total.get("spectrum.build", 0.0),
        "spectrum.ground_mode_s": total.get("spectrum.ground_mode", 0.0),
        "thermo.profile_s": total.get("thermo.profile", 0.0),
        "bounds.lemma21_s": total.get("bounds.lemma21", 0.0),
        "bounds.appendix_s": total.get("bounds.appendix", 0.0),
        "bounds.hardcore_s": total.get("bounds.hardcore", 0.0),
        "bounds.trial_s": total.get("bounds.trial", 0.0),
        "bounds.scaling_s": total.get("bounds.scaling", 0.0),
        "lab.config_s": total["lab.config"],
        "lab.run_s": total["lab.run"],
        "lab.emit_s": total["lab.emit"],
        "lab.cells_s": cells,
        "lab.overhead_s": overhead,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.share"] = layer_self[layer] / wall
    return out
