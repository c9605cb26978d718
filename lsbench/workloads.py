"""The benchmark's workloads: one `lslab scan` config each.

All are closed-loop batch scans at density 0.6 driven from one process:
the next repetition starts only after the previous one has ended.  The
base seed comes from the benchmark's --seed argument; lslab only sees the
config file written from it.  WORKLOADS.md (and the `why` of each workload
in BENCHMARK.json) says why each one exists and which layers it does and
does not exercise.

thermo-large and disorder-large are the declared workloads of
BENCHMARK.json.  many-small is not: its run-to-run spread on a shared
2-vCPU host is wider than the largest bound the benchmark may declare.  It
stays runnable by name, for the benchmark's own test (it calls every layer
in about a second) and for interleaved before/after comparisons by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

DENSITY = 0.6
INTENSITY = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple[str, ...]
    n_schedule: tuple[int, ...]
    realizations_per_n: int
    beta: float
    workers: int
    # cells per run whose records are recomputed independently
    verify_cells: int

    @property
    def cells(self) -> int:
        return len(self.n_schedule) * self.realizations_per_n

    def config_text(self, base_seed: int, output_dir: str) -> str:
        lines = [
            f"intensity = {INTENSITY!r}",
            f"density = {DENSITY!r}",
            f"beta = {self.beta!r}",
            "n_schedule = " + ",".join(str(n) for n in self.n_schedule),
            f"realizations_per_n = {self.realizations_per_n}",
            f"base_seed = {base_seed}",
            "checks = " + ",".join(self.checks),
            f"workers = {self.workers}",
            f"output_dir = {output_dir}",
        ]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="thermo-large",
        checks=("lemma21", "appendix", "thermo"),
        n_schedule=(2000, 5000, 10000, 20000),
        realizations_per_n=1,
        beta=1.0,
        workers=1,
        verify_cells=4,
    ),
    Workload(
        name="disorder-large",
        checks=("lemma21", "appendix", "hardcore_bound", "scaling", "trial_energy"),
        n_schedule=(100_000, 1_000_000, 6_000_000),
        realizations_per_n=2,
        beta=1.0,
        workers=1,
        verify_cells=3,
    ),
    Workload(
        name="many-small",
        checks=("lemma21", "appendix", "thermo", "hardcore_bound", "scaling",
                "trial_energy"),
        n_schedule=(100, 200, 400, 800),
        realizations_per_n=48,
        beta=0.1,
        workers=2,
        verify_cells=32,
    ),
)}
