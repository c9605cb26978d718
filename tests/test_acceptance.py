"""Acceptance gate: the nine acceptance criteria, one test and one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails loudly if its criterion or runtime budget is missed.
"""

import math
import time

import numpy as np
from scipy import integrate

from lslab.bounds import (
    box_masses,
    check_appendix_count,
    check_lemma21,
    pule_aonghusa_bound,
    scaling_diagnostics,
    theorem33_bound,
    transition_kinetic_constant,
    transition_switch,
    trial_state_energy,
    PowerLogLaw,
)
from lslab.disorder import EnsembleSeed, sample_realization
from lslab.lab import ExperimentConfig, main
from lslab.spectrum import build_spectrum, default_cutoff, ground_mode
from lslab.thermo import condensate_profile, estimate_saturation_density

from conftest import enumerate_bose, make_realization, toy_spectrum


def verdict(num: int, name: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    flag = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"[criterion {num}] {flag} {name}: {detail} ({elapsed:.2f} s, "
          f"budget {budget:.0f} s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f} s"


def test_criterion_1_canonical_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_z = 0.0
    worst_occ = 0.0
    for _ in range(500):
        levels = int(rng.integers(1, 5))
        energies = np.sort(rng.uniform(0.0, 5.0, size=levels))
        beta = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(1, 7))
        s = toy_spectrum(energies)
        z_oracle, occ_oracle = enumerate_bose(energies, beta, n)
        sol = condensate_profile(s, beta, n, len(s))
        z = math.exp(sol.log_partitions[n])
        occ = sol.occupations
        worst_z = max(worst_z, abs(z - z_oracle))
        worst_occ = max(worst_occ, float(np.max(np.abs(occ - occ_oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst_z < 1e-10 and worst_occ < 1e-10
    verdict(1, "canonical oracle equivalence",
            ok, f"500 spectra, worst |dZ|={worst_z:.2e}, worst |d<n>|={worst_occ:.2e}",
            elapsed, 5.0)


def test_criterion_2_conservation_at_scale():
    t0 = time.perf_counter()
    r = sample_realization(1.0, 1e4, EnsembleSeed(2026, 0))
    spec = build_spectrum(r, default_cutoff(r, 1.0))
    n = 1000
    occ = condensate_profile(spec, 1.0, n, len(spec)).occupations
    err = abs(float(occ.sum()) - n)
    elapsed = time.perf_counter() - t0
    ok = len(spec) >= 10_000 and err <= 1e-8 * n
    verdict(2, "occupation conservation at scale",
            ok, f"{len(spec)} modes, N={n}, |sum - N|={err:.2e}", elapsed, 30.0)


def test_criterion_3_lemma21_sandwich_pass_fractions():
    t0 = time.perf_counter()
    fractions = []
    for box in (1e3, 1e4, 1e5):
        flags = []
        for i in range(200):
            r = sample_realization(1.0, box, EnsembleSeed(314159, i))
            res = check_lemma21(r, epsilon=0.5, alpha=5.0)
            flags.append(res.lower_ok and res.upper_ok)
        fractions.append(float(np.mean(flags)))
    elapsed = time.perf_counter() - t0
    ok = fractions[0] <= fractions[1] <= fractions[2] and fractions[2] >= 0.95
    verdict(3, "longest-interval sandwich",
            ok, f"pass fractions {fractions} over L in (1e3, 1e4, 1e5)",
            elapsed, 120.0)


def test_criterion_4_long_interval_count_floor():
    t0 = time.perf_counter()
    n = 10_000
    passes = 0
    counts = []
    for i in range(200):
        r = sample_realization(1.0, float(n), EnsembleSeed(271828, i))
        res = check_appendix_count(r, density=1.0)
        passes += res.passed
        counts.append(res.count)
    mean_rate = float(np.mean(counts)) / n
    target = math.exp(-3.0)
    elapsed = time.perf_counter() - t0
    ok = passes == 200 and abs(mean_rate - target) <= 0.1 * target
    verdict(4, "long-interval count floor",
            ok, f"{passes}/200 above threshold, mean count/N={mean_rate:.6f} "
                f"vs e^-3={target:.6f}", elapsed, 60.0)


def test_criterion_5_hardcore_bound_decay():
    t0 = time.perf_counter()
    worst_rel = 0.0
    for n in (1e4, 1e8, 1e12):
        a = n ** -0.25
        val = theorem33_bound(5.0, 1.0, n, a)
        closed = 25.0 * math.log(n) ** 2 / math.sqrt(n)
        worst_rel = max(worst_rel, abs(val - closed) / closed)
    at_12 = theorem33_bound(5.0, 1.0, 1e12, 1e12 ** -0.25)
    formula_ok = worst_rel <= 1e-12 and abs(at_12 - 0.01909) < 2e-5

    L = 1e5
    a = L ** -0.25
    cap = theorem33_bound(5.0, 1.0, L, a)
    hits = 0
    for i in range(200):
        r = sample_realization(1.0, L, EnsembleSeed(161803, i))
        gm = ground_mode(r)
        pa = pule_aonghusa_bound(box_masses(gm, a), L)
        hits += pa <= cap
    elapsed = time.perf_counter() - t0
    ok = formula_ok and hits >= 190
    verdict(5, "hard-core bound decay",
            ok, f"formula rel err {worst_rel:.2e}, value(1e12)={at_12:.5f}, "
                f"bound dominated in {hits}/200", elapsed, 120.0)


def test_criterion_6_scaling_diagnostics_trends():
    t0 = time.perf_counter()
    grid = np.logspace(2, 12, 11).astype(np.int64)

    def spec_with(radius_exp=-0.25, range_exp=0.0):
        return ExperimentConfig(
            hardcore_radius=PowerLogLaw(1.0, radius_exp),
            interaction_range=PowerLogLaw(1.0, range_exp),
            interaction_floor=PowerLogLaw(1.0, 0.0),
            delta_width=PowerLogLaw(1.0, -0.1),
        )

    shrink = scaling_diagnostics(spec_with(radius_exp=-0.25), grid)
    grow = scaling_diagnostics(spec_with(radius_exp=-0.6), grid)
    alpha_small = scaling_diagnostics(spec_with(range_exp=-0.2), grid)
    alpha_large = scaling_diagnostics(spec_with(range_exp=-0.4), grid)
    ok = (shrink.trends["hardcore_vanishing"] == "decreasing"
          and grow.trends["hardcore_vanishing"] == "increasing"
          and alpha_small.trends["range_growth"] == "increasing"
          and alpha_small.trends["floor_range_growth"] == "increasing"
          and alpha_large.trends["range_growth"] != "increasing"
          and alpha_large.trends["floor_range_growth"] != "increasing")
    elapsed = time.perf_counter() - t0
    verdict(6, "scaling diagnostic trends",
            ok, "delta=0.25 falls, delta=0.6 grows; range grows iff alpha<1/3",
            elapsed, 1.0)


def test_criterion_7_condensate_density_trend():
    t0 = time.perf_counter()
    rho_sat = estimate_saturation_density(1.0, 1.0, 2e4, realizations=16,
                                          base_seed=11)
    rho = 2.0 * rho_sat
    medians = []
    for n in (100, 1000, 10_000):
        vals = []
        for i in range(50):
            box = n / rho
            r = sample_realization(1.0, box, EnsembleSeed(2026, i))
            spec = build_spectrum(r, default_cutoff(r, 1.0))
            vals.append(condensate_profile(spec, 1.0, n, 1).occupations[0] / box)
        medians.append(float(np.median(vals)))
    elapsed = time.perf_counter() - t0
    ok = all(m > 0 for m in medians) and medians[2] >= 0.5 * medians[0]
    verdict(7, "non-interacting condensate trend",
            ok, f"rho=2*rho_sat={rho:.4f}, median densities {medians}",
            elapsed, 600.0)


def test_criterion_8_trial_state_energy_pieces():
    t0 = time.perf_counter()
    kappa = transition_kinetic_constant()
    # independent finite-difference + trapezoid evaluation of 2 int xi'(t)^2
    h = 1e-5
    t = np.linspace(h, 1.0 - h, 20_001)
    fd = (transition_switch(t + h) - transition_switch(t - h)) / (2.0 * h)
    kappa_fd = 2.0 * float(integrate.trapezoid(fd ** 2, t))
    kinetic_ok = abs(kappa - kappa_fd) < 1e-6

    r = make_realization([-2.0, 1.0], 10.0)  # interval lengths 3, 3, 4
    res = trial_state_energy(r, particle_number=10, interaction_l1_norm=1.0)
    interaction_ok = res.interaction_per_particle == 5.0 and res.count_q == 3
    elapsed = time.perf_counter() - t0
    verdict(8, "trial-state energy pieces",
            kinetic_ok and interaction_ok,
            f"kappa={kappa:.12f} vs FD {kappa_fd:.12f}, "
            f"interaction/particle={res.interaction_per_particle}",
            elapsed, 1.0)


def test_criterion_9_scan_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "intensity = 1\ndensity = 1\nbeta = 1\n"
        "n_schedule = 100,250,500\nrealizations_per_n = 4\nbase_seed = 6\n"
        "checks = lemma21,appendix,thermo,hardcore_bound,scaling,trial_energy\n",
        encoding="utf-8")
    rc1 = main(["scan", "--config", str(cfg),
                "--output-dir", str(tmp_path / "run1")])
    rc2 = main(["scan", "--config", str(cfg),
                "--output-dir", str(tmp_path / "run2")])
    names = ("records.csv", "summary.csv", "pass_fractions.csv",
             "scaling_trends.csv")
    same = all((tmp_path / "run1" / f).read_bytes()
               == (tmp_path / "run2" / f).read_bytes() for f in names)
    elapsed = time.perf_counter() - t0
    ok = rc1 == 0 and rc2 == 0 and same
    verdict(9, "scan determinism",
            ok, f"two runs, {len(names)} report files byte-identical", elapsed,
            120.0)
