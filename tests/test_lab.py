"""Configuration, ensemble orchestration, report emission, and the CLI."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lslab
from lslab.disorder import EnsembleSeed, sample_realization
from lslab.lab import (
    _CONFIG_FIELDS,
    CHECKS,
    KNOWN_CHECKS,
    _aggregate,
    _build_parser,
    _config,
    ConfigError,
    EnsembleReport,
    ExperimentConfig,
    emit_report,
    load_config,
    main,
    run_ensemble,
)
from lslab.spectrum import build_spectrum, default_cutoff
from lslab.thermo import condensate_profile, thermo_solution_to_text


def test_default_config_is_valid():
    config = load_config(None, None)
    assert config.intensity == 1.0
    assert config.checks == ("lemma21",)
    assert config.n_schedule == (1000,)
    config.validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "intensity = 2.0\n"
        "density = 0.5\n"
        "beta = 1.5\n"
        "n_schedule = 1e2, 1000\n"
        "realizations_per_n = 3\n"
        "base_seed = 99\n"
        "checks = thermo, lemma21\n"
        "hardcore_radius = 2,-0.5,1\n",
        encoding="utf-8")
    config = load_config(path)
    assert config.intensity == 2.0
    assert config.density == 0.5
    assert config.n_schedule == (100, 1000)
    assert config.base_seed == 99
    # canonical ordering, not input ordering
    assert config.checks == ("lemma21", "thermo")
    law = config.scaling.hardcore_radius
    assert (law.coefficient, law.exponent, law.log_exponent) == (2.0, -0.5, 1.0)
    # untouched laws keep their defaults
    assert config.scaling.interaction_range == ExperimentConfig().interaction_range


def test_flag_overrides_beat_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("intensity = 2.0\nbase_seed = 7\n", encoding="utf-8")
    config = load_config(path, {"intensity": "3.5", "density": None})
    assert config.intensity == 3.5
    assert config.base_seed == 7
    assert config.density == 1.0


@pytest.mark.parametrize("overrides,fragment", [
    ({"bogus": "1"}, "unknown config key"),
    ({"checks": "nonsense"}, "unknown checks"),
    ({"checks": ""}, "no checks"),
    ({"n_schedule": "100,100"}, "strictly increasing"),
    ({"n_schedule": "1000,100"}, "strictly increasing"),
    ({"n_schedule": "1"}, ">= 2"),
    ({"beta": "-1"}, "positive"),
    ({"checks": "thermo", "n_schedule": "30000"}, "capped"),
    ({"checks": "lemma21", "n_schedule": "2", "density": "1"}, "above e"),
    ({"checks": "hardcore_bound", "density": "3", "n_schedule": "100"}, "ceiling"),
    ({"n_schedule": "100.4"}, "not an integer"),
    ({"realizations_per_n": "2.6"}, "not an integer"),
    ({"base_seed": "9007199254740993.5"}, "not an integer"),
    ({"top_k": "1e5000"}, "too many digits"),
    ({"base_seed": "-1"}, r"base_seed must lie in \[0, 2\*\*64\)"),
    ({"base_seed": str(2 ** 64)}, r"base_seed must lie in \[0, 2\*\*64\)"),
    ({"checks": "appendix", "n_schedule": "1e6,2e8"}, "largest N = 200000000: .*ceiling"),
    # check parameters are refused even when the check that reads them is off
    ({"checks": "appendix", "lemma21_epsilon": "2"}, r"lemma21_epsilon must lie in \(0, 1\)"),
    ({"checks": "appendix", "lemma21_alpha": "3"}, "lemma21_alpha must exceed 4"),
    ({"checks": "appendix", "interaction_l1_norm": "-1"}, "interaction_l1_norm must be nonnegative"),
    # NaN and infinity fail the positivity guards too, naming the key
    ({"intensity": "nan"}, "intensity must be positive and finite"),
    ({"density": "nan"}, "density must be positive and finite"),
    ({"beta": "nan"}, "beta must be positive and finite"),
    ({"beta": "inf"}, "beta must be positive and finite"),
    # so do non-finite law parameters and check parameters
    ({"interaction_floor": "nan,0"}, "bad value for interaction_floor: .*finite"),
    ({"delta_width": "inf,0"}, "bad value for delta_width: .*finite"),
    ({"hardcore_radius": "1,nan"}, "bad value for hardcore_radius: .*finite"),
    ({"interaction_range": "1,-0.2,-inf"}, "bad value for interaction_range: .*finite"),
    ({"interaction_l1_norm": "inf"}, "interaction_l1_norm must be nonnegative and finite"),
    ({"lemma21_alpha": "inf"}, "lemma21_alpha must exceed 4 and be finite"),
    # ln(N)^300 overflows: the radius is refused by name, not read as a ceiling of 0
    pytest.param({"checks": "hardcore_bound", "n_schedule": "1e6",
                  "hardcore_radius": "1,-0.1,300"}, "hardcore_radius: .*finite",
                 marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
])
def test_config_rejections(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(None, overrides)


@pytest.mark.parametrize("key, value, fragment", [
    ("beta", -1.0, "beta must be positive and finite"),
    ("density", math.nan, "density must be positive and finite"),
    ("n_schedule", (), "must not be empty"),
    ("workers", 0, "workers must be >= 1"),
    ("checks", ("bogus",), "unknown checks: bogus"),
    ("hardcore_radius", lslab.PowerLogLaw(1.0, 0.5), "hardcore_radius must stay bounded"),
])
def test_building_a_config_refuses_out_of_range_keys(key, value, fragment):
    # no ExperimentConfig holds an out-of-range key, however it was built
    with pytest.raises(ConfigError, match=fragment):
        ExperimentConfig(**{key: value})


def test_seed_above_2_53_replays_exactly(tmp_path):
    seed = 2 ** 53 + 1
    path = tmp_path / "exp.cfg"
    path.write_text(f"base_seed = {seed}\nn_schedule = 1e2\nrealizations_per_n = 1\n",
                    encoding="utf-8")
    config = load_config(path)
    assert config.base_seed == seed
    rec = run_ensemble(config).records[0]
    assert rec["base_seed"] == seed
    r = sample_realization(config.intensity, 100.0, EnsembleSeed(seed, 0))
    assert r.l_max == rec["lemma21_l_max"]


# one value per config key, each different from the default and valid alone
_KEY_SAMPLES = {
    "intensity": "2.5", "density": "0.5", "beta": "1.5", "n_schedule": "100,1e3",
    "realizations_per_n": "3", "base_seed": "9007199254740993", "top_k": "4",
    "checks": "appendix,lemma21", "output_dir": "elsewhere",
    "lemma21_epsilon": "0.25", "lemma21_alpha": "6", "interaction_l1_norm": "2",
    "workers": "2", "hardcore_radius": "2,-0.5,1", "interaction_range": "1,-0.3",
    "interaction_floor": "0.5,0", "delta_width": "1,-0.1",
}
_SCAN_ONLY = {"n_schedule", "realizations_per_n", "output_dir", "workers"}

# each subcommand's required arguments, and the config keys it takes as flags
_COMMANDS = {
    "scan": ([], set(_KEY_SAMPLES)),
    "bounds": (["--particles", "100"], set(_KEY_SAMPLES) - _SCAN_ONLY),
    "sample": (["--box-length", "10"], {"intensity", "base_seed"}),
    "spectrum": (["--box-length", "10"], {"intensity", "beta", "base_seed"}),
    "occupancy": (["--particles", "100"],
                  {"intensity", "density", "beta", "base_seed", "top_k"}),
    "diag": (["--n-grid", "1e2,1e4"],
             {"hardcore_radius", "interaction_range", "interaction_floor", "delta_width"}),
}


@pytest.mark.parametrize("key", list(_CONFIG_FIELDS))
def test_flag_and_config_line_agree(key, tmp_path, capsys):
    value = _KEY_SAMPLES[key]
    flag = "--" + key.replace("_", "-")
    path = tmp_path / "exp.cfg"
    path.write_text(f"{key} = {value}\n", encoding="utf-8")
    from_file = load_config(path)
    assert from_file != ExperimentConfig()
    parser = _build_parser()
    for command, (required, keys) in _COMMANDS.items():
        argv = [command, *required, flag, value]
        if key not in keys:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            continue
        assert _config(parser.parse_args(argv)) == from_file


def test_default_seed_is_the_config_default(capsys):
    assert main(["sample", "--box-length", "10"]) == 0
    assert f"base_seed = {ExperimentConfig().base_seed}\n" in capsys.readouterr().out
    assert main(["bounds", "--particles", "100"]) == 0
    assert f"lemma21.in.base_seed = {ExperimentConfig().base_seed}\n" \
        in capsys.readouterr().out


def test_run_ensemble_is_replayable():
    config = load_config(None, {"checks": "lemma21", "n_schedule": "1000",
                                "realizations_per_n": "10", "base_seed": "42"})
    report = run_ensemble(config)
    assert len(report.records) == 10
    again = run_ensemble(config)
    assert report.records == again.records
    # every record can be reproduced from its seed coordinates alone
    rec = report.records[3]
    r = sample_realization(config.intensity, rec["n"] / config.density,
                           EnsembleSeed(rec["base_seed"], rec["realization_index"]))
    assert r.l_max == rec["lemma21_l_max"]


def test_run_ensemble_parallel_matches_serial():
    config = load_config(None, {"checks": "appendix,trial_energy",
                                "n_schedule": "100,200",
                                "realizations_per_n": "4", "base_seed": "5"})
    serial = run_ensemble(config, workers=1)
    parallel = run_ensemble(config, workers=3)
    assert serial.records == parallel.records
    assert serial.columns == parallel.columns


def test_record_schema_contains_all_check_columns():
    config = load_config(None, {"checks": "thermo,hardcore_bound",
                                "n_schedule": "100,1000",
                                "realizations_per_n": "2", "base_seed": "8"})
    report = run_ensemble(config)
    assert "thermo_condensate_density" in report.columns
    assert "hardcore_t33_bound" in report.columns
    for rec in report.records:
        for col in report.columns:
            assert col in rec
    assert len(report.records) == 4


def test_ensemble_thermo_values_match_direct_computation():
    config = load_config(None, {"checks": "thermo", "n_schedule": "50",
                                "realizations_per_n": "2", "base_seed": "31"})
    report = run_ensemble(config)
    rec = report.records[1]
    r = sample_realization(1.0, 50.0, EnsembleSeed(31, 1))
    spec = build_spectrum(r, default_cutoff(r, 1.0))
    sol = condensate_profile(spec, 1.0, 50, min(config.top_k, len(spec)))
    assert rec["thermo_condensate_density"] == sol.condensate_density
    assert rec["thermo_log_partition"] == sol.log_partition
    assert rec["thermo_n_modes"] == len(spec)


def test_emit_report_files_deterministic(tmp_path):
    config = load_config(None, {"checks": "lemma21,appendix,scaling",
                                "n_schedule": "100,200,400",
                                "realizations_per_n": "3", "base_seed": "13"})
    report = run_ensemble(config)
    first = emit_report(report, tmp_path / "a")
    second = emit_report(report, tmp_path / "b")
    names = sorted(p.name for p in first)
    assert names == ["pass_fractions.csv", "records.csv", "scaling_trends.csv",
                     "summary.csv"]
    for pa, pb in zip(sorted(first), sorted(second)):
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("checks, n_schedule, realizations, base_seed, digests", [
    ("lemma21,appendix,thermo", "200,2000", "3", "3", {
        "summary.csv": "ecba278e566d8f1af2e095ae984a6094e0c0ad1b36ddaf074d114b97c63fcdc3",
        "pass_fractions.csv": "46d34918398aa5de32dc352483188e8a2cd5bd05a12a8b9d3d8dee0612e359d3",
        "records.csv": "1d22ca0cea93cec9dd9480daf943211786cc68491580832d0e78dbfa971cc055"}),
    ("hardcore_bound,scaling,trial_energy", "1000,1e5", "3", "4", {
        "summary.csv": "c489ba9c65f0a6ed219c90b0935e5e1623877a66fde1e17c86fb88052f99e5f9",
        "pass_fractions.csv": "fe1736258c114912fe01c789c33844169c914883f128e292eeca55d1d8833144",
        "scaling_trends.csv": "68c40afaf065c7d65c9460e56c69cbd2a0a530b40dbbe401d289f5a929781611",
        "records.csv": "692ccf14ca2cea5d37908d780932e6bbe705a9573282ed84212363e432939b64"}),
], ids=["thermo", "disorder"])
def test_report_bytes_are_pinned(checks, n_schedule, realizations, base_seed, digests,
                                 tmp_path, capsys):
    # every report file bit for bit.  These are the bits of one numpy build,
    # libm and CPU feature set: np.exp, np.log and math.log pick a code path
    # by CPU feature (numpy's AVX-512 loops, libm's FMA variants), and the
    # thermo_*, hardcore_* and scaling_* bits move with it, so a host with a
    # different dispatch may fail this pin alone
    assert main(["scan", "--density", "0.6", "--n-schedule", n_schedule,
                 "--realizations-per-n", realizations, "--base-seed", base_seed,
                 "--checks", checks, "--output-dir", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == digests


def test_emit_report_summary_shape(tmp_path):
    # 3 N-values x 2 checks: 3 summary rows carrying both column groups
    config = load_config(None, {"checks": "lemma21,appendix",
                                "n_schedule": "100,200,400",
                                "realizations_per_n": "5", "base_seed": "21"})
    report = run_ensemble(config)
    paths = {p.name: p for p in emit_report(report, tmp_path)}
    lines = paths["summary.csv"].read_text().strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 1 + 3
    assert "lemma21_l_max_mean" in header
    assert "appendix_count_median" in header
    assert "lemma21_pass_fraction" in header
    # aggregates agree with a direct numpy pass over the records
    counts = np.array([rec["appendix_count"] for rec in report.records
                       if rec["n"] == 100], dtype=float)
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["appendix_count_mean"]) == np.mean(counts)
    assert float(row["appendix_count_q95"]) == np.nanquantile(counts, 0.95)
    pass_lines = paths["pass_fractions.csv"].read_text().strip().split("\n")
    assert pass_lines[0] == "n,check,pass_fraction,ensemble_size"
    assert len(pass_lines) == 1 + 3 * 2


def test_aggregate_matches_numpy_nan_statistics_bit_for_bit():
    # 2400 arrays of 1..60 values: spread floats, tied integers, signed zeros
    # and heavy ties, each with up to half of its entries NaN
    rng = np.random.default_rng(20261019)
    pools = [
        lambda n: rng.normal(size=n) * 10.0 ** rng.integers(-3, 6),
        lambda n: rng.integers(-3, 4, size=n).astype(float),
        lambda n: rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], size=n),
        lambda n: rng.exponential(size=n),
    ]
    compared = 0
    for i in range(2400):
        n = int(rng.integers(1, 61))
        values = pools[i % len(pools)](n)
        values[rng.random(n) < rng.random() * 0.5] = np.nan
        if np.all(np.isnan(values)):
            assert all(math.isnan(v) for v in _aggregate(values))
            continue
        before = values.tobytes()
        got = _aggregate(values)
        assert values.tobytes() == before
        want = (np.nanmean(values), np.nanmedian(values),
                np.nanquantile(values, 0.05), np.nanquantile(values, 0.95))
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want], values
        compared += 1
    assert compared > 2000


def test_emit_report_rejects_empty_and_unknown_format(tmp_path):
    config = load_config(None, {"checks": "lemma21", "n_schedule": "100",
                                "realizations_per_n": "1"})
    report = run_ensemble(config)
    with pytest.raises(ValueError):
        emit_report(EnsembleReport(config, []), tmp_path)


def test_single_realization_checks_records(tmp_path):
    out = tmp_path / "bounds.txt"
    assert main(["bounds", "--particles", "100", "--checks", "lemma21,trial_energy,scaling",
                 "--base-seed", "77", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    keys = [line.partition(" = ")[0] for line in lines]
    # checks in registry order, each opening with its inputs
    assert [k.split(".")[0] for k in keys if k.endswith(".in.n")] \
        == ["lemma21", "scaling", "trial_energy"]
    assert "lemma21.in.n = 100" in lines
    assert "lemma21.in.base_seed = 77" in lines
    # the verdict comes last, once; a check without one prints no pass line
    assert [k for k in keys if k.startswith("lemma21.") and ".in." not in k] == [
        "lemma21.l_max", "lemma21.lower", "lemma21.upper", "lemma21.lower_ok",
        "lemma21.upper_ok", "lemma21.pass"]
    assert "scaling.pass" not in keys


def test_bounds_text_matches_scan_record(tmp_path):
    checks = ",".join(KNOWN_CHECKS)
    assert main(["scan", "--n-schedule", "1000", "--realizations-per-n", "4",
                 "--base-seed", "7", "--checks", checks,
                 "--output-dir", str(tmp_path)]) == 0
    out = tmp_path / "bounds.txt"
    assert main(["bounds", "--particles", "1000", "--base-seed", "7", "--index", "3",
                 "--checks", checks, "-o", str(out)]) == 0
    header, *rows = (tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()
    row = dict(zip(header.split(","), rows[3].split(",")))
    assert row["realization_index"] == "3"
    expected = []
    for check in CHECKS.values():
        expected += [f"{check.name}.in.{key} = {row[key]}"
                     for key in ("n", "realization_index", "base_seed", "box_length")]
        expected += [f"{check.name}.{f} = {row[check.prefix + f]}"
                     for f in check.fields if f != check.pass_field]
        if check.pass_field is not None:
            expected.append(f"{check.name}.pass = {row[check.prefix + check.pass_field]}")
    assert out.read_text(encoding="utf-8").splitlines() == expected


# ---------------------------------------------------------------------------
# command line


def test_cli_sample_round_trip(tmp_path):
    out = tmp_path / "real.txt"
    rc = main(["sample", "--box-length", "120", "--base-seed", "5",
               "--index", "2", "-o", str(out)])
    assert rc == 0
    from lslab.disorder import realization_from_text, realization_to_text
    direct = sample_realization(1.0, 120.0, EnsembleSeed(5, 2))
    assert out.read_text(encoding="utf-8") == realization_to_text(direct)
    parsed = realization_from_text(out.read_text(encoding="utf-8"))
    np.testing.assert_array_equal(parsed.points, direct.points)


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--box-length", "80", "--cutoff", "20",
               "--base-seed", "3", "-o", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "energy,interval_index,mode_number"
    energies = [float(line.split(",")[0]) for line in lines[1:]]
    assert energies == sorted(energies)
    assert max(energies) <= 20.0
    # neither --cutoff nor --beta is an error
    assert main(["spectrum", "--box-length", "80"]) == 2


def test_cli_occupancy_matches_library(tmp_path):
    out = tmp_path / "occ.txt"
    rc = main(["occupancy", "--particles", "40", "--beta", "1.0",
               "--base-seed", "9", "--top-k", "4", "-o", str(out)])
    assert rc == 0
    r = sample_realization(1.0, 40.0, EnsembleSeed(9, 0))
    spec = build_spectrum(r, default_cutoff(r, 1.0))
    sol = condensate_profile(spec, 1.0, 40, 4)
    assert out.read_text(encoding="utf-8") == thermo_solution_to_text(sol)


def test_cli_bounds_lists_requested_checks(tmp_path):
    out = tmp_path / "bounds.txt"
    rc = main(["bounds", "--particles", "200", "--checks", "lemma21,appendix",
               "--base-seed", "11", "-o", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "lemma21.pass = " in text
    assert "appendix.count = " in text
    assert "appendix.in.n = 200" in text


@pytest.mark.parametrize("command", ["bounds", "occupancy"])
def test_cli_integer_flags_parse_like_config_keys(command, tmp_path, capsys):
    # '1e3' is accepted because it is integral, as in a config file
    plain, exponent = tmp_path / "plain.txt", tmp_path / "exponent.txt"
    occupancy = command == "occupancy"
    assert main([command, "--particles", "1000", "--index", "1",
                 *(["--top-k", "4", "--base-seed", "9"] if occupancy else []),
                 "-o", str(plain)]) == 0
    assert main([command, "--particles", "1e3", "--index", "1e0",
                 *(["--top-k", "4e0", "--base-seed", "9e0"] if occupancy else []),
                 "-o", str(exponent)]) == 0
    assert exponent.read_bytes() == plain.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--particles", "100.4"])
    assert exit_info.value.code == 2
    assert "--particles" in capsys.readouterr().err


def test_cli_scan_and_diag(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "checks = lemma21,scaling\nn_schedule = 100,300\n"
        "realizations_per_n = 2\nbase_seed = 4\n"
        f"output_dir = {tmp_path / 'run1'}\n",
        encoding="utf-8")
    assert main(["scan", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "run2")]) == 0
    capsys.readouterr()
    for name in ("records.csv", "summary.csv", "scaling_trends.csv"):
        assert (tmp_path / "run1" / name).read_bytes() \
            == (tmp_path / "run2" / name).read_bytes()

    out = tmp_path / "diag.csv"
    assert main(["diag", "--n-grid", "1e3,1e6,1e9", "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("n,hardcore_vanishing")
    assert any(line.startswith("# tail trend hardcore_vanishing = decreasing")
               for line in lines)
    n0, v0 = lines[1].split(",")[:2]
    assert int(n0) == 1000
    expected = math.log(1e3) ** 2 / (1e3 ** -0.25) ** 2 / 1e3
    assert float(v0) == pytest.approx(expected, rel=1e-14)


def test_cli_error_paths_return_2(tmp_path, capsys, monkeypatch):
    assert main(["scan", "--checks", "bogus"]) == 2
    assert "unknown checks" in capsys.readouterr().err
    assert main(["scan", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["occupancy", "--particles", "30000"]) == 2
    err = capsys.readouterr().err
    assert "capped" in err or "ceiling" in err
    # a NaN input is refused by name, not by a numpy message
    assert main(["sample", "--intensity", "nan", "--box-length", "10"]) == 2
    assert capsys.readouterr().err == "error: intensity must be positive and finite\n"
    assert main(["diag", "--n-grid", "1e2,1e4", "--delta-width", "inf,0"]) == 2
    assert capsys.readouterr().err.startswith("error: bad value for delta_width: ")
    # oversized inputs are refused with an error line, not by running out of memory
    monkeypatch.setattr(lslab.disorder, "MAX_POINTS", 1000)
    monkeypatch.setattr(lslab.spectrum, "MAX_MODES", 1000)
    assert main(["sample", "--box-length", "2000"]) == 2
    assert main(["spectrum", "--box-length", "100", "--cutoff", "1e4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error:") and "ceiling" in line for line in err)


def test_one_realization_commands_skip_the_scan_checks(tmp_path, capsys):
    # the point budget of the default schedule (N = 1000) and the n_schedule
    # rules belong to a scan; sample and spectrum draw their own box, and
    # occupancy its own N
    assert main(["sample", "--intensity", "2e5", "--box-length", "1",
                 "-o", str(tmp_path / "sample.txt")]) == 0
    assert main(["spectrum", "--intensity", "2e5", "--box-length", "1",
                 "--cutoff", "1e12", "-o", str(tmp_path / "spectrum.txt")]) == 0
    assert main(["occupancy", "--particles", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "particle_number = 1\n" in captured.out


def test_scan_over_point_ceiling_runs_no_cell(monkeypatch, tmp_path, capsys):
    def must_not_sample(*args, **kwargs):
        pytest.fail("a cell was sampled before the schedule was checked")

    monkeypatch.setattr(lslab.lab, "sample_realization", must_not_sample)
    assert main(["scan", "--n-schedule", "1e6,2e8", "--realizations-per-n", "4",
                 "--checks", "appendix", "--workers", "1",
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: largest N = 200000000") and "ceiling" in err


def test_failing_check_names_its_cell(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in box count")

    monkeypatch.setattr(lslab.lab, "check_appendix_count", broken)
    config = load_config(None, {"checks": "lemma21,appendix", "n_schedule": "100",
                                "realizations_per_n": "2", "base_seed": "17"})
    with pytest.raises(RuntimeError) as info:
        run_ensemble(config, workers=1)
    assert isinstance(info.value.__cause__, FloatingPointError)
    message = str(info.value)
    for part in ("N=100", "realization 0", "base_seed 17", "appendix",
                 "overflow in box count"):
        assert part in message
    assert main(["scan", "--checks", "appendix", "--n-schedule", "100",
                 "--base-seed", "17", "--workers", "1",
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: N=100, realization 0, base_seed 17")
    assert "Traceback" not in err


def test_known_checks_cover_all_evaluators():
    assert set(KNOWN_CHECKS) == {"lemma21", "appendix", "thermo",
                                 "hardcore_bound", "scaling", "trial_energy"}
    config = ExperimentConfig(checks=KNOWN_CHECKS, n_schedule=(100,),
                              realizations_per_n=1)
    config.validate()
    report = run_ensemble(config)
    assert len(report.records) == 1


def test_bound_checks_reuse_the_validating_pass(monkeypatch):
    # the pass that checks a realization's points also measures l_max, its
    # index and the long count, so the checks that read them stream nothing
    calls = []
    stream = lslab.disorder._length_blocks

    def counted(realization):
        calls.append(realization)
        return stream(realization)

    monkeypatch.setattr(lslab.disorder, "_length_blocks", counted)
    config = load_config(None)
    n = 1000
    r = sample_realization(config.intensity, n / config.density, EnsembleSeed(5, 0))
    values = {name: CHECKS[name].evaluate(config, n, r)
              for name in ("lemma21", "appendix", "hardcore_bound", "trial_energy")}
    assert calls == [r]
    assert values["lemma21"]["l_max"] == r.interval_lengths.max()
    assert values["appendix"]["count"] == values["trial_energy"]["count_q"] > 0


def _source_env() -> dict:
    """The environment for a fresh interpreter that imports this lslab."""
    src = str(Path(lslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


# Runs the scan, then prints ln Z_0..ln Z_N of the same cell, which the
# records only show through a few derived columns.
_SCAN_AND_LOG_PARTITIONS = """
import sys
from lslab.disorder import EnsembleSeed, sample_realization
from lslab.lab import main
from lslab.spectrum import build_spectrum, default_cutoff
from lslab.thermo import canonical_partition
assert main(sys.argv[1:]) == 0
r = sample_realization(1.0, 13000 / 0.6, EnsembleSeed(1, 0))
print(canonical_partition(build_spectrum(r, default_cutoff(r, 1.0)), 1.0, 13000).tobytes().hex())
"""


def test_scan_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits dot products above about 10^4 elements across its
    # thread pool; a record at N = 13000 must still replay bit for bit on a
    # host with another core count or thread setting.
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("density = 0.6\nbeta = 1\nn_schedule = 13000\n"
                   "realizations_per_n = 1\nbase_seed = 1\nchecks = thermo\n",
                   encoding="utf-8")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(_source_env(), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _SCAN_AND_LOG_PARTITIONS, "scan",
             "--config", str(cfg), "--output-dir", str(out)],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        runs.append((out, proc.stdout.splitlines()[-1]))
    (out1, log_z1), (out2, log_z2) = runs
    assert log_z1 == log_z2
    for name in ("records.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# A scan with every check in a fresh interpreter, first as run_ensemble and
# then through the CLI, then the box masses of a ground mode.  Neither the
# cells nor the report load numpy.ma.
_SCAN_WITHOUT_SCIPY = """
import sys
import lslab
from lslab.lab import KNOWN_CHECKS, main
config = lslab.load_config(None, {"n_schedule": "100,200", "realizations_per_n": "2",
                                  "checks": ",".join(KNOWN_CHECKS)})
lslab.run_ensemble(config, workers=1)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported by a cell"
# the process pool and the command line are imported only where they are used
loaded = {"concurrent.futures.process", "multiprocessing", "socket", "subprocess",
          "logging", "argparse"} & set(sys.modules)
assert not loaded, f"a serial scan loaded {sorted(loaded)}"
assert main(["scan", "--n-schedule", "100,200", "--realizations-per-n", "2",
             "--checks", ",".join(KNOWN_CHECKS), "--output-dir", sys.argv[1]]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported by the report"
assert len(KNOWN_CHECKS) == 6
r = lslab.sample_realization(1.0, 100.0, lslab.EnsembleSeed(1, 0))
masses = lslab.box_masses(lslab.ground_mode(r), 0.5)
assert abs(sum(m for _, m in masses) - 1.0) < 1e-12
assert "scipy" not in sys.modules, "scipy was imported"
"""


def test_import_and_scan_load_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _SCAN_WITHOUT_SCIPY, str(tmp_path)],
                          env=_source_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "records.csv").exists()
