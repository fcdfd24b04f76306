"""Config schema, scenario runners, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from brwlab import cli, speeds
from brwlab.cli import (
    ExperimentConfig,
    build_law,
    build_system,
    main,
    parse_config,
    run,
)
from brwlab.errors import SchemaError

BBM_LAW = {"offspring": "geometric", "mean": math.e,
           "displacement": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
           "mechanism": "independent"}


def minimal(kind="speed", **extra):
    cfg = {"kind": kind, "seed": 7, "law": BBM_LAW}
    cfg.update(extra)
    return json.dumps(cfg)


class TestSchema:
    def test_minimal_speed_scenario_valid(self):
        cfg = parse_config(minimal())
        assert cfg.kind == "speed" and cfg.seed == 7
        law = build_law(cfg.law)
        assert law.offspring.mean == pytest.approx(math.e)

    def test_negative_variance_reports_key_path(self):
        bad = json.loads(minimal())
        bad["law"]["displacement"]["variance"] = -1.0
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(bad))
        assert any(path == "law.displacement.variance"
                   for path, _ in err.value.problems)

    def test_all_errors_reported_not_just_first(self):
        bad = {"kind": "nope", "law": {"offspring": "weird", "mean": 0.2,
                                       "displacement": {"kind": "gaussian",
                                                        "mean": 0, "variance": -2}},
               "bogus": 1}
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(bad))
        paths = {p for p, _ in err.value.problems}
        assert {"kind", "seed", "bogus", "law.offspring", "law.mean",
                "law.displacement.variance"} <= paths

    def test_unknown_keys_rejected_everywhere(self):
        bad = json.loads(minimal())
        bad["law"]["extra"] = 1
        bad["law"]["displacement"]["tail"] = 2
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(bad))
        paths = {p for p, _ in err.value.problems}
        assert {"law.extra", "law.displacement.tail"} <= paths

    def test_seed_is_mandatory(self):
        cfg = json.loads(minimal())
        del cfg["seed"]
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(cfg))
        assert any(p == "seed" for p, _ in err.value.problems)

    def test_invalid_json_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_config("{not json")


TWO_POINT_TIED = dict(BBM_LAW, displacement={"kind": "two_point", "low": 1.0,
                                             "high": 1.0, "prob_high": 0.5})


class TestConstructorErrors:
    """Configs that pass the key and type checks but that a model
    constructor rejects: exit 2 with the object's key path, not a
    runtime error."""

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "speed", "law": dict(BBM_LAW, offspring="deterministic", mean=2.5)},
         "law"),
        ({"kind": "front", "law": dict(BBM_LAW, offspring="poisson_positive", mean=1)},
         "law"),
        ({"kind": "anomalous", "system": {"nu": BBM_LAW, "eta": TWO_POINT_TIED,
                                          "seed_prob": 0.5}},
         "system"),
        ({"kind": "speed", "law": BBM_LAW, "expect": {"speed": 1.4, "rel_tol": 0}},
         "expect.rel_tol"),
    ], ids=["fractional_deterministic", "poisson_positive_mean_1",
            "two_point_low_equals_high", "zero_rel_tol"])
    def test_exit_code_and_key_path(self, tmp_path, capsys, cfg, path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(cfg, seed=1)))
        assert main([cfg["kind"], "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err


SKELETON = {"skeleton": {"V": 1 / 3, "lambda": 3.0, "p": 0.5}}


class TestUnreadKeys:
    """A model key the config's kind never reads is a schema error, not a
    silently ignored object."""

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "anomalous", "system": SKELETON, "law": BBM_LAW}, "law"),
        ({"kind": "verify", "law": BBM_LAW}, "law"),
        ({"kind": "speed", "law": BBM_LAW, "system": SKELETON}, "system"),
        ({"kind": "front", "law": BBM_LAW, "system": SKELETON, "n_max": 5}, "system"),
        ({"kind": "verify", "system": SKELETON}, "system"),
        ({"kind": "simulate", "law": BBM_LAW, "system": SKELETON, "n_max": 5,
          "budget": 200, "replicates": 1}, "system"),
    ], ids=["law_for_anomalous", "law_for_verify", "system_for_speed",
            "system_for_front", "system_for_verify", "simulate_with_both"])
    def test_exit_code_and_key_path(self, tmp_path, capsys, monkeypatch, cfg, path):
        from brwlab import acceptance
        monkeypatch.setattr(acceptance, "ALL_CHECKS", [])   # a verify run is instant
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(cfg, seed=1)))
        assert main([cfg["kind"], "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err


class TestKeysNotRead:
    """A known top-level key the config's kind never reads is a schema
    error at that key, not a silently ignored control."""

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "speed", "law": BBM_LAW, "n_max": 50}, "n_max"),
        ({"kind": "anomalous", "system": SKELETON, "replicates": 4}, "replicates"),
        ({"kind": "simulate", "system": SKELETON, "n_max": 5, "budget": 200,
          "replicates": 1, "a_values": [0.0]}, "a_values"),
        ({"kind": "front", "law": BBM_LAW, "n_max": 5, "window": 5.0}, "window"),
        ({"kind": "verify", "snapshots": [10]}, "snapshots"),
    ], ids=["n_max_for_speed", "replicates_for_anomalous",
            "a_values_for_two_type_simulate", "window_for_front",
            "snapshots_for_verify"])
    def test_exit_code_and_key_path(self, tmp_path, capsys, monkeypatch, cfg, path):
        from brwlab import acceptance
        monkeypatch.setattr(acceptance, "ALL_CHECKS", [])   # a verify run is instant
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(cfg, seed=1)))
        assert main([cfg["kind"], "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 2
        assert f"schema error at {path}: not read by kind={cfg['kind']}" \
            in capsys.readouterr().err

    def test_speed_with_every_unread_control(self):
        extra = dict(n_max=50, budget=1000, replicates=3, snapshots=[10],
                     a_values=[0.0], h=0.02, window=5.0)
        with pytest.raises(SchemaError) as err:
            parse_config(minimal(**extra))
        assert {p for p, _ in err.value.problems} == set(extra)


TWO_POINT = {"kind": "two_point", "low": -0.5, "high": 1.0, "prob_high": 0.3}
TWO_LAWS = {"nu": BBM_LAW, "eta": dict(BBM_LAW, displacement=TWO_POINT),
            "seed_prob": 0.5}


def run_main(tmp_path, cfg, *flags):
    """Exit code of the CLI on cfg (seed 1 unless cfg has one)."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict({"seed": 1}, **cfg)))
    return main([cfg["kind"], "--config", str(p), "--out",
                 str(tmp_path / "out"), *flags])


class TestLeafErrors:
    """One bad value for each leaf key no other test covers: exactly one
    problem, at that key's path."""

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "speed", "law": dict(BBM_LAW, displacement=dict(
            TWO_POINT, prob_high=1.0))}, "law.displacement.prob_high"),
        ({"kind": "speed", "law": dict(BBM_LAW, displacement=dict(
            TWO_POINT, kind="three_point"))}, "law.displacement.kind"),
        ({"kind": "anomalous", "system": {"skeleton": {"V": 0, "lambda": 3.0,
                                                       "p": 0.5}}},
         "system.skeleton.V"),
        ({"kind": "anomalous", "system": {"skeleton": {"V": 1.0, "lambda": "3",
                                                       "p": 0.5}}},
         "system.skeleton.lambda"),
        ({"kind": "anomalous", "system": {"skeleton": {"V": 1.0, "lambda": 3.0,
                                                       "p": 1.5}}},
         "system.skeleton.p"),
        ({"kind": "anomalous", "system": dict(TWO_LAWS, seed_prob=-0.1)},
         "system.seed_prob"),
        ({"kind": "anomalous", "system": dict(TWO_LAWS, seed_displacement={
            "kind": "cauchy", "value": 0.0})}, "system.seed_displacement.kind"),
        ({"kind": "speed", "law": dict(BBM_LAW, mechanism="shared")},
         "law.mechanism"),
        ({"kind": "simulate", "law": BBM_LAW, "budget": 0}, "budget"),
        ({"kind": "simulate", "law": BBM_LAW, "replicates": 2.0}, "replicates"),
        ({"kind": "simulate", "law": BBM_LAW, "window": "15"}, "window"),
        ({"kind": "speed", "law": BBM_LAW, "out": 3}, "out"),
        ({"kind": "front", "law": BBM_LAW, "snapshots": [0]}, "snapshots"),
    ], ids=["prob_high", "displacement_kind", "skeleton_V", "skeleton_lambda",
            "skeleton_p", "seed_prob", "seed_displacement_kind", "mechanism",
            "budget", "replicates", "window", "out", "snapshots"])
    def test_key_path(self, cfg, path):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(dict(cfg, seed=1)))
        assert [p for p, _ in err.value.problems] == [path]


NAN, INF = float("nan"), float("inf")


class TestRejectedInputs:
    """Inputs that once ran, crashed or failed a check: each is a schema
    error (exit 2) at its key path."""

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "speed", "law": dict(BBM_LAW, displacement={
            "kind": "gaussian", "mean": NAN, "variance": 1.0})},
         "law.displacement.mean"),
        ({"kind": "front", "law": BBM_LAW, "n_max": 5, "h": INF}, "h"),
        ({"kind": "speed", "law": dict(BBM_LAW, mean=INF)}, "law.mean"),
        ({"kind": "speed", "law": BBM_LAW, "expect": {"speed": NAN}},
         "expect.speed"),
        ({"kind": "simulate", "law": BBM_LAW, "n_max": 5, "budget": 200,
          "replicates": 1, "a_values": [True, NAN]}, "a_values"),
    ], ids=["nan_displacement_mean", "infinite_h", "infinite_law_mean",
            "nan_expected_speed", "bool_and_nan_a_values"])
    def test_non_finite_number(self, tmp_path, capsys, cfg, path):
        assert run_main(tmp_path, cfg) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "anomalous", "system": dict(SKELETON, nu="garbage")},
         "system.nu"),
        ({"kind": "anomalous", "system": dict(SKELETON, eta=BBM_LAW)},
         "system.eta"),
        ({"kind": "anomalous", "system": dict(SKELETON, seed_prob=7)},
         "system.seed_prob"),
        ({"kind": "anomalous", "system": dict(SKELETON, seed_displacement={
            "kind": "point", "value": 0.0})}, "system.seed_displacement"),
        ({"kind": "front", "law": BBM_LAW, "n_max": 5, "snapshots": [True]},
         "snapshots"),
        ({"kind": "front", "law": BBM_LAW, "n_max": 20, "snapshots": [10, 500]},
         "snapshots"),
        ({"kind": "front", "law": BBM_LAW, "snapshots": [201]}, "snapshots"),
    ], ids=["nu_with_skeleton", "eta_with_skeleton", "seed_prob_with_skeleton",
            "seed_displacement_with_skeleton", "bool_snapshot",
            "snapshot_past_n_max", "snapshot_past_default_n_max"])
    def test_ignored_key(self, tmp_path, capsys, cfg, path):
        assert run_main(tmp_path, cfg) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, path", [
        ({"kind": "speed", "law": dict(BBM_LAW, mean=10 ** 400)}, "law.mean"),
        ({"kind": "speed", "law": dict(BBM_LAW, displacement={
            "kind": "point", "value": 10 ** 400})}, "law.displacement.value"),
        ({"kind": "anomalous", "system": {"skeleton": {"V": 1 / 3, "lambda": 1e300,
                                                       "p": 0.5}}}, "system"),
        ({"kind": "anomalous", "system": {"skeleton": {"V": 1 / 3, "lambda": 710.0,
                                                       "p": 0.5}}}, "system"),
    ], ids=["int_law_mean", "int_point_value", "lambda_1e300", "lambda_710"])
    def test_out_of_float_range(self, tmp_path, capsys, cfg, path):
        # a 401-digit integer literal, or exp(lambda) past the float range
        assert run_main(tmp_path, cfg) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err

    def test_deterministic_count_past_int64(self, tmp_path, capsys):
        # the samplers hold family sizes in int64
        cfg = {"kind": "simulate", "law": dict(BBM_LAW, offspring="deterministic",
                                               mean=1e300),
               "n_max": 5, "budget": 100, "replicates": 1}
        assert run_main(tmp_path, cfg) == 2
        assert "schema error at law:" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = {"kind": "simulate", "law": BBM_LAW, "n_max": 5, "budget": 200,
               "replicates": 1}
        assert run_main(tmp_path, cfg, "--seed", "-2000") == 2
        assert "schema error at seed:" in capsys.readouterr().err


README_LAW = {"offspring": "geometric", "mean": 2.718281828459045,
              "displacement": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
              "mechanism": "independent"}
README_CONTROLS = {"n_max": 200, "budget": 100000, "window": 15.0,
                   "replicates": 32, "expect": {"speed": 1.4142, "rel_tol": 0.05},
                   "out": "results"}
README_SYSTEM = {"nu": README_LAW, "eta": README_LAW, "seed_prob": 0.5,
                 "seed_displacement": {"kind": "point", "value": 0.0}}
SKELETON_3 = {"skeleton": {"V": 1 / 3, "lambda": 3.0, "p": 0.5}}
SKELETON_1 = {"skeleton": {"V": 1.0, "lambda": 1.0, "p": 0.0}}


class TestRoundTrip:
    """Every valid config this module runs, the README sample trimmed to
    the keys its kind reads, and a few more, parse to these configs."""

    @pytest.mark.parametrize("cfg, expected", [
        (minimal(), ExperimentConfig("speed", 7, law=BBM_LAW)),
        (minimal(expect={"speed": math.sqrt(2), "rel_tol": 1e-4}),
         ExperimentConfig("speed", 7, law=BBM_LAW,
                          expect={"speed": math.sqrt(2), "rel_tol": 1e-4})),
        (minimal(expect={"speed": 2.0, "rel_tol": 1e-3}),
         ExperimentConfig("speed", 7, law=BBM_LAW,
                          expect={"speed": 2.0, "rel_tol": 1e-3})),
        (json.dumps({"kind": "anomalous", "seed": 3, "system": SKELETON_3,
                     "expect": {"speed": 4 / math.sqrt(6), "rel_tol": 1e-4}}),
         ExperimentConfig("anomalous", 3, system=SKELETON_3,
                          expect={"speed": 4 / math.sqrt(6), "rel_tol": 1e-4})),
        (minimal(kind="simulate", n_max=30, budget=2000, replicates=2,
                 a_values=[0.0]),
         ExperimentConfig("simulate", 7, law=BBM_LAW, n_max=30, budget=2000,
                          replicates=2, a_values=(0.0,))),
        (json.dumps({"kind": "simulate", "seed": 5, "n_max": 15, "budget": 2000,
                     "replicates": 2, "system": SKELETON_1}),
         ExperimentConfig("simulate", 5, system=SKELETON_1, n_max=15,
                          budget=2000, replicates=2)),
        (minimal(kind="simulate", n_max=20, budget=1000, replicates=2),
         ExperimentConfig("simulate", 7, law=BBM_LAW, n_max=20, budget=1000,
                          replicates=2)),
        (minimal(kind="simulate", n_max=10, budget=500, replicates=1),
         ExperimentConfig("simulate", 7, law=BBM_LAW, n_max=10, budget=500,
                          replicates=1)),
        (minimal(kind="front", n_max=40, h=0.02, snapshots=[10]),
         ExperimentConfig("front", 7, law=BBM_LAW, n_max=40, h=0.02,
                          snapshots=(10,))),
        (json.dumps({"kind": "anomalous", "seed": 1, "system": TWO_LAWS}),
         ExperimentConfig("anomalous", 1, system=TWO_LAWS)),
        (json.dumps({"kind": "verify", "seed": 0}), ExperimentConfig("verify", 0)),
        (json.dumps(dict(README_CONTROLS, kind="simulate", seed=1234,
                         law=README_LAW, a_values=[0.0, 0.5, 1.0])),
         ExperimentConfig("simulate", 1234, law=README_LAW, n_max=200,
                          budget=100000, window=15.0, replicates=32,
                          out="results", a_values=(0.0, 0.5, 1.0),
                          expect={"speed": 1.4142, "rel_tol": 0.05})),
        (json.dumps(dict(README_CONTROLS, kind="simulate", seed=1234,
                         system=README_SYSTEM)),
         ExperimentConfig("simulate", 1234, system=README_SYSTEM, n_max=200,
                          budget=100000, window=15.0, replicates=32,
                          out="results",
                          expect={"speed": 1.4142, "rel_tol": 0.05})),
        (minimal(kind="front", h=0.01, n_max=3, snapshots=[1, 3]),
         ExperimentConfig("front", 7, law=BBM_LAW, n_max=3, snapshots=(1, 3))),
        (minimal(kind="simulate", a_values=[0, 1]),
         ExperimentConfig("simulate", 7, law=BBM_LAW, a_values=(0.0, 1.0))),
    ], ids=["speed", "speed_expect", "speed_expect_fail", "anomalous_skeleton",
            "simulate_one_type", "simulate_two_type", "simulate_repeat",
            "simulate_seed_flag", "front_snapshots", "anomalous_two_laws",
            "verify", "readme_law", "readme_system", "front_defaults",
            "integer_a_values"])
    def test_equal_config(self, cfg, expected):
        parsed = parse_config(cfg)
        assert parsed == expected
        assert all(type(a) is float for a in parsed.a_values)


class TestRunners:
    def test_speed_scenario(self, tmp_path):
        cfg = parse_config(minimal(expect={"speed": math.sqrt(2), "rel_tol": 1e-4}))
        code = run(cfg, out=str(tmp_path))
        assert code == 0
        report = (tmp_path / "speed_report.csv").read_text().splitlines()
        assert report[0].startswith("speed,")
        assert float(report[1].split(",")[0]) == pytest.approx(math.sqrt(2), abs=1e-6)
        assert (tmp_path / "rate_function.csv").exists()
        summary = (tmp_path / "summary.txt").read_text()
        assert "PASS" in summary
        residual = [line for line in summary.splitlines()
                    if line.startswith("root_residual=")]
        assert len(residual) == 1 and float(residual[0].split("=")[1]) < 1e-12

    def test_speed_scenario_check_failure(self, tmp_path):
        cfg = parse_config(minimal(expect={"speed": 2.0, "rel_tol": 1e-3}))
        assert run(cfg, out=str(tmp_path)) == 1
        assert "FAIL" in (tmp_path / "summary.txt").read_text()

    def test_anomalous_scenario_emits_figure(self, tmp_path):
        text = json.dumps({"kind": "anomalous", "seed": 3,
                           "system": {"skeleton": {"V": 1 / 3, "lambda": 3.0,
                                                   "p": 0.5}},
                           "expect": {"speed": 4 / math.sqrt(6),
                                      "rel_tol": 1e-4}})
        cfg = parse_config(text)
        sysm = build_system(cfg.system)
        assert sysm.law_nu.cumulant(0.0) == pytest.approx(3.0, abs=1e-12)
        assert run(cfg, out=str(tmp_path)) == 0
        fig = (tmp_path / "figure71.csv").read_text().splitlines()
        assert fig[0] == "a,kswept_nu,kdual_eta,cv"
        a, swept, dual_eta, cv = fig[1].split(",")
        assert float(a) == pytest.approx(-0.5)
        # zero crossing of the cv column near the anomalous speed
        rows = [line.split(",") for line in fig[1:]]
        cvs = np.array([float(r[3]) for r in rows])
        xs = np.array([float(r[0]) for r in rows])
        idx = np.flatnonzero((cvs[:-1] <= 0) & (cvs[1:] > 0))
        assert xs[idx[-1]] == pytest.approx(4 / math.sqrt(6), abs=2e-3)

    def test_simulate_one_type(self, tmp_path):
        cfg = parse_config(minimal(kind="simulate", n_max=30, budget=2000,
                                   replicates=2, a_values=[0.0]))
        assert run(cfg, out=str(tmp_path)) == 0
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "replicate,n,type,rightmost"
        assert len(traj) == 1 + 2 * 31
        assert (tmp_path / "counts.csv").exists()
        assert (tmp_path / "slopes.csv").exists()
        # Brunet-Derrida deficit of a 2000-particle beam: theta* = sqrt 2, k'' = 1
        summary = dict(line.split("=", 1) for line in
                       (tmp_path / "summary.txt").read_text().splitlines()
                       if line.startswith("predicted_beam_deficit="))
        L = math.log(2000) + 3.0 * math.log(math.log(2000))
        assert float(summary["predicted_beam_deficit"]) == pytest.approx(
            math.pi ** 2 * math.sqrt(2.0) / (2.0 * L * L), rel=1e-12)

    def test_simulate_one_type_builds_no_conjugate(self, tmp_path, monkeypatch):
        # slopes.csv and the summary read the speed and its tilt root alone
        def no_conjugate(*args, **kwargs):
            raise AssertionError("simulate built a conjugate it does not read")

        monkeypatch.setattr(speeds, "fenchel_dual", no_conjugate)
        cfg = parse_config(minimal(kind="simulate", n_max=10, budget=500,
                                   replicates=1))
        assert run(cfg, out=str(tmp_path)) == 0

    def test_simulate_two_type_no_seeding_has_no_eta_rows(self, tmp_path):
        text = json.dumps({"kind": "simulate", "seed": 5, "n_max": 15,
                           "budget": 2000, "replicates": 2,
                           "system": {"skeleton": {"V": 1.0, "lambda": 1.0,
                                                   "p": 0.0}}})
        cfg = parse_config(text)
        run(cfg, out=str(tmp_path))
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "nu" for r in rows)

    def test_simulate_two_type_expect_without_eta_fails(self, tmp_path):
        # no eta is ever present, so the mean eta speed is NaN: the check
        # must run and fail, not be skipped
        text = json.dumps({"kind": "simulate", "seed": 5, "n_max": 15,
                           "budget": 2000, "replicates": 2,
                           "system": {"skeleton": {"V": 1.0, "lambda": 1.0,
                                                   "p": 0.0}},
                           "expect": {"speed": 4 / math.sqrt(6)}})
        assert run(parse_config(text), out=str(tmp_path)) == 1
        summary = (tmp_path / "summary.txt").read_text()
        assert "mean_rightmost_eta_over_n=nan" in summary
        assert "check speed=nan" in summary and "FAIL" in summary

    def test_simulate_byte_identical_across_runs(self, tmp_path):
        cfg = parse_config(minimal(kind="simulate", n_max=20, budget=1000,
                                   replicates=2))
        run(cfg, out=str(tmp_path / "a"))
        run(cfg, out=str(tmp_path / "b"))
        for name in ("trajectory.csv", "counts.csv", "slopes.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_front_scenario_with_snapshots(self, tmp_path):
        cfg = parse_config(minimal(kind="front", n_max=40, h=0.02,
                                   snapshots=[10]))
        assert run(cfg, out=str(tmp_path)) == 0
        front = (tmp_path / "front.csv").read_text().splitlines()
        assert front[0] == "n,x_n,drift,profile_sup_diff"
        assert len(front) == 41
        assert (tmp_path / "profile_10.csv").exists()


class TestMain:
    def test_usage_error_exit_code(self):
        assert main(["speed"]) == 2  # missing --config

    def test_schema_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "speed"}')
        assert main(["speed", "--config", str(p)]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_kind_mismatch(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(minimal())
        assert main(["front", "--config", str(p)]) == 2

    def test_speed_end_to_end(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(minimal())
        assert main(["speed", "--config", str(p), "--out",
                     str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "speed_report.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(minimal(kind="simulate", n_max=10, budget=500, replicates=1))
        main(["simulate", "--config", str(p), "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(p), "--out", str(tmp_path / "b"),
              "--seed", "99"])
        ta = (tmp_path / "a" / "trajectory.csv").read_bytes()
        tb = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert ta != tb

    def test_threads_flag_gives_identical_output(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(minimal(kind="simulate", n_max=15, budget=500, replicates=3))
        main(["simulate", "--config", str(p), "--out", str(tmp_path / "seq")])
        main(["simulate", "--config", str(p), "--out", str(tmp_path / "par"),
              "--threads", "2"])
        assert (tmp_path / "seq" / "trajectory.csv").read_bytes() == \
            (tmp_path / "par" / "trajectory.csv").read_bytes()

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once per process; each call still reads its
        # own subcommand, flags and config
        speed = tmp_path / "speed.json"
        speed.write_text(minimal())
        front = tmp_path / "front.json"
        front.write_text(minimal(kind="front", n_max=5, h=0.05))
        assert main(["speed", "--config", str(speed), "--out",
                     str(tmp_path / "a")]) == 0
        assert main(["front", "--config", str(front), "--out",
                     str(tmp_path / "b")]) == 0
        assert main(["front", "--config", str(front), "--threads", "two"]) == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err
        assert main(["speed", "--config", str(speed), "--out",
                     str(tmp_path / "c")]) == 0
        assert (tmp_path / "a" / "speed_report.csv").read_bytes() == \
            (tmp_path / "c" / "speed_report.csv").read_bytes()
        assert (tmp_path / "b" / "front.csv").exists()
        assert not (tmp_path / "b" / "speed_report.csv").exists()

    def test_verify_exit_codes_with_stubbed_checks(self, tmp_path, monkeypatch):
        # the real acceptance suite runs in its own test module; here only
        # the wiring and exit-code semantics are exercised
        from brwlab import acceptance as acc
        from brwlab.acceptance import CheckResult

        def ok():
            return CheckResult(1, "stub ok", True, 0.0, 1.0, ["fine"])

        def bad():
            return CheckResult(2, "stub bad", False, 0.0, 1.0, ["broken"])

        monkeypatch.setattr(acc, "ALL_CHECKS", [ok])
        assert main(["verify", "--out", str(tmp_path / "ok")]) == 0
        summary = (tmp_path / "ok" / "summary.txt").read_text()
        assert "[PASS]" in summary and "fine" in summary
        monkeypatch.setattr(acc, "ALL_CHECKS", [ok, bad])
        assert main(["verify", "--out", str(tmp_path / "bad")]) == 1
        assert "[FAIL]" in (tmp_path / "bad" / "summary.txt").read_text()


def reference_write_csv(path, header, rows):
    """csv.writer over fmt of every value, arrays through .tolist()."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli.fmt(v) for v in row])
    return path


class TestReferenceBytes:
    """Every CLI kind writes the files and stdout that csv.writer over fmt
    writes for the same rows."""

    @pytest.mark.parametrize("cfg", [
        {"kind": "speed", "law": BBM_LAW},
        {"kind": "speed", "law": dict(BBM_LAW, displacement=TWO_POINT)},
        {"kind": "anomalous", "system": SKELETON},
        {"kind": "simulate", "law": BBM_LAW, "n_max": 20, "budget": 500,
         "replicates": 2, "a_values": [0, 0.5]},
        {"kind": "simulate", "system": SKELETON, "n_max": 15, "budget": 500,
         "replicates": 2},
        {"kind": "front", "law": BBM_LAW, "n_max": 20, "h": 0.05,
         "snapshots": [5, 20]},
    ], ids=["speed", "speed_two_point", "anomalous", "simulate_law",
            "simulate_system", "front_snapshots"])
    def test_files_and_stdout(self, tmp_path, capsys, monkeypatch, cfg):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(cfg, seed=3)))
        outputs = []
        for name in ("as_is", "reference"):
            if name == "reference":
                monkeypatch.setattr(cli, "write_csv", reference_write_csv)
            out = tmp_path / name
            assert main([cfg["kind"], "--config", str(p), "--out", str(out)]) == 0
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            outputs.append((files, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0]) > 1


def test_no_route_loads_scipy(tmp_path):
    """Every route runs on numpy alone: with scipy made unimportable,
    ``speed`` (a two-point step), ``anomalous``, ``front``, a one-type and
    a thinned two-type ``simulate``, the coupled front, the census and
    both exact batches all succeed."""
    script = textwrap.dedent("""
        import json, math, sys
        sys.modules["scipy"] = None     # any import of scipy now raises
        import brwlab, brwlab.cli
        from brwlab import mc_sim
        law = {"offspring": "poisson_positive", "mean": 2.5,
               "displacement": {"kind": "two_point", "low": -0.5, "high": 1.0,
                                "prob_high": 0.3}}
        gauss = {"offspring": "geometric", "mean": math.e,
                 "displacement": {"kind": "gaussian", "mean": 0.0, "variance": 1.0}}
        steep = {"offspring": "geometric", "mean": math.exp(3.0),
                 "displacement": {"kind": "gaussian", "mean": 0.0, "variance": 1 / 3}}
        skeleton = {"skeleton": {"V": 1 / 3, "lambda": 3.0, "p": 0.5}}
        # the reversed worked example: its eta beam, born about e^3 times its
        # budget, passes THIN_GATE and is thinned
        reversed_ = {"nu": gauss, "eta": steep, "seed_prob": 0.5}
        thinned = []
        branch = mc_sim._thinned
        mc_sim._thinned = lambda *a, **k: thinned.append(1) or branch(*a, **k)
        for kind, cfg in (("speed", {"law": law}), ("anomalous", {"system": skeleton}),
                          ("front", {"law": gauss, "n_max": 10, "h": 0.05}),
                          ("simulate", {"law": gauss, "n_max": 10, "budget": 200,
                                        "replicates": 1}),
                          ("simulate", {"system": reversed_, "n_max": 8, "budget": 200,
                                        "replicates": 1})):
            with open(kind + ".json", "w") as fh:
                json.dump(dict(cfg, kind=kind, seed=1), fh)
            code = brwlab.cli.main([kind, "--config", kind + ".json", "--out", kind])
            assert code == 0, (kind, code)
        assert thinned
        system = brwlab.skeleton_of_bbm(1 / 3, 3.0, 0.5)
        brwlab.coupled_front(system, 5, x_max=40.0)
        unit = brwlab.cli.build_law(gauss)
        brwlab.run_count_census(unit, 5, seed=1)
        brwlab.mc_consistency(unit, 3, [1.0, 2.0], 50, seed=1)
        brwlab.front.coupled_mc_consistency(system, 2, [1.0, 2.0], 20, seed=1)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "['scipy']"   # the blocker alone
