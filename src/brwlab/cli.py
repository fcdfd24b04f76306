"""Configuration-driven experiment runner.

Scenarios are described by JSON files with a closed schema (unknown
keys are rejected, every error is reported with its key path) and
dispatched by subcommand: ``speed``, ``anomalous``, ``simulate``,
``front``, ``verify``.  Each run writes CSV artifacts plus a
``summary.txt`` with the key numbers and the pass/fail outcome of any
configured tolerance checks.  Exit codes: 0 pass, 1 check failure,
2 usage/schema error, 3 runtime error.

A master seed is mandatory in every config; there is no wall-clock
default, so identical configs always produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import acceptance
from .errors import BrwLabError, ParamError, SchemaError
from .front import front_speed
from .mc_sim import (centering_slope, count_profile, predicted_beam_deficit,
                     run_one_type, run_two_type)
from .models import (
    Gaussian,
    OffspringLaw,
    PointMass,
    ReproductionLaw,
    Seeding,
    TwoPoint,
    TwoTypeSystem,
    skeleton_of_bbm,
)
from .speeds import TwoTypeAnalysis, one_type_speed
from .tables import fmt, write_csv

KINDS = ("speed", "anomalous", "simulate", "front", "verify")

_LAW_KEYS = {"offspring", "mean", "displacement", "mechanism"}
_DISPLACEMENT_KEYS = {
    "gaussian": {"kind", "mean", "variance"},
    "point": {"kind", "value"},
    "two_point": {"kind", "low", "high", "prob_high"},
}
_SYSTEM_KEYS = {"nu", "eta", "seed_prob", "seed_displacement", "skeleton"}
_EXPECT_KEYS = {"speed", "rel_tol"}
_COMMON_KEYS = {"kind", "seed", "out"}
_SIMULATE_KEYS = {"n_max", "budget", "window", "replicates", "expect"}
# The keys each kind reads beyond _COMMON_KEYS, by the model key it needs:
# one of them is required, and when several are given the first one wins.
_KIND_KEYS = {
    "speed": {"law": {"expect"}},
    "anomalous": {"system": {"expect"}},
    "simulate": {"law": _SIMULATE_KEYS | {"a_values"}, "system": _SIMULATE_KEYS},
    "front": {"law": {"n_max", "h", "snapshots", "expect"}},
    "verify": {},
}
_TOP_KEYS = _COMMON_KEYS.union(*({model} | keys for models in _KIND_KEYS.values()
                                 for model, keys in models.items()))


@dataclass
class ExperimentConfig:
    """Validated scenario description; law/system stay as plain dicts."""

    kind: str
    seed: int
    law: Optional[dict] = None
    system: Optional[dict] = None
    n_max: int = 200
    budget: int = 100_000
    window: float = 15.0
    h: float = 0.01
    replicates: int = 32
    out: str = "results"
    expect: Optional[dict] = None
    snapshots: Tuple[int, ...] = ()
    a_values: Tuple[float, ...] = (0.0, 0.5, 1.0)


def _check_displacement(d, path, problems):
    if not isinstance(d, dict):
        problems.append((path, "must be an object"))
        return
    kind = d.get("kind")
    if kind not in _DISPLACEMENT_KEYS:
        problems.append((f"{path}.kind", f"must be one of {sorted(_DISPLACEMENT_KEYS)}"))
        return
    allowed = _DISPLACEMENT_KEYS[kind]
    for key in d:
        if key not in allowed:
            problems.append((f"{path}.{key}", "unknown key"))
    for key in allowed - {"kind"}:
        if key not in d:
            problems.append((f"{path}.{key}", "missing"))
        elif not isinstance(d[key], (int, float)) or isinstance(d[key], bool):
            problems.append((f"{path}.{key}", "must be a number"))
    if kind == "gaussian" and isinstance(d.get("variance"), (int, float)) \
            and d["variance"] <= 0:
        problems.append((f"{path}.variance", "must be positive"))
    if kind == "two_point":
        p = d.get("prob_high")
        if isinstance(p, (int, float)) and not 0 < p < 1:
            problems.append((f"{path}.prob_high", "must be in (0, 1)"))


def _check_law(law, path, problems):
    if not isinstance(law, dict):
        problems.append((path, "must be an object"))
        return
    for key in law:
        if key not in _LAW_KEYS:
            problems.append((f"{path}.{key}", "unknown key"))
    off = law.get("offspring")
    if off not in ("deterministic", "geometric", "poisson_positive"):
        problems.append((f"{path}.offspring",
                         "must be deterministic, geometric, or poisson_positive"))
    mean = law.get("mean")
    if not isinstance(mean, (int, float)) or isinstance(mean, bool) or mean < 1:
        problems.append((f"{path}.mean", "must be a number >= 1"))
    if "displacement" not in law:
        problems.append((f"{path}.displacement", "missing"))
    else:
        _check_displacement(law["displacement"], f"{path}.displacement", problems)
    mech = law.get("mechanism", "independent")
    if mech not in ("independent", "common"):
        problems.append((f"{path}.mechanism", "must be independent or common"))


def _check_system(system, path, problems):
    if not isinstance(system, dict):
        problems.append((path, "must be an object"))
        return
    for key in system:
        if key not in _SYSTEM_KEYS:
            problems.append((f"{path}.{key}", "unknown key"))
    if "skeleton" in system:
        sk = system["skeleton"]
        if not isinstance(sk, dict):
            problems.append((f"{path}.skeleton", "must be an object"))
            return
        for key in sk:
            if key not in {"V", "lambda", "p"}:
                problems.append((f"{path}.skeleton.{key}", "unknown key"))
        for key in ("V", "lambda", "p"):
            v = sk.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                problems.append((f"{path}.skeleton.{key}", "must be a number"))
            elif key != "p" and v <= 0:
                problems.append((f"{path}.skeleton.{key}", "must be positive"))
            elif key == "p" and not 0 <= v <= 1:
                problems.append((f"{path}.skeleton.p", "must be in [0, 1]"))
        return
    for cls in ("nu", "eta"):
        if cls not in system:
            problems.append((f"{path}.{cls}", "missing"))
        else:
            _check_law(system[cls], f"{path}.{cls}", problems)
    p = system.get("seed_prob")
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not 0 <= p <= 1:
        problems.append((f"{path}.seed_prob", "must be a number in [0, 1]"))
    if "seed_displacement" in system:
        _check_displacement(system["seed_displacement"],
                            f"{path}.seed_displacement", problems)


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON scenario; raises SchemaError carrying every problem."""
    problems: List[Tuple[str, str]] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("<json>", str(exc))]) from exc
    if not isinstance(raw, dict):
        raise SchemaError([("<top>", "config must be a JSON object")])
    kind = raw.get("kind")
    if kind not in KINDS:
        problems.append(("kind", f"must be one of {KINDS}"))
        reads = _TOP_KEYS
    else:
        models = _KIND_KEYS[kind]
        model = next((m for m in models if m in raw), next(iter(models), None))
        reads = set(_COMMON_KEYS)
        if model is not None:
            reads |= {model} | models[model]
            if model not in raw:
                problems.append((model, f"kind={kind} needs {' or '.join(models)}"))
    for key in raw:
        if key not in _TOP_KEYS:
            problems.append((key, "unknown key"))
        elif key not in reads:
            problems.append((key, f"not read by kind={kind}"))
    if "seed" not in raw:
        problems.append(("seed", "missing: a master seed is mandatory"))
    elif not isinstance(raw["seed"], int) or isinstance(raw["seed"], bool) \
            or raw["seed"] < 0:
        problems.append(("seed", "must be a nonnegative integer"))
    for key, typ in (("n_max", int), ("budget", int), ("replicates", int)):
        if key in raw and (not isinstance(raw[key], int)
                           or isinstance(raw[key], bool) or raw[key] <= 0):
            problems.append((key, "must be a positive integer"))
    for key in ("window", "h"):
        if key in raw and (not isinstance(raw[key], (int, float))
                           or isinstance(raw[key], bool) or raw[key] <= 0):
            problems.append((key, "must be a positive number"))
    if "out" in raw and not isinstance(raw["out"], str):
        problems.append(("out", "must be a string"))
    if "snapshots" in raw:
        s = raw["snapshots"]
        if not isinstance(s, list) or any(not isinstance(v, int) or v <= 0 for v in s):
            problems.append(("snapshots", "must be a list of positive integers"))
    if "a_values" in raw:
        s = raw["a_values"]
        if not isinstance(s, list) or any(not isinstance(v, (int, float)) for v in s):
            problems.append(("a_values", "must be a list of numbers"))
    if "expect" in raw:
        e = raw["expect"]
        if not isinstance(e, dict):
            problems.append(("expect", "must be an object"))
        else:
            for key in e:
                if key not in _EXPECT_KEYS:
                    problems.append((f"expect.{key}", "unknown key"))
            for key in _EXPECT_KEYS:
                if key in e and (not isinstance(e[key], (int, float))
                                 or isinstance(e[key], bool)):
                    problems.append((f"expect.{key}", "must be a number"))
                elif key == "rel_tol" and key in e and e[key] <= 0:
                    problems.append(("expect.rel_tol", "must be positive"))
    if "law" in raw:
        _check_law(raw["law"], "law", problems)
    if "system" in raw:
        _check_system(raw["system"], "system", problems)
    if not problems:
        # The key and type checks passed, so the constructors can run; they
        # catch what those checks do not (a fractional deterministic count,
        # a positive-Poisson mean of 1, two-point values out of order).
        for key, build in (("law", build_law), ("system", build_system)):
            if key in raw:
                try:
                    build(raw[key])
                except ParamError as exc:
                    problems.append((key, str(exc)))
    if problems:
        raise SchemaError(problems)
    cfg = ExperimentConfig(kind=kind, seed=raw["seed"])
    for key in ("law", "system", "n_max", "budget", "window", "h",
                "replicates", "out", "expect"):
        if key in raw:
            setattr(cfg, key, raw[key])
    if "snapshots" in raw:
        cfg.snapshots = tuple(raw["snapshots"])
    if "a_values" in raw:
        cfg.a_values = tuple(float(v) for v in raw["a_values"])
    return cfg


def build_displacement(d: dict):
    if d["kind"] == "gaussian":
        return Gaussian(float(d["mean"]), float(d["variance"]))
    if d["kind"] == "point":
        return PointMass(float(d["value"]))
    return TwoPoint(float(d["low"]), float(d["high"]), float(d["prob_high"]))


def build_law(law: dict) -> ReproductionLaw:
    return ReproductionLaw(
        OffspringLaw(law["offspring"], float(law["mean"])),
        build_displacement(law["displacement"]),
        law.get("mechanism", "independent"),
    )


def build_system(system: dict) -> TwoTypeSystem:
    if "skeleton" in system:
        sk = system["skeleton"]
        return skeleton_of_bbm(float(sk["V"]), float(sk["lambda"]), float(sk["p"]))
    seed_disp = (build_displacement(system["seed_displacement"])
                 if "seed_displacement" in system else PointMass(0.0))
    return TwoTypeSystem(build_law(system["nu"]), build_law(system["eta"]),
                         Seeding(float(system["seed_prob"]), seed_disp))


# --------------------------------------------------------------------------
# scenario runners
# --------------------------------------------------------------------------

def _summary(out_dir: Path, lines: List[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _expect_check(value: float, expect: Optional[dict], lines: List[str]) -> bool:
    if not expect or "speed" not in expect:
        return True
    rel = float(expect.get("rel_tol", 1e-4))
    target = float(expect["speed"])
    ok = abs(value - target) <= rel * abs(target)
    lines.append(f"check speed={fmt(value)} vs {fmt(target)} rel_tol={rel:g}: "
                 f"{'PASS' if ok else 'FAIL'}")
    return ok


def run_speed(cfg: ExperimentConfig, out_dir: Path) -> int:
    law = build_law(cfg.law)
    res = one_type_speed(law)
    write_csv(out_dir / "speed_report.csv",
              ["speed", "tilt_root", "tilt_argmin", "speed_from_dual",
               "speed_from_inf"],
              [[res.speed,
                math.nan if res.tilt_root is None else res.tilt_root,
                math.nan if res.tilt_argmin is None else res.tilt_argmin,
                res.diagnostics["speed_from_dual"],
                res.diagnostics["speed_from_inf"]]])
    rate = res.rate_function
    write_csv(out_dir / "rate_function.csv", ["a", "value"],
              np.column_stack((rate.xs, rate.ys)))
    residual = res.diagnostics.get("root_residual")
    lines = [f"speed={fmt(res.speed)}",
             f"tilt_root={fmt(res.tilt_root) if res.tilt_root is not None else 'absent'}",
             f"formula_gap={fmt(res.diagnostics['formula_gap'])}",
             f"root_residual={fmt(residual) if residual is not None else 'absent'}"]
    ok = _expect_check(res.speed, cfg.expect, lines)
    _summary(out_dir, lines)
    return 0 if ok else 1


def run_anomalous(cfg: ExperimentConfig, out_dir: Path) -> int:
    analysis = TwoTypeAnalysis(build_system(cfg.system))
    rep = analysis.report
    rev = analysis.reversed_speed()
    exp = analysis.expected_numbers_speed()
    write_csv(out_dir / "anomalous_report.csv",
              ["speed_nu", "speed_eta", "speed", "route_minorant",
               "route_formula", "reversed_speed", "expected_numbers_speed",
               "anomalous"],
              [[rep.speed_nu, rep.speed_eta, rep.speed, rep.route_minorant,
                rep.route_formula, rev, exp, rep.anomalous]])
    write_csv(out_dir / "figure71.csv", ["a", "kswept_nu", "kdual_eta", "cv"],
              analysis.figure_table())
    lines = [f"speed_nu={fmt(rep.speed_nu)}", f"speed_eta={fmt(rep.speed_eta)}",
             f"speed={fmt(rep.speed)}",
             f"route_minorant={fmt(rep.route_minorant)}",
             f"route_formula={fmt(rep.route_formula)}",
             f"reversed_speed={fmt(rev)}",
             f"expected_numbers_speed={fmt(exp)}",
             f"anomalous={fmt(rep.anomalous)}"]
    ok = _expect_check(rep.speed, cfg.expect, lines)
    _summary(out_dir, lines)
    return 0 if ok else 1


def _one_type_replicate(args):
    law_dict, n_max, budget, window, seed, r = args
    law = build_law(law_dict)
    return run_one_type(law, n_max, budget=budget, window=window,
                        seed=seed + 1000 + r)


def _two_type_replicate(args):
    system_dict, n_max, budget, window, seed, r = args
    sysm = build_system(system_dict)
    return run_two_type(sysm, n_max, budget=budget, window=window,
                        seed=seed + 1000 + r)


def _map_replicates(worker, jobs, threads: int):
    if threads <= 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, jobs))  # order preserves replicate index


def run_simulate(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> int:
    lines = []
    ok = True
    if cfg.system is not None:
        jobs = [(cfg.system, cfg.n_max, cfg.budget, cfg.window, cfg.seed, r)
                for r in range(cfg.replicates)]
        stats = _map_replicates(_two_type_replicate, jobs, threads)
        rows = []
        for r, s in enumerate(stats):
            for n in range(cfg.n_max + 1):
                rows.append([r, n, "nu", s.rightmost_nu[n]])
                if not math.isnan(s.rightmost_eta[n]):
                    rows.append([r, n, "eta", s.rightmost_eta[n]])
        write_csv(out_dir / "trajectory.csv",
                  ["replicate", "n", "type", "rightmost"], rows)
        eta_final = [s.rightmost_eta[cfg.n_max] / cfg.n_max for s in stats
                     if not math.isnan(s.rightmost_eta[cfg.n_max])]
        mean_eta = float(np.mean(eta_final)) if eta_final else math.nan
        lines.append(f"replicates={cfg.replicates} n_max={cfg.n_max}")
        lines.append(f"mean_rightmost_eta_over_n={fmt(mean_eta)}")
        if eta_final:
            ok = _expect_check(mean_eta, cfg.expect, lines)
    else:
        law = build_law(cfg.law)
        jobs = [(cfg.law, cfg.n_max, cfg.budget, cfg.window, cfg.seed, r)
                for r in range(cfg.replicates)]
        stats = _map_replicates(_one_type_replicate, jobs, threads)
        rows = []
        count_rows = []
        for r, s in enumerate(stats):
            for n in range(cfg.n_max + 1):
                rows.append([r, n, "nu", s.rightmost[n]])
            for a, n, val in count_profile(s, cfg.a_values):
                count_rows.append([r, n, a, val])
        write_csv(out_dir / "trajectory.csv",
                  ["replicate", "n", "type", "rightmost"], rows)
        write_csv(out_dir / "counts.csv",
                  ["replicate", "n", "a", "log_count_over_n"], count_rows)
        speed = one_type_speed(law)
        fit = centering_slope(stats, speed.speed, speed.tilt_root)
        write_csv(out_dir / "slopes.csv",
                  ["slope", "stderr", "speed", "tilt_root"],
                  [[fit.slope, fit.stderr, speed.speed,
                    math.nan if speed.tilt_root is None else speed.tilt_root]])
        mean_final = float(np.mean([s.rightmost[cfg.n_max] for s in stats])) / cfg.n_max
        lines.append(f"replicates={cfg.replicates} n_max={cfg.n_max}")
        lines.append(f"mean_rightmost_over_n={fmt(mean_final)}")
        lines.append(f"centering_slope={fmt(fit.slope)} stderr={fmt(fit.stderr)}")
        lines.append("predicted_beam_deficit="
                     + fmt(predicted_beam_deficit(law, speed.tilt_root, cfg.budget)))
        ok = _expect_check(mean_final, cfg.expect, lines)
    _summary(out_dir, lines)
    return 0 if ok else 1


def run_front(cfg: ExperimentConfig, out_dir: Path) -> int:
    law = build_law(cfg.law)
    res, snaps = front_speed(law, cfg.n_max, h=cfg.h, snapshot_at=cfg.snapshots)
    rows = [[n, x, dx, res.sup_diffs[n - 1]] for n, x, dx in res.drift]
    write_csv(out_dir / "front.csv", ["n", "x_n", "drift", "profile_sup_diff"], rows)
    for n, prof in snaps.items():
        write_csv(out_dir / f"profile_{n}.csv", ["x", "u"],
                  np.column_stack((prof.grid(), prof.values)))
    lines = [f"front_speed={fmt(res.speed)}",
             f"final_sup_diff={fmt(float(res.sup_diffs[-1]))}"]
    ok = _expect_check(res.speed, cfg.expect, lines)
    _summary(out_dir, lines)
    return 0 if ok else 1


def run_verify(out_dir: Path) -> int:
    lines: List[str] = []
    results = acceptance.run_all(emit=lines.append)
    _summary(out_dir, lines)
    return 0 if all(r.passed for r in results) else 1


def run(cfg: ExperimentConfig, out: Optional[str] = None, threads: int = 1) -> int:
    out_dir = Path(out if out is not None else cfg.out)
    if cfg.kind == "speed":
        return run_speed(cfg, out_dir)
    if cfg.kind == "anomalous":
        return run_anomalous(cfg, out_dir)
    if cfg.kind == "simulate":
        return run_simulate(cfg, out_dir, threads)
    if cfg.kind == "front":
        return run_front(cfg, out_dir)
    return run_verify(out_dir)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="brwlab",
        description="spreading speeds of branching random walks: "
                    "convex-duality calculations, Monte Carlo, and front recursion")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", type=Path, required=(kind != "verify"))
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify" and args.config is None:
            return run_verify(Path(args.out if args.out else "results"))
        cfg = parse_config(Path(args.config).read_text())
        if cfg.kind != args.command:
            print(f"config kind {cfg.kind!r} does not match subcommand "
                  f"{args.command!r}", file=sys.stderr)
            return 2
        if args.seed is not None:
            cfg.seed = args.seed
        return run(cfg, out=args.out, threads=args.threads)
    except SchemaError as exc:
        for path, reason in exc.problems:
            print(f"schema error at {path}: {reason}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrwLabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
