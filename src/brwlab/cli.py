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
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import acceptance
from .convex_analysis import speed_from_inf
from .errors import BrwLabError, ParamError, SchemaError
from .front import front_speed
from .mc_sim import (centering_slope, count_profile, map_replicates,
                     predicted_beam_deficit, run_one_type, run_two_type)
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

_SIMULATE_KEYS = {"n_max", "budget", "window", "replicates", "expect"}
# The keys each kind reads beyond kind, seed and out, by the model key it
# needs: one of them is required, and when several are given the first one wins.
_KIND_KEYS = {
    "speed": {"law": {"expect"}},
    "anomalous": {"system": {"expect"}},
    "simulate": {"law": _SIMULATE_KEYS | {"a_values"}, "system": _SIMULATE_KEYS},
    "front": {"law": {"n_max", "h", "snapshots", "expect"}},
    "verify": {},
}


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


def _finite(v) -> bool:
    """The test of every numeric leaf: an int or a float that converts to
    a finite float (json reads NaN, Infinity and integers of any size).  A
    bool is not a number."""
    if type(v) is int:
        try:
            v = float(v)
        except OverflowError:
            return False
    return type(v) is float and math.isfinite(v)


def _one_of(*values: str):
    return (lambda v: v in values), "must be one of " + ", ".join(values)


_NUMBER = _finite, "must be a finite number"
_POSITIVE = (lambda v: _finite(v) and v > 0), "must be a positive finite number"
_UNIT = (lambda v: _finite(v) and 0 <= v <= 1), "must be a finite number in [0, 1]"
_COUNT = (lambda v: _finite(v) and type(v) is int and v > 0), "must be a positive integer"
_SEED = (lambda v: _finite(v) and type(v) is int and v >= 0), "must be a nonnegative integer"
_DISPLACEMENT_KIND = _one_of("gaussian", "point", "two_point")


# A union picks the object that applies from the value's own keys.  It
# returns the object's key set, the reason for a key of one of its other
# objects and those keys, or None when it cannot pick (and says why).
def _displacement(d: dict, path: str, problems: list):
    kind = d.get("kind")
    if _DISPLACEMENT_KIND[0](kind):
        return (_OBJECTS[kind], f"not read by kind={kind}",
                {**_OBJECTS["gaussian"], **_OBJECTS["point"], **_OBJECTS["two_point"]})
    problems.append((f"{path}.kind", _DISPLACEMENT_KIND[1]))


def _system(system: dict, path: str, problems: list):
    form = "skeleton" if "skeleton" in system else "system"
    return _OBJECTS[form], "not read next to skeleton", _OBJECTS["system"]


def _config(raw: dict, path: str, problems: list):
    """The present keys raw's kind reads (all for a bad kind) and the kind:
    the kind, the seed and the kind's model key are required."""
    kind = raw.get("kind")
    reads = _OBJECTS["config"].keys()
    if kind in KINDS:
        models = _KIND_KEYS[kind]
        model = next((m for m in models if m in raw), next(iter(models), None))
        reads = {"kind", "seed", "out"}
        if model is not None:
            reads |= {model} | models[model]
            if model not in raw:
                problems.append((model, f"kind={kind} needs {' or '.join(models)}"))
    if "seed" not in raw:
        problems.append(("seed", "missing: a master seed is mandatory"))
    return ({key: _OBJECTS["config"][key] for key in reads & raw.keys() | {"kind"}},
            f"not read by kind={kind}", _OBJECTS["config"])


# Each object's closed key set: a key maps to a leaf (test, reason), to an
# object (by name or inline) or to a union.  A leaf's value is bad when its
# test is false.  Every key is required except those in _OPTIONAL.
_OPTIONAL = {"mechanism", "seed_displacement", "speed", "rel_tol"}
_OBJECTS = {
    "gaussian": {"kind": _DISPLACEMENT_KIND, "mean": _NUMBER, "variance": _POSITIVE},
    "point": {"kind": _DISPLACEMENT_KIND, "value": _NUMBER},
    "two_point": {"kind": _DISPLACEMENT_KIND, "low": _NUMBER, "high": _NUMBER,
                  "prob_high": ((lambda v: _finite(v) and 0 < v < 1),
                                "must be a finite number in (0, 1)")},
    "law": {"offspring": _one_of("deterministic", "geometric", "poisson_positive"),
            "mean": ((lambda v: _finite(v) and v >= 1), "must be a finite number >= 1"),
            "displacement": _displacement,
            "mechanism": _one_of("independent", "common")},
    "system": {"nu": "law", "eta": "law", "seed_prob": _UNIT,
               "seed_displacement": _displacement},
    "skeleton": {"skeleton": {"V": _POSITIVE, "lambda": _POSITIVE, "p": _UNIT}},
    "expect": {"speed": _NUMBER, "rel_tol": _POSITIVE},
    "config": {"kind": _one_of(*KINDS), "seed": _SEED,
               "out": ((lambda v: isinstance(v, str)), "must be a string"),
               "law": "law", "system": _system, "expect": "expect",
               "n_max": _COUNT, "budget": _COUNT, "replicates": _COUNT,
               "window": _POSITIVE, "h": _POSITIVE,
               "snapshots": ((lambda v: isinstance(v, list) and all(map(_COUNT[0], v))),
                             "must be a list of positive integers"),
               "a_values": ((lambda v: isinstance(v, list) and all(map(_finite, v))),
                            "must be a list of finite numbers")},
}


def _walk(value, spec, path: str, problems: List[Tuple[str, str]]) -> None:
    """Append (key path, reason) for every unknown, unread, missing or bad
    key of value against spec: a leaf, an object or a union."""
    if isinstance(spec, tuple):
        if not spec[0](value):
            problems.append((path, spec[1]))
        return
    if not isinstance(value, dict):
        problems.append((path or "<top>", "must be an object"))
        return
    unread, known = "", {}
    if callable(spec):
        chosen = spec(value, path, problems)
        if chosen is None:
            return
        spec, unread, known = chosen
    keys = _OBJECTS[spec] if isinstance(spec, str) else spec
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in keys:
            problems.append((prefix + key, unread if key in known else "unknown key"))
    for key, sub in keys.items():
        if key in value:
            _walk(value[key], sub, prefix + key, problems)
        elif key not in _OPTIONAL:
            problems.append((prefix + key, "missing"))


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON scenario; raises SchemaError carrying every problem."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("<json>", str(exc))]) from exc
    problems: List[Tuple[str, str]] = []
    _walk(raw, _config, "", problems)
    if not problems:
        # The key and type checks passed, so the constructors can run; they
        # and the snapshot bound catch what those checks do not (a
        # fractional deterministic count, a positive-Poisson mean of 1,
        # two-point values out of order, a snapshot the run never reaches).
        for key, build in (("law", build_law), ("system", build_system)):
            if key in raw:
                try:
                    build(raw[key])
                except ParamError as exc:
                    problems.append((key, str(exc)))
        n_max = raw.get("n_max", ExperimentConfig.n_max)
        if any(n > n_max for n in raw.get("snapshots", ())):
            problems.append(("snapshots", f"must not exceed n_max={n_max}"))
    if problems:
        raise SchemaError(problems)
    return ExperimentConfig(**dict(raw, **{
        key: tuple(map(cast, raw[key]))
        for key, cast in (("snapshots", int), ("a_values", float)) if key in raw}))


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


# Each runner writes its CSVs and returns its summary lines and the number
# an ``expect`` block checks; ``run`` checks it, writes summary.txt and exits.
Summary = Tuple[List[str], float]


def run_speed(cfg: ExperimentConfig, out_dir: Path) -> Summary:
    law = build_law(cfg.law)
    res = one_type_speed(law)
    write_csv(out_dir / "speed_report.csv",
              ["speed", "tilt_root", "tilt_argmin", "speed_from_dual",
               "speed_from_inf"],
              [[res.speed,
                math.nan if res.tilt_root is None else res.tilt_root,
                math.nan if res.tilt_argmin is None else res.tilt_argmin,
                res.diagnostics["speed_from_dual"],
                res.speed]])
    rate = res.rate_function
    write_csv(out_dir / "rate_function.csv", ["a", "value"],
              np.column_stack((rate.xs, rate.ys)))
    residual = res.diagnostics.get("root_residual")
    lines = [f"speed={fmt(res.speed)}",
             f"tilt_root={fmt(res.tilt_root) if res.tilt_root is not None else 'absent'}",
             f"formula_gap={fmt(res.diagnostics['formula_gap'])}",
             f"root_residual={fmt(residual) if residual is not None else 'absent'}"]
    return lines, res.speed


def run_anomalous(cfg: ExperimentConfig, out_dir: Path) -> Summary:
    analysis = TwoTypeAnalysis(build_system(cfg.system))
    rep = analysis.report
    # one name per number, in the order of the CSV columns and summary lines;
    # route_minorant is the route that gives speed
    report = {"speed_nu": rep.speed_nu, "speed_eta": rep.speed_eta, "speed": rep.speed,
              "route_minorant": rep.speed, "route_formula": rep.route_formula,
              "reversed_speed": analysis.reversed_speed(),
              "expected_numbers_speed": analysis.expected_numbers_speed(),
              "anomalous": rep.anomalous}
    write_csv(out_dir / "anomalous_report.csv", list(report), [list(report.values())])
    write_csv(out_dir / "figure71.csv", ["a", "kswept_nu", "kdual_eta", "cv"],
              analysis.figure_table())
    return [f"{name}={fmt(value)}" for name, value in report.items()], rep.speed


def _replicate(job):
    """Stats of replicate r of ``model``, a law or a system, by ``run``."""
    run, model, cfg, r = job
    return run(model, cfg.n_max, budget=cfg.budget, window=cfg.window,
               seed=cfg.seed + 1000 + r)


def run_simulate(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> Summary:
    law = build_law(cfg.law) if cfg.system is None else None
    run, model = ((run_one_type, law) if law is not None
                  else (run_two_type, build_system(cfg.system)))
    stats = map_replicates(_replicate, [(run, model, cfg, r)
                                        for r in range(cfg.replicates)], threads)
    lines = [f"replicates={cfg.replicates} n_max={cfg.n_max}"]
    rows = []
    for r, s in enumerate(stats):
        for n in range(cfg.n_max + 1):
            rows.append([r, n, "nu", s.rightmost[n]])
            if not math.isnan(s.rightmost_eta[n]):
                rows.append([r, n, "eta", s.rightmost_eta[n]])
    write_csv(out_dir / "trajectory.csv", ["replicate", "n", "type", "rightmost"], rows)
    if law is None:
        eta_final = [s.rightmost_eta[cfg.n_max] / cfg.n_max for s in stats
                     if not math.isnan(s.rightmost_eta[cfg.n_max])]
        mean_eta = float(np.mean(eta_final)) if eta_final else math.nan
        return lines + [f"mean_rightmost_eta_over_n={fmt(mean_eta)}"], mean_eta
    count_rows = [[r, n, a, val] for r, s in enumerate(stats)
                  for a, n, val in count_profile(s, cfg.a_values)]
    write_csv(out_dir / "counts.csv",
              ["replicate", "n", "a", "log_count_over_n"], count_rows)
    speed = speed_from_inf(law)
    fit = centering_slope(stats, speed.speed, speed.tilt_root)
    write_csv(out_dir / "slopes.csv",
              ["slope", "stderr", "speed", "tilt_root"],
              [[fit.slope, fit.stderr, speed.speed,
                math.nan if speed.tilt_root is None else speed.tilt_root]])
    mean_final = float(np.mean([s.rightmost[cfg.n_max] for s in stats])) / cfg.n_max
    lines += [f"mean_rightmost_over_n={fmt(mean_final)}",
              f"centering_slope={fmt(fit.slope)} stderr={fmt(fit.stderr)}",
              "predicted_beam_deficit="
              + fmt(predicted_beam_deficit(law, speed.tilt_root, cfg.budget))]
    return lines, mean_final


def run_front(cfg: ExperimentConfig, out_dir: Path) -> Summary:
    law = build_law(cfg.law)
    res, snaps = front_speed(law, cfg.n_max, h=cfg.h, snapshot_at=cfg.snapshots)
    rows = [[n, x, dx, res.sup_diffs[n - 1]] for n, x, dx in res.drift]
    write_csv(out_dir / "front.csv", ["n", "x_n", "drift", "profile_sup_diff"], rows)
    for n, prof in snaps.items():
        write_csv(out_dir / f"profile_{n}.csv", ["x", "u"],
                  np.column_stack((prof.grid(), prof.values)))
    return [f"front_speed={fmt(res.speed)}",
            f"final_sup_diff={fmt(float(res.sup_diffs[-1]))}"], res.speed


def run_verify(out_dir: Path) -> int:
    lines: List[str] = []
    results = acceptance.run_all(emit=lines.append)
    _summary(out_dir, lines)
    return 0 if all(r.passed for r in results) else 1


def run(cfg: ExperimentConfig, out: Optional[str] = None, threads: int = 1) -> int:
    out_dir = Path(out if out is not None else cfg.out)
    if cfg.kind == "verify":
        return run_verify(out_dir)
    runner = {"speed": run_speed, "anomalous": run_anomalous, "front": run_front,
              "simulate": functools.partial(run_simulate, threads=threads)}[cfg.kind]
    lines, value = runner(cfg, out_dir)
    ok = _expect_check(value, cfg.expect, lines)
    _summary(out_dir, lines)
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
            if not _SEED[0](args.seed):
                raise SchemaError([("seed", _SEED[1])])
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
