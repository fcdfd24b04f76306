"""Run one benchmark workload of brwlab and print its metrics.

    python3 bench/run.py --workload duality --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory, never from an installed
copy, and the command fails (exit code 2, no result) when that source is
missing.  The workload runs serially in this one process, in whole
rounds of its operations, until ``--seconds`` have passed; the inputs of
each round come from ``--seed`` and the round index.  Every output is
checked (see workloads.py and reference.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced
(``--trace 0``) it holds the end-to-end metrics; traced (``--trace 1``)
the per-layer metrics of tracing.py, per round, and the spans go to
``.bench_out/trace-<workload>-<seed>.json``.  Each run also writes its
full record to ``.bench_out/result-<workload>-<seed>-trace<0|1>.json``.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2        # extra set-ups in fresh processes; setup_s is the median
PROBE_TIMEOUT_S = 150
CAL_REF_S = 0.0075      # the calibration's time here when other tenants are quiet
CAL_WINDOW_S = 5.0      # calibrations this close to an operation scale it


def make_calibration():
    """A fixed piece of work that does not use brwlab: three convolutions,
    an interpreted loop and normal draws, about 10 ms.

    Timed after every operation.  The shared machine's speed drifts by a
    third over minutes, and an operation's normalized time, its wall time
    x CAL_REF_S / (median calibration within CAL_WINDOW_S of it), cancels
    that drift (bench/README.md, Steadiness).
    """
    import numpy as np
    rng = np.random.default_rng(0)
    signal, kernel = rng.random(9600), rng.random(1601)

    def calibrate() -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            np.convolve(signal, kernel, mode="valid")
        acc = 0
        for i in range(30_000):
            acc += i * i
        np.random.default_rng(1).standard_normal(100_000)
        return time.perf_counter() - t0
    return calibrate


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "brwlab" / "__init__.py").is_file():
        fail(f"no brwlab source under {src}")
    sys.path.insert(0, str(src))
    import brwlab
    import brwlab.cli   # noqa: F401  (the CLI runner is not imported by the package)
    if Path(brwlab.__file__).resolve().parent != (src / "brwlab").resolve():
        fail(f"brwlab was imported from {brwlab.__file__}, not from {src}")
    return brwlab


def set_up(args, scratch: Path):
    """Import, the first round's inputs, and a warm-up of every operation kind."""
    from workloads import WORKLOADS
    brw = import_package()
    wl = WORKLOADS[args.workload](brw, scratch)
    inputs = wl.round_inputs(args.seed, 0)
    wl.warm_up()
    return brw, wl, inputs


def probe_setup(args) -> float:
    """Set-up time of one fresh process running the same set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_rounds(args, wl, inputs, tracer):
    """Whole rounds until the run length has passed.

    Returns the op records [round, kind, seconds or None, problems,
    normalized seconds], the calibration times and the number of rounds.
    """
    records = []
    calibrate = make_calibration()
    cals = [(time.perf_counter(), calibrate())]
    start = time.perf_counter()
    index = 0
    while True:
        if index:
            inputs = wl.round_inputs(args.seed, index)
        first = len(records)
        for kind, payload in inputs:
            if tracer is not None:
                tracer.begin_op(kind)
            t_op = time.perf_counter()
            try:
                seconds, problems = wl.run_op(kind, payload)
            except Exception as exc:   # the run reports a failing op and goes on
                traceback.print_exc(file=sys.stderr)
                seconds, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            records.append([index, kind, seconds, problems, t_op, time.perf_counter()])
            cals.append((time.perf_counter(), calibrate()))
        for kind, problems in wl.round_problems().items():
            for rec in records[first:]:
                if rec[1] == kind:
                    rec[3] = rec[3] + problems
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
    for rec in records:
        t0, t1 = rec[4] - CAL_WINDOW_S, rec[5] + CAL_WINDOW_S
        near = [c for t, c in cals if t0 <= t <= t1]
        rec[4:] = [None if rec[2] is None
                   else rec[2] * CAL_REF_S / statistics.median(near)]
    return records, [c for _, c in cals], index


def kind_stats(wl, records):
    """Per operation kind, over the operations that returned: the median
    wall time, its p90 where there are at least 40, and the median
    normalized time."""
    lines, stats, medians = [], {}, {}
    for kind in wl.counts:
        done = [r for r in records if r[1] == kind and r[2] is not None]
        if not done:
            continue
        ts = [r[2] for r in done]
        medians[kind] = statistics.median(r[4] for r in done)
        unit = wl.units[kind]
        scale = 1000.0 if unit == "ms" else 1.0
        entry = {"ops": len(ts), "unit": unit, "median": statistics.median(ts) * scale,
                 "normalized_median": medians[kind] * scale}
        line = f"{kind}_{unit} = {entry['median']:.6g} {unit}"
        if len(ts) >= 40:
            entry["p90"] = percentile(ts, 0.9) * scale
            line += f"; {kind}_p90_{unit} = {entry['p90']:.6g} {unit}"
        stats[kind] = entry
        lines.append(line + f" ({len(ts)} ops; normalized "
                            f"{entry['normalized_median']:.6g} {unit})")
    return medians, stats, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = OUT / f"scratch-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        brw, wl, inputs = set_up(args, scratch)
        setup_here = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        setups = [setup_here] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(brw)
        records, cals, rounds = run_rounds(args, wl, inputs, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [r for r in records if r[3]]
    unexpected = [r for r in failed if r[1] not in wl.known_faults]
    for r in failed:
        print(f"failed {r[1]} (round {r[0]}): {'; '.join(r[3])}", file=sys.stderr)
    medians, stats, lines = kind_stats(wl, records)
    for line in lines:
        print(line)
    print(f"workload {wl.name} seed {args.seed}: {rounds} rounds, "
          f"{len(records)} operations, {len(failed)} failed")

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "round_norm_s": {"value": sum(c * medians.get(k, float("nan"))
                                     for k, c in wl.counts.items()), "unit": "s"},
            "frequent_op_norm_ms": {"value": medians.get(wl.frequent, float("nan")) * 1000.0,
                               "unit": "ms"},
        }
    else:
        metrics = tracer.per_layer(rounds)
    result = {"correct": not unexpected, "attempted": len(records),
              "failed": len(failed), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    header = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds}
    record = dict(header, result=result, kinds=stats, setup_samples_s=setups,
                  ops=[r[:3] + r[4:] for r in records], calibrations_s=cals,
                  failures=[{"round": r[0], "kind": r[1], "problems": r[3]}
                            for r in failed])
    (OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"trace-{wl.name}-{args.seed}.json", header)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
