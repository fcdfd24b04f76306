"""Traced mode: spans and counts at the package's module boundaries.

``Tracer.install`` replaces public functions and methods of brwlab by
wrappers, from outside: every module namespace that holds a function
gets the wrapper in its place, so calls between modules are seen too.
Spans (name, operation, parent span, start, end) and counts stay in
memory and are written to one JSON file when the run ends.  Untraced
runs never import this module, so they run the package unchanged.

Calls made hundreds of thousands of times per round are counted, not
spanned: ``EvaluableFunction.__call__`` and ``ReproductionLaw.cumulant``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute): module-level functions spanned.
SPANNED_FUNCTIONS = [
    ("convex_analysis.fenchel_dual", "convex_analysis", "fenchel_dual"),
    ("convex_analysis.convex_minorant", "convex_analysis", "convex_minorant"),
    ("convex_analysis.speed_from_inf", "convex_analysis", "speed_from_inf"),
    ("convex_analysis.speed_from_dual", "convex_analysis", "speed_from_dual"),
    ("speeds.one_type_speed", "speeds", "one_type_speed"),
    ("speeds.anomalous_speed", "speeds", "anomalous_speed"),
    ("speeds.reversed_speed", "speeds", "reversed_speed"),
    ("speeds.expected_numbers_speed", "speeds", "expected_numbers_speed"),
    ("speeds.figure_table", "speeds", "figure_table"),
    ("mc_sim.run_one_type", "mc_sim", "run_one_type"),
    ("mc_sim.run_two_type", "mc_sim", "run_two_type"),
    ("mc_sim.run_count_census", "mc_sim", "run_count_census"),
    ("mc_sim.rightmost_batch", "mc_sim", "rightmost_batch"),
    ("mc_sim.count_profile", "mc_sim", "count_profile"),
    ("mc_sim.centering_slope", "mc_sim", "centering_slope"),
    ("front.apply_q", "front", "apply_q"),
    ("front.front_speed", "front", "front_speed"),
    ("front.coupled_front", "front", "coupled_front"),
    ("front.expected_rightmost_curve", "front", "expected_rightmost_curve"),
    ("front.mc_consistency", "front", "mc_consistency"),
    ("front.coupled_mc_consistency", "front", "coupled_mc_consistency"),
    ("tables.csv", "tables", "write_csv"),
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
]

# (span name, module, class, method): methods spanned.
SPANNED_METHODS = [
    ("models.sample", "models", "OffspringLaw", "sample"),
    ("models.sample", "models", "OffspringLaw", "sum_sample"),
    ("models.sample", "models", "Gaussian", "sample"),
    ("models.sample", "models", "PointMass", "sample"),
    ("models.sample", "models", "TwoPoint", "sample"),
    ("models.generating", "models", "OffspringLaw", "pgf"),
    ("models.generating", "models", "OffspringLaw", "complement"),
    ("tables.csv", "convex_analysis", "EvaluableFunction", "write_csv"),
]

# (count name, module, class, method): methods counted only.
COUNTED_METHODS = [
    ("convex_analysis.evaluations", "convex_analysis", "EvaluableFunction", "__call__"),
    ("models.cumulant.calls", "models", "ReproductionLaw", "cumulant"),
]

DISPLACEMENTS = ("Gaussian", "PointMass", "TwoPoint")
BEAM_KINDS = ("simulate_one_type", "simulate_two_type")

# Per-layer metrics: (name, unit, better, how it is read from the trace).
PER_LAYER = [
    ("convex_analysis.fenchel_dual.calls", "count", "lower", ("calls", "convex_analysis.fenchel_dual")),
    ("convex_analysis.fenchel_dual.self_s", "s", "lower", ("self", "convex_analysis.fenchel_dual")),
    ("convex_analysis.convex_minorant.self_s", "s", "lower", ("self", "convex_analysis.convex_minorant")),
    ("convex_analysis.speed_from_inf.self_s", "s", "lower", ("self", "convex_analysis.speed_from_inf")),
    ("convex_analysis.evaluations", "count", "lower", ("count", "convex_analysis.evaluations")),
    ("models.cumulant.calls", "count", "lower", ("count", "models.cumulant.calls")),
    ("models.sample.draws", "count", "lower", ("count", "models.sample.draws")),
    ("models.sample.self_s", "s", "lower", ("self", "models.sample")),
    ("models.generating.self_s", "s", "lower", ("self", "models.generating")),
    ("speeds.one_type_speed.self_s", "s", "lower", ("self", "speeds.one_type_speed")),
    ("speeds.anomalous_speed.self_s", "s", "lower", ("self", "speeds.anomalous_speed")),
    ("speeds.figure_table.self_s", "s", "lower", ("self", "speeds.figure_table")),
    ("mc_sim.run_one_type.self_s", "s", "lower", ("self", "mc_sim.run_one_type")),
    ("mc_sim.run_two_type.self_s", "s", "lower", ("self", "mc_sim.run_two_type")),
    ("mc_sim.kept_ratio", "ratio", "higher", ("kept_ratio", None)),
    ("mc_sim.run_count_census.self_s", "s", "lower", ("self", "mc_sim.run_count_census")),
    ("mc_sim.rightmost_batch.self_s", "s", "lower", ("self", "mc_sim.rightmost_batch")),
    ("front.apply_q.calls", "count", "lower", ("calls", "front.apply_q")),
    ("front.apply_q.self_s", "s", "lower", ("self", "front.apply_q")),
    ("front.coupled_front.self_s", "s", "lower", ("self", "front.coupled_front")),
    ("front.cell_updates", "count", "lower", ("count", "front.cell_updates")),
    ("tables.csv_s", "s", "lower", ("total", "tables.csv")),
    ("cli.parse_config.self_s", "s", "lower", ("self", "cli.parse_config")),
]


class Tracer:
    """Spans and counts of one run, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, op, parent index, start, end]
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.op_kind = None

    # -- recording ---------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.op += 1
        self.op_kind = kind

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions and methods in place."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        after = {"mc_sim.run_one_type": self._after_beam,
                 "mc_sim.run_two_type": self._after_beam}
        for name, mod, attr in SPANNED_FUNCTIONS:
            orig = getattr(getattr(package, mod), attr)
            wrapper = self.spanned(name, orig, after.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
        hooks = {"models.generating": lambda cls: self._after_generating,
                 "models.sample": lambda cls: self._after_sample(cls in DISPLACEMENTS)}
        for name, mod, cls, meth in SPANNED_METHODS:
            klass = getattr(getattr(package, mod), cls)
            hook = hooks[name](cls) if name in hooks else None
            setattr(klass, meth, self.spanned(name, getattr(klass, meth), hook))
        for name, mod, cls, meth in COUNTED_METHODS:
            klass = getattr(getattr(package, mod), cls)
            setattr(klass, meth, self.counted(name, getattr(klass, meth)))

    def _after_sample(self, displacement: bool):
        def hook(args, out):
            size = int(np.size(out))
            self.counts["models.sample.draws"] += size
            # in a beam every displacement drawn is one child born
            if displacement and self.op_kind in BEAM_KINDS:
                self.counts["beam.born"] += size
        return hook

    def _after_generating(self, args, out):
        # one generating-function value per grid cell and step
        self.counts["front.cell_updates"] += int(np.size(out))

    def _after_beam(self, args, stats):
        if self.op_kind in BEAM_KINDS:
            pruning = stats.pruning
            self.counts["beam.pruned"] += int(pruning.get("pruned", 0)
                                              + pruning.get("nu", 0)
                                              + pruning.get("eta", 0))

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """(calls, self seconds, total seconds) per span name."""
        calls, self_s, total = Counter(), defaultdict(float), defaultdict(float)
        child = defaultdict(float)
        for idx in range(len(self.spans) - 1, -1, -1):   # children come later
            name, _, parent, start, end = self.spans[idx]
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[idx]
            if parent >= 0:
                child[parent] += dur
        return calls, self_s, total

    def per_layer(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload."""
        calls, self_s, total = self.summary()
        out = {}
        for name, unit, _, (how, key) in PER_LAYER:
            if how == "kept_ratio":
                born = self.counts["beam.born"]
                # no beam ran: nothing born, nothing discarded
                value = (born - self.counts["beam.pruned"]) / born if born else 1.0
            else:
                source = {"calls": calls, "self": self_s, "total": total,
                          "count": self.counts}[how]
                value = source[key] / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path, header: dict) -> None:
        calls, self_s, total = self.summary()
        doc = dict(header)
        doc.update({
            "span_fields": ["name", "op", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total),
        })
        with open(path, "w") as fh:
            json.dump(doc, fh)
