"""The benchmark's three workloads: their inputs, operations and checks.

A workload is a list of operation kinds, each with a fixed count per
round.  ``round_inputs(seed, index)`` draws one round's inputs from the
benchmark seed and the round index, so the same seed gives the same
inputs and no two rounds of a run share them.  ``run_op`` times only
the call into the program (a CLI scenario through ``brwlab.cli.main``,
or one public function) and then checks the outputs against
``reference``; it returns the elapsed seconds and a list of problems,
empty when the outputs are correct.

Every operation here is expected to succeed except the ``fronts``
centering fit at n=800, listed in ``Fronts.known_faults``: ``front.apply_q``
evaluates ``1 - pgf(1 - conv)``, which cancels to 0 below about 1e-16
and cuts off the front's leading edge, and by n=800 that bias drags the
fitted log-correction out of its band.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import reference as ref

SQRT2 = math.sqrt(2.0)
ANOMALOUS = 4.0 / math.sqrt(6.0)    # speed of the worked example

# The unit skeleton of branching Brownian motion: geometric families of
# mean e with standard Gaussian steps; speed sqrt 2.
UNIT = {"offspring": "geometric", "mean": math.e,
        "displacement": {"kind": "gaussian", "mean": 0.0, "variance": 1.0},
        "mechanism": "independent"}


def gaussian_law(offspring: str, mean: float, mu: float, var: float) -> dict:
    return {"offspring": offspring, "mean": mean,
            "displacement": {"kind": "gaussian", "mean": mu, "variance": var},
            "mechanism": "independent"}


def skeleton_laws(V: float, lam: float):
    """(nu, eta) law dictionaries of ``skeleton_of_bbm(V, lam, p)``."""
    return gaussian_law("geometric", math.exp(lam), 0.0, V), UNIT


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _within(value: float, target: float, tol: float, what: str, problems: list):
    if not abs(value - target) <= tol:
        problems.append(f"{what}={value!r} target {target!r} tol {tol:g}")


def _read_summary(out: Path) -> dict:
    pairs = (line.split("=", 1) for line in
             (out / "summary.txt").read_text().splitlines() if "=" in line)
    return {k.split()[-1]: v.split()[0] for k, v in pairs}


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) if v not in ("true", "false") else v == "true"
             for v in line.split(",")] for line in lines[1:]]
    return header, rows


class Workload:
    """Shared machinery: the package handle, a scratch directory, CLI calls."""

    name = ""
    counts: dict = {}          # operation kind -> operations per round
    frequent = ""              # the kind timed by frequent_op_norm_ms
    units: dict = {}           # operation kind -> "ms" or "s" for reporting
    known_faults: tuple = ()   # kinds that fail by a fault named above

    def __init__(self, brw, scratch: Path):
        self.brw = brw
        self.scratch = scratch

    def cli(self, config: dict, tag: str):
        """Run one CLI scenario; returns (seconds, exit code, output dir)."""
        out = self.scratch / tag
        out.mkdir(parents=True, exist_ok=True)
        cfg = out / "config.json"
        cfg.write_text(json.dumps(config))
        argv = [config["kind"], "--config", str(cfg), "--out", str(out),
                "--threads", "1"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            seconds, code = _timed(lambda: self.brw.cli.main(argv))
        return seconds, code, out

    def round_inputs(self, seed: int, index: int) -> list:
        raise NotImplementedError

    def run_op(self, kind: str, payload):
        """Run one operation; returns (seconds, problems)."""
        return getattr(self, "_" + kind)(payload)

    def warm_up(self) -> None:
        raise NotImplementedError

    def round_problems(self) -> dict:
        """Checks over a whole round: operation kind -> problems."""
        return {}


# --------------------------------------------------------------------------
# duality: convex_analysis and speeds, no particles and no fronts
# --------------------------------------------------------------------------

COUNT_KINDS = ("deterministic", "geometric", "poisson_positive")
STEP_KINDS = ("gaussian", "point", "two_point")
MECHANISMS = ("independent", "common")


def stratum(rng, k: int, n: int):
    """A sampler of values in the middle half of stratum k of n of a range.

    Every round draws each parameter afresh, but from the same strata, so
    the mix of cheap and costly inputs, and with it a run's median, stays
    the same from seed to seed.
    """
    return lambda lo, hi: lo + (hi - lo) * (k + 0.25 + 0.5 * rng.random()) / n


def random_law(draw, offspring: str, step: str, mechanism: str) -> dict:
    """One-type law with the parameter ranges of acceptance check 3."""
    mean = (int(draw(2, 6)) if offspring == "deterministic" else draw(1.2, 8.0))
    if step == "gaussian":
        disp = {"kind": "gaussian", "mean": draw(-0.5, 0.5), "variance": draw(0.1, 2.0)}
    elif step == "point":
        disp = {"kind": "point", "value": draw(-0.5, 1.0)}
    else:
        lo = draw(-1.0, 0.5)
        disp = {"kind": "two_point", "low": lo, "high": lo + draw(0.2, 1.5),
                "prob_high": draw(0.1, 0.9)}
    return {"offspring": offspring, "mean": mean, "displacement": disp,
            "mechanism": mechanism}


def random_system(rng, form: str, k: int = 0, n: int = 1):
    """(CLI system dictionary, nu law, eta law, closed form or None), drawn
    from stratum k of n of each parameter range.

    ``bbm_critical`` is the skeleton at V = 1/lam, whose anomalous speed is
    (1 + lam)/sqrt(2 lam); ``worked`` the same near the worked example,
    lam in [2.5, 3.5]; ``bbm`` a skeleton with free V; ``general`` two
    Gaussian-step laws with any count laws and seed probability in (0, 1].
    Bounded steps are left out: with them ``anomalous_speed`` raises
    ToleranceError (see CHANGES.md).
    """
    draw = stratum(rng, k, n)
    p = 1.0 - draw(0.0, 0.95)
    if form in ("bbm", "bbm_critical", "worked"):
        lam = draw(2.5, 3.5) if form == "worked" else draw(1.2, 6.0)
        V = stratum(rng, n - 1 - k, n)(0.1, 2.0) if form == "bbm" else 1.0 / lam
        nu, eta = skeleton_laws(V, lam)
        closed = None if form == "bbm" else ref.skeleton_speed(lam)
        return {"skeleton": {"V": V, "lambda": lam, "p": p}}, nu, eta, closed
    # nu from stratum k and eta from stratum n - 1 - k, so the pairs differ
    nu, eta = (gaussian_law(kind, int(d(2, 6)) if kind == "deterministic"
                            else d(1.2, 8.0), d(-0.5, 0.5), d(0.1, 2.0))
               for kind, d in ((COUNT_KINDS[k % 3], draw),
                               (COUNT_KINDS[(k + 1) % 3], stratum(rng, n - 1 - k, n))))
    return {"nu": nu, "eta": eta, "seed_prob": p}, nu, eta, None


class Duality(Workload):
    name = "duality"
    # every (count law, step law, mechanism) in 6 strata; 16 systems
    counts = {"speed_scenario": 108, "two_type_speeds": 16, "anomalous_scenario": 1}
    frequent = "speed_scenario"
    units = {"speed_scenario": "ms", "two_type_speeds": "ms", "anomalous_scenario": "s"}
    LAW_STRATA = 6
    SYSTEM_FORMS = (("bbm_critical", 4), ("bbm", 4), ("general", 8))

    def round_inputs(self, seed, index):
        rng = np.random.default_rng([seed, index, 1])
        n = self.LAW_STRATA
        ops = [("speed_scenario", random_law(stratum(rng, k, n), c, s, m))
               for c in COUNT_KINDS for s in STEP_KINDS for m in MECHANISMS
               for k in range(n)]
        ops += [("two_type_speeds", random_system(rng, form, k, strata))
                for form, strata in self.SYSTEM_FORMS for k in range(strata)]
        # the figure table's cost varies by a third across random systems
        # (9.6 s to 12.9 s), so the one scenario of a round stays near the
        # worked example to keep round_norm_s steady
        ops.append(("anomalous_scenario", random_system(rng, "worked")))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _speed_scenario(self, law):
        seconds, code, out = self.cli({"kind": "speed", "seed": 0, "law": law}, "speed")
        problems = []
        if code != 0:
            return seconds, [f"speed scenario exited {code}"]
        header, rows = _read_csv(out / "speed_report.csv")
        speed = rows[0][header.index("speed")]
        _within(speed, ref.one_type_speed(law), 1e-6, "speed", problems)
        return seconds, problems

    def _check_two_type(self, nu, eta, closed, speed, formula, reversed_, expected,
                        problems):
        target = ref.two_type_speed(nu, eta)
        if closed is not None:
            _within(target, closed, 1e-9, "reference vs closed form", problems)
        _within(formula, target, 1e-6, "route_formula", problems)
        _within(speed, target, 1e-4, "speed", problems)
        _within(reversed_, ref.two_type_speed(eta, nu), 1e-4, "reversed_speed", problems)
        _within(expected, ref.expected_numbers_speed(nu, eta), 1e-4,
                "expected_numbers_speed", problems)

    def _two_type_speeds(self, payload):
        system, nu, eta, closed = payload
        sysm = self.brw.cli.build_system(system)
        s = self.brw

        def call():
            return (s.anomalous_speed(sysm), s.reversed_speed(sysm),
                    s.expected_numbers_speed(sysm))

        seconds, (rep, rev, exp) = _timed(call)
        problems = []
        self._check_two_type(nu, eta, closed, rep.speed, rep.route_formula, rev, exp,
                             problems)
        _within(s.expected_numbers_speed(sysm.swap_roles()), exp, 1e-4,
                "expected_numbers_speed of the swapped system", problems)
        return seconds, problems

    def _anomalous_scenario(self, payload):
        system, nu, eta, closed = payload
        seconds, code, out = self.cli({"kind": "anomalous", "seed": 0, "system": system},
                                      "anomalous")
        if code != 0:
            return seconds, [f"anomalous scenario exited {code}"]
        problems = []
        header, rows = _read_csv(out / "anomalous_report.csv")
        r = dict(zip(header, rows[0]))
        self._check_two_type(nu, eta, closed, r["speed"], r["route_formula"],
                             r["reversed_speed"], r["expected_numbers_speed"], problems)
        _, table = _read_csv(out / "figure71.csv")
        _, swept_nu, d_eta, cv = np.array(table).T
        # cv is a hull of samples on the program's working grid, so between
        # its nodes it may lie above the exact curves by the chord error
        # pitch^2 f''/8: 5e-6 for a 2e-3 pitch and V = 0.1 (f'' = 1/V)
        excess = ref.envelope_violation(cv, swept_nu, d_eta)
        if excess > 1e-5:
            problems.append(f"figure table: cv exceeds min(kswept_nu, kdual_eta) "
                            f"by {excess:.3g}")
        scale = max(1.0, float(np.max(np.abs(cv))))
        if ref.convexity_violation(cv) > 1e-9 * scale:
            problems.append("figure table: cv is not convex")
        return seconds, problems

    def warm_up(self):
        rng = np.random.default_rng(0)
        self._speed_scenario(random_law(stratum(rng, 0, 1), "geometric", "gaussian",
                                        "independent"))
        self._two_type_speeds(random_system(rng, "bbm_critical"))


# --------------------------------------------------------------------------
# particles: mc_sim engines and models sampling
# --------------------------------------------------------------------------

class Particles(Workload):
    name = "particles"
    # three one-replicate beams, whose mean the check 5 band holds: one
    # replicate (sd 0.008) lies 3.3 sd above its lower edge, three 5.7 sd
    counts = {"simulate_one_type": 3, "simulate_two_type": 1, "census": 40,
              "exact_batch": 1, "exact_two_type": 1}
    frequent = "census"
    units = {"simulate_one_type": "s", "simulate_two_type": "s", "census": "ms",
             "exact_batch": "s", "exact_two_type": "s"}
    CENSUS_N = 20
    Z_BAND = 5.0   # see README: a fresh stream per batch, so a family-wise band

    def __init__(self, brw, scratch):
        super().__init__(brw, scratch)
        self.unit = brw.cli.build_law(UNIT)
        self.det2 = brw.ReproductionLaw(brw.OffspringLaw("deterministic", 2),
                                        brw.Gaussian(0.0, 1.0))
        self.worked = brw.skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)
        self.census_totals = []
        self.beam_speeds = []

    def round_inputs(self, seed, index):
        rng = np.random.default_rng([seed, index, 2])
        seeds = rng.integers(0, 2 ** 31, size=sum(self.counts.values()))
        kinds = [k for k, c in self.counts.items() for _ in range(c)]
        ops = list(zip(kinds, (int(s) for s in seeds)))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _simulate_one_type(self, seed, n=200, budget=100_000):
        config = {"kind": "simulate", "seed": seed, "law": UNIT, "n_max": n,
                  "budget": budget, "window": 15.0, "replicates": 1}
        seconds, code, out = self.cli(config, "simulate1")
        if code != 0:
            return seconds, [f"one-type simulate exited {code}"]
        speed = float(_read_summary(out)["mean_rightmost_over_n"])
        if n == 200:
            self.beam_speeds.append(speed)
        return seconds, [] if math.isfinite(speed) else [f"M_n/n={speed}"]

    def _simulate_two_type(self, seed, n=300, budget=30_000):
        nu, eta = skeleton_laws(1.0 / 3.0, 3.0)
        config = {"kind": "simulate", "seed": seed, "n_max": n, "budget": budget,
                  "window": 15.0, "replicates": 1,
                  "system": {"nu": eta, "eta": nu, "seed_prob": 0.5}}
        seconds, code, out = self.cli(config, "simulate2")
        if code != 0:
            return seconds, [f"two-type simulate exited {code}"]
        problems = []
        speed = float(_read_summary(out)["mean_rightmost_eta_over_n"])
        _within(speed, SQRT2, 0.05 * SQRT2, "reversed M_eta/n (check 8c band)", problems)
        return seconds, problems

    def _census(self, seed, n=CENSUS_N):
        seconds, stats = _timed(lambda: self.brw.run_count_census(self.unit, n, seed=seed,
                                                                  pitch=0.05))
        problems = []
        if stats.pruning["saturated"]:
            problems.append("census saturated")
        totals = [int(c.counts.sum()) for c in stats.census]
        if totals[0] != 1 or any(b < a for a, b in zip(totals, totals[1:])):
            problems.append("census totals are not a nondecreasing count from 1")
        if n == self.CENSUS_N:
            self.census_totals.append(totals[-1])
        return seconds, problems

    def round_problems(self):
        """The replicate mean of Z_n over the round's censuses against e^n,
        and the mean M_n/n of the round's one-type beams (check 5 band)."""
        problems = {}
        z = ref.census_mean_z(self.census_totals, math.e, self.CENSUS_N)
        if not abs(z) <= self.Z_BAND:
            problems["census"] = [f"census mean total z={z:+.2f}"]
        beam = []
        _within(float(np.mean(self.beam_speeds)), SQRT2, 0.05 * SQRT2,
                "mean M_n/n (check 5 band)", beam)
        if beam:
            problems["simulate_one_type"] = beam
        self.census_totals, self.beam_speeds = [], []
        return problems

    def _z_problems(self, rows, samples, what):
        problems = []
        for x, q, p_hat, _ in rows:
            z = ref.binomial_z(p_hat, q, samples)
            if not abs(z) <= self.Z_BAND:
                problems.append(f"{what} at x={x:g}: z={z:+.2f}")
        return problems

    def _exact_batch(self, seed, n=8, replicates=100_000):
        seconds, rows = _timed(lambda: self.brw.mc_consistency(
            self.det2, n, [6.0, 8.0], replicates, seed=seed, h=0.005))
        return seconds, self._z_problems(rows, replicates, "mc_consistency")

    def _exact_two_type(self, seed, n=4, replicates=400):
        seconds, rows = _timed(lambda: self.brw.front.coupled_mc_consistency(
            self.worked, n, [3.0, 4.0, 5.0], replicates, seed=seed))
        return seconds, self._z_problems(rows, replicates, "coupled_mc_consistency")

    def warm_up(self):
        self._simulate_one_type(1, n=20, budget=2_000)
        self._simulate_two_type(1, n=10, budget=2_000)
        self._census(1, n=5)
        self._exact_batch(1, n=3, replicates=1_000)
        self._exact_two_type(1, n=2, replicates=20)


# --------------------------------------------------------------------------
# fronts: the front recursion and the models generating functions
# --------------------------------------------------------------------------

class Fronts(Workload):
    name = "fronts"
    counts = {"front_scenario": 12, "coupled_front": 2, "centering_fit": 1}
    frequent = "front_scenario"
    units = {"front_scenario": "s", "coupled_front": "s", "centering_fit": "s"}
    known_faults = ("centering_fit",)
    CENTERING_N = 800

    def __init__(self, brw, scratch):
        super().__init__(brw, scratch)
        self.unit = brw.cli.build_law(UNIT)

    def round_inputs(self, seed, index):
        rng = np.random.default_rng([seed, index, 3])
        # a drift mu shifts the speed to sqrt 2 + mu at the same cost
        ops = [("front_scenario", float(rng.uniform(-0.5, 0.5)))
               for _ in range(self.counts["front_scenario"])]
        # the anomalous speed does not depend on the seed probability p > 0
        ops += [("coupled_front", (float(rng.uniform(0.25, 1.0)), swap))
                for swap in (False, True)]
        ops.append(("centering_fit", None))   # fixed input: the known fault
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _front_scenario(self, mu, n=300):
        law = gaussian_law("geometric", math.e, mu, 1.0)
        seconds, code, out = self.cli({"kind": "front", "seed": 0, "law": law,
                                       "n_max": n, "h": 0.01}, "front")
        if code != 0:
            return seconds, [f"front scenario exited {code}"]
        problems = []
        summary = _read_summary(out)
        _within(float(summary["front_speed"]) - mu, SQRT2, 0.01 * SQRT2,
                "front speed - drift (check 9 band)", problems)
        if not float(summary["final_sup_diff"]) < 1e-3:
            problems.append(f"front not settled: sup diff {summary['final_sup_diff']}")
        return seconds, problems

    def _coupled_front(self, payload, n=300):
        p, swap = payload
        sysm = self.brw.skeleton_of_bbm(1.0 / 3.0, 3.0, p)
        if swap:
            sysm = sysm.swap_roles()
        seconds, res = _timed(lambda: self.brw.coupled_front(sysm, n, x_max=560.0,
                                                             h=0.02))
        problems = []
        target = SQRT2 if swap else ANOMALOUS
        _within(res.speed, target, 0.01 * target, "coupled front slope", problems)
        if not swap:
            _within(res.mean / n, target, 0.05 * target, "mean M_eta/n (check 8a band)",
                    problems)
        return seconds, problems

    def _centering_fit(self, _payload, n=CENTERING_N):
        def call():
            curve = self.brw.front.expected_rightmost_curve(self.unit, n, h=0.01)
            stats = self.brw.TrajectoryStats(seed=0, rightmost=curve, exact_upto=0)
            return curve, self.brw.centering_slope([stats], SQRT2, SQRT2)

        seconds, (curve, fit) = _timed(call)
        problems = []
        _within(fit.slope, ref.log_slope(curve, SQRT2, n // 4, n), 1e-8,
                "centering slope vs own regression", problems)
        lo, hi = -3.0 / SQRT2, -3.0 / (4.0 * SQRT2)   # check 7 bands
        if not lo <= fit.slope <= hi:
            problems.append(f"centering slope {fit.slope:.4f} outside [{lo:.4f}, {hi:.4f}]")
        return seconds, problems

    def warm_up(self):
        self._front_scenario(0.0, n=10)
        self._coupled_front((0.5, False), n=5)
        self._centering_fit(None, n=8)


WORKLOADS = {w.name: w for w in (Duality, Particles, Fronts)}
