"""Acceptance checks: one runnable check per release criterion.

Each check pins its own parameters, tolerances and seeds, runs the
relevant pipeline and returns a CheckResult whose ``detail`` lines make
the measured numbers reviewable.  The CLI ``verify`` subcommand and the
acceptance test module both run exactly these functions, so there is a
single source of truth for what "passing" means.

Two checks measure their quantity by the route that is free of a known
bias: count profiles (6) fit the growth rate over generations, which
cancels the finite-n prefactor of the counts, and the anomaly
demonstration (8) reads the anomalous eta front from the coupled front
recursion, which rightmost-selection pruning cannot carry.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .convex_analysis import GridSpec, fenchel_dual
from .front import (FrontProfile, apply_q, coupled_front, coupled_mc_consistency,
                    expected_rightmost_curve, front_speed, mc_consistency)
from .mc_sim import (
    TrajectoryStats,
    centering_slope,
    map_replicates,
    run_count_census,
    run_one_type,
    run_two_type,
)
from .models import (
    Gaussian,
    OffspringLaw,
    PointMass,
    ReproductionLaw,
    TwoPoint,
    skeleton_of_bbm,
)
from .speeds import anomalous_speed, expected_numbers_speed, one_type_speed

SQRT2 = math.sqrt(2.0)
MASTER_SEED = 20260808


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    runtime: float
    budget_seconds: float
    detail: List[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.number:2d}. {self.name} "
                f"({self.runtime:.1f}s / budget {self.budget_seconds:.0f}s)")


def _bbm_one_type() -> ReproductionLaw:
    return ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))


def _relative_ok(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def check_analytic_speeds() -> CheckResult:
    """1: closed-form speed and tilt root of the unit branching-diffusion skeleton."""
    t0 = time.perf_counter()
    r = one_type_speed(_bbm_one_type())
    ok = (abs(r.speed - SQRT2) <= 1e-6
          and r.tilt_root is not None and abs(r.tilt_root - SQRT2) <= 1e-6)
    detail = [f"speed={r.speed:.9f} tilt_root={r.tilt_root} target={SQRT2:.9f}"]
    return CheckResult(1, "analytic speeds", ok, time.perf_counter() - t0, 1, detail)


def check_anomalous_worked_example() -> CheckResult:
    """2: two-type worked example and its one-parameter family."""
    t0 = time.perf_counter()
    target = 4.0 / math.sqrt(6.0)
    rep = anomalous_speed(skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5))
    ok = (abs(rep.route_formula - target) <= 1e-6
          and abs(rep.route_minorant - target) <= 1e-4)
    detail = [f"lam=3: formula={rep.route_formula:.9f} minorant={rep.route_minorant:.9f} "
              f"target={target:.9f} anomalous={rep.anomalous}"]
    for lam in (1.5, 2.0, 3.0, 5.0):
        want = (1.0 + lam) / math.sqrt(2.0 * lam)
        got = anomalous_speed(skeleton_of_bbm(1.0 / lam, lam, 0.5)).route_formula
        ok = ok and abs(got - want) <= 1e-6
        detail.append(f"lam={lam}: formula={got:.9f} closed_form={want:.9f}")
    return CheckResult(2, "anomalous speed, worked example", ok,
                       time.perf_counter() - t0, 5, detail)


def _random_one_type(rng: np.random.Generator) -> ReproductionLaw:
    kind = rng.choice(["deterministic", "geometric", "poisson_positive"])
    if kind == "deterministic":
        off = OffspringLaw("deterministic", int(rng.integers(2, 6)))
    else:
        off = OffspringLaw(str(kind), float(rng.uniform(1.2, 8.0)))
    d = rng.choice(["gaussian", "point", "two_point"])
    if d == "gaussian":
        disp = Gaussian(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.1, 2.0)))
    elif d == "point":
        disp = PointMass(float(rng.uniform(-0.5, 1.0)))
    else:
        lo = float(rng.uniform(-1.0, 0.5))
        disp = TwoPoint(lo, lo + float(rng.uniform(0.2, 1.5)),
                        float(rng.uniform(0.1, 0.9)))
    mech = "independent" if rng.random() < 0.5 else "common"
    return ReproductionLaw(off, disp, mech)


def check_formula_cross_validation() -> CheckResult:
    """3: both speed formulas agree over randomized laws and systems."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst_one = 0.0
    for _ in range(200):
        gap = one_type_speed(_random_one_type(rng)).diagnostics["formula_gap"]
        worst_one = max(worst_one, gap)
    worst_two = 0.0
    for _ in range(200):
        lam = float(rng.uniform(1.0, 6.0))
        v = float(rng.uniform(0.1, 2.0))
        rep = anomalous_speed(skeleton_of_bbm(v, lam, 0.5))
        worst_two = max(worst_two, abs(rep.route_minorant - rep.route_formula))
    ok = worst_one <= 1e-4 and worst_two <= 1e-4
    detail = [f"worst one-type gap={worst_one:.2e}",
              f"worst two-type route gap={worst_two:.2e}"]
    return CheckResult(3, "formula cross-validation", ok,
                       time.perf_counter() - t0, 60, detail)


def check_fenchel_accuracy() -> CheckResult:
    """4: numerical conjugate of a Gaussian cumulant vs its closed form."""
    t0 = time.perf_counter()
    a = np.arange(-1.0, 3.0 + 1e-12, 1e-3)
    worst = 0.0
    for lam, v in ((3.0, 1.0 / 3.0), (1.0, 1.0)):
        law = ReproductionLaw(OffspringLaw("geometric", math.exp(lam)), Gaussian(0.0, v))
        dual = fenchel_dual(law, GridSpec(-1.0, 3.0))
        exact = -lam + np.maximum(a, 0.0) ** 2 / (2.0 * v)
        worst = max(worst, float(np.max(np.abs(dual(a) - exact))))
    ok = worst <= 1e-4
    return CheckResult(4, "fenchel accuracy", ok, time.perf_counter() - t0, 1,
                       [f"sup error={worst:.2e} on [-1, 3] at step 1e-3"])


def _mc_speed_replicate(r: int) -> float:
    """M_n/n of check 5's replicate r."""
    n = 200
    s = run_one_type(_bbm_one_type(), n, budget=100_000, window=15.0,
                     seed=MASTER_SEED + 100 + r)
    return s.rightmost[n] / n


def check_mc_speed() -> CheckResult:
    """5: rightmost-particle speed from budgeted Monte Carlo, one process
    per CPU."""
    t0 = time.perf_counter()
    reps = 32
    ms = map_replicates(_mc_speed_replicate, range(reps), reps)
    mean = float(np.mean(ms))
    ok = _relative_ok(mean, SQRT2, 0.05)
    detail = [f"mean M_n/n={mean:.4f} over {reps} replicates, target {SQRT2:.4f} +-5%"]
    return CheckResult(5, "monte carlo speed", ok, time.perf_counter() - t0, 120, detail)


COUNT_A_VALUES = (0.0, 0.5, 1.0)
COUNT_GENERATIONS = np.arange(10, 21)


def _count_census_replicate(r: int):
    """Check 6's replicate r: its counts at or beyond k a for each a (rows)
    and k in COUNT_GENERATIONS (columns), or None if its census saturated."""
    stats = run_count_census(_bbm_one_type(), int(COUNT_GENERATIONS[-1]),
                             seed=MASTER_SEED + 200 + r, pitch=0.05)
    if stats.pruning["saturated"]:  # stopped early: no late generations
        return None
    return np.array([[stats.census[k].count_at_least(k * a) for k in COUNT_GENERATIONS]
                     for a in COUNT_A_VALUES])


def check_count_profiles() -> CheckResult:
    """6: exact-census count growth rates against the analytic rate function.

    Biggins' theorem gives (1/k) log Z_k[ka, inf) -> -rate(a), and below
    the speed the expected count grows at the same rate.  The expected
    count also carries a prefactor, log E Z_k[ka, inf) = -k rate(a) -
    log(2 pi k a^2)/2 + o(1) for a > 0, which at k = 20 is 10% of the
    target at a=0.5 and 24% at a=1, so the growth rate is read as the
    least-squares slope of log of the replicate-mean count over
    generations k in [10, 20].  That slope keeps only the prefactor's
    drift, about -(1/2) log(20/10)/10, which the detail lines print.
    Fails, without fitting, if any census saturated (stopped before
    int64 overflow).  The censuses run one process per CPU.
    """
    t0 = time.perf_counter()
    rate = one_type_speed(_bbm_one_type()).rate_function
    ks = COUNT_GENERATIONS
    n0, n, reps = int(ks[0]), int(ks[-1]), 64
    counts = map_replicates(_count_census_replicate, range(reps), reps)
    mean_count = np.zeros((len(COUNT_A_VALUES), ks.size))
    saturated = 0
    for c in counts:    # summed in replicate order, whatever the pool
        if c is None:
            saturated += 1
        else:
            mean_count += c
    detail = [f"saturated censuses: {saturated}/{reps}"]
    if saturated:
        return CheckResult(6, "count profiles", False, time.perf_counter() - t0, 120,
                           detail)
    offset = -0.5 * math.log(n / n0) / (n - n0)
    ok = True
    for a, total in zip(COUNT_A_VALUES, mean_count):
        slope = float(np.polyfit(ks, np.log(total / reps), 1)[0])
        target = -float(rate(a))
        good = abs(slope - target) <= 0.10 * abs(target)
        ok = ok and good
        predicted = offset if a > 0 else 0.0
        detail.append(f"a={a}: slope={slope:.4f} target={target:.4f} "
                      f"({(slope - target) / abs(target):+.1%}; predicted offset "
                      f"{predicted:+.4f}) {'ok' if good else 'OUT OF BAND'}")
    return CheckResult(6, "count profiles", ok, time.perf_counter() - t0, 120, detail)


def check_centering_slope() -> CheckResult:
    """7: logarithmic centering correction has the predicted slope scale.

    mean(M_n) is computed exactly from the iterated front profile (the
    tail probability of the rightmost particle), which is free of the
    linear speed deficit every budgeted particle beam carries.  That
    deficit, though only ~1% of the speed, regresses onto log n with a
    factor of the mean generation and would swamp the coefficient being
    tested; the beam-measured slope is pinned separately in the test
    suite as documented behavior.
    """
    t0 = time.perf_counter()
    law = _bbm_one_type()
    tilt = SQRT2
    n = 200
    curve = expected_rightmost_curve(law, n, h=0.01)
    stats = TrajectoryStats(seed=0, rightmost=curve, exact_upto=0)
    fit = centering_slope([stats], SQRT2, tilt)
    ref = -3.0 / (2.0 * tilt)
    lo, hi = -3.0 / tilt, 0.0
    ok = (lo <= fit.slope < hi) and (2 * ref <= fit.slope <= ref / 2)
    detail = [f"slope={fit.slope:.3f} (se {fit.stderr:.3f}), reference {ref:.3f}, "
              f"bands [{lo:.3f}, 0) and [{2*ref:.3f}, {ref/2:.3f}]"]
    return CheckResult(7, "logarithmic centering", ok, time.perf_counter() - t0,
                       180, detail)


def _reversed_replicate(r: int) -> float:
    """M_eta/n at n=300 of check 8's reversed-role beam r."""
    n = 300
    s = run_two_type(skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5).swap_roles(), n,
                     budget=30_000, window=15.0, seed=MASTER_SEED + 500 + r)
    return s.rightmost_eta[n] / n


def check_anomaly_demonstration() -> CheckResult:
    """8: the anomalous eta front, its reversed-role and expected-count foils.

    The forward clauses read the exact law of the rightmost eta from the
    coupled front recursion: its mean at n=300 must reach the anomalous
    speed, and must exceed the single-class speed sqrt 2 by more than
    three times its change between grid steps h and 2h.  A budgeted
    particle beam cannot carry this front: it is led by eta lineages
    seeded far behind the running eta maximum, which rightmost-selection
    pruning discards.  The recursion is tied to unpruned Monte Carlo by
    tail-probability z-scores at small n, as in check 9.  The
    reversed-role clause stays a particle run, since without an anomaly
    pruning keeps the front; its beams run one process per CPU.
    """
    t0 = time.perf_counter()
    target = 4.0 / math.sqrt(6.0)
    sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)
    n, h = 300, 0.02
    # the median ends near 490; coupled_front raises if mass reaches x_max
    fine, coarse = (coupled_front(sysm, n, x_max=560.0, h=step) for step in (h, 2 * h))
    mean_eta = fine.mean / n
    grid_change = abs(fine.mean - coarse.mean) / n
    clause_a = _relative_ok(mean_eta, target, 0.05)
    clause_b = mean_eta - SQRT2 > 3 * grid_change
    rows = coupled_mc_consistency(sysm, 4, [3.0, 4.0, 5.0], 400,
                                  seed=MASTER_SEED + 800)
    z_ok = all(abs(z) <= 3.0 for _, _, _, z in rows)
    eta_rev = float(np.mean(map_replicates(_reversed_replicate, range(8), 8)))
    clause_c = _relative_ok(eta_rev, SQRT2, 0.05)
    exp_speed = expected_numbers_speed(sysm.swap_roles())
    clause_d = abs(exp_speed - target) <= 1e-4
    ok = clause_a and clause_b and z_ok and clause_c and clause_d
    detail = [
        f"forward mean M_eta/n={mean_eta:.4f} (coupled front, h={h:g}) target "
        f"{target:.4f} +-5% {'ok' if clause_a else 'OUT OF BAND'}; median "
        f"slope over [{n // 2}, {n}]={fine.speed:.6f}",
        f"exceeds sqrt2 by 3x the h-to-2h change {grid_change:.1e}: "
        f"{'ok' if clause_b else 'NO'}",
        "z-scores vs unpruned MC at n=4: "
        + ", ".join(f"{x:g}:{z:+.2f}" for x, _, _, z in rows),
        f"reversed mean M_eta/n={eta_rev:.4f} target {SQRT2:.4f} +-5% "
        f"{'ok' if clause_c else 'OUT OF BAND'}",
        f"expected-numbers speed={exp_speed:.6f} (trap value {target:.6f}) "
        f"{'ok' if clause_d else 'WRONG'}",
    ]
    return CheckResult(8, "anomaly demonstration", ok, time.perf_counter() - t0,
                       300, detail)


def check_front_recursion() -> CheckResult:
    """9: front speed, travelling-wave stabilization, and MC agreement."""
    t0 = time.perf_counter()
    law = _bbm_one_type()
    res, _ = front_speed(law, 300, h=0.01)
    speed_ok = _relative_ok(res.speed, SQRT2, 0.01)
    stab_ok = float(res.sup_diffs[-1]) < 1e-3
    det2 = ReproductionLaw(OffspringLaw("deterministic", 2), Gaussian(0.0, 1.0))
    rows = mc_consistency(det2, 8, [6.0, 8.0], 100_000,
                          seed=MASTER_SEED + 600, h=0.005)
    z_ok = all(abs(z) <= 3.0 for _, _, _, z in rows)
    ok = speed_ok and stab_ok and z_ok
    detail = [f"front speed={res.speed:.5f} target {SQRT2:.5f} +-1%",
              f"final centered sup-diff={res.sup_diffs[-1]:.2e}",
              "z-scores: " + ", ".join(f"{x:g}:{z:+.2f}" for x, _, _, z in rows)]
    return CheckResult(9, "front recursion", ok, time.perf_counter() - t0, 120, detail)


def check_operator_axioms() -> CheckResult:
    """10: order preservation, translation invariance, fixed points of the update."""
    t0 = time.perf_counter()
    law = _bbm_one_type()
    rng = np.random.default_rng(MASTER_SEED + 700)
    tol = 1e-12
    ok = True
    detail = []
    m, q = 2001, 500   # the cells of [-20, 20] at h = 0.02, and a quarter of them
    # fixed points, away from the window's boundary extensions
    reach = int(law.displacement.lattice_cells(0.02)[-1])
    for const, name in ((1.0, "one"), (0.0, "zero")):
        v = apply_q(FrontProfile(np.full(m, const), -20.0, 0.02), law)
        err = float(np.max(np.abs(v.values[reach:-reach] - const)))
        ok = ok and err <= tol
        detail.append(f"fixed point {name}: max interior dev {err:.1e}")
    # order preservation and translation invariance on random monotone profiles
    worst_order, worst_shift = 0.0, 0.0
    for _ in range(5):
        base = np.ones(m)
        base[q:-q] = np.sort(rng.random(m - 2 * q))[::-1]
        base[-q:] = 0.0   # flat ends make in-window shifts exact
        lower = base * rng.uniform(0.2, 0.8)
        qu, ql = (apply_q(FrontProfile(v, -20.0, 0.02), law) for v in (base, lower))
        worst_order = max(worst_order, float(np.max(ql.values - qu.values)))
        cells = int(rng.integers(1, q // 2))
        shifted = np.concatenate([np.ones(cells), base[:-cells]])
        qs = apply_q(FrontProfile(shifted, -20.0, 0.02), law)
        worst_shift = max(worst_shift,
                          float(np.max(np.abs(qs.values[cells:] - qu.values[:-cells]))))
    ok = ok and worst_order <= tol and worst_shift <= tol
    detail.append(f"order preservation worst violation {worst_order:.1e}")
    detail.append(f"translation invariance worst deviation {worst_shift:.1e}")
    return CheckResult(10, "operator axioms", ok, time.perf_counter() - t0, 10, detail)


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    check_analytic_speeds,
    check_anomalous_worked_example,
    check_formula_cross_validation,
    check_fenchel_accuracy,
    check_mc_speed,
    check_count_profiles,
    check_centering_slope,
    check_anomaly_demonstration,
    check_front_recursion,
    check_operator_axioms,
]


def run_all(emit=print) -> List[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        res = fn()
        emit(res.line())
        for d in res.detail:
            emit(f"         {d}")
        results.append(res)
    return results
