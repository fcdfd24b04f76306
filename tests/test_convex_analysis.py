"""Convex-duality machinery: worked values, independent oracles, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brwlab.convex_analysis import (
    EvaluableFunction,
    GridSpec,
    _hull_points,
    _lower_hull,
    convex_minorant,
    fenchel_dual,
    speed_from_dual,
    speed_from_inf,
    sweep,
)
from brwlab.errors import DomainError
from brwlab.models import (
    Gaussian,
    OffspringLaw,
    PointMass,
    ReproductionLaw,
    Seeding,
    TwoPoint,
    TwoTypeSystem,
    skeleton_of_bbm,
)
from brwlab.speeds import TwoTypeAnalysis

SQRT2 = math.sqrt(2.0)


def sampled(rule, xs, end=math.inf):
    """The function with the given vectorized rule and domain end, sampled on xs."""
    return EvaluableFunction(xs, rule(xs), rule, end)


def constant(value, xs):
    return sampled(lambda a: np.full(np.shape(a), value), xs)


def gaussian_law(log_mean, variance):
    """Geometric counts of mean e^log_mean with centred Gaussian steps: the
    law whose cumulant is log_mean + variance * t^2 / 2."""
    return ReproductionLaw(OffspringLaw("geometric", math.exp(log_mean)),
                           Gaussian(0.0, variance))


def dual_window(law):
    """The window one_type_speed samples a conjugate on: from 1 below the
    zero-tilt slope k'(0) and the speed to 1 past the speed."""
    speed = speed_from_inf(law).speed
    (s0,), _ = law.cumulant_derivatives(0.0)
    return GridSpec(min(s0, speed) - 1.0, speed + 1.0)


def default_dual(law):
    """The conjugate of ``law`` on its ``dual_window``."""
    return fenchel_dual(law, dual_window(law))


def scan_conjugate(kappa, a, thetas):
    """Independent oracle: dense-scan supremum of t*a - kappa(t)."""
    vals = thetas * a - kappa(thetas)
    return float(np.max(vals[np.isfinite(vals)]))


class TestFenchelDual:
    def test_gaussian_closed_form(self):
        # conjugate of lam + V t^2/2 is -lam for a<0 and -lam + a^2/(2V) after
        lam, v = 3.0, 1.0 / 3.0
        dual = default_dual(gaussian_law(lam, v))
        a = np.arange(-1.0, 3.0001, 1e-3)
        exact = -lam + np.maximum(a, 0.0) ** 2 / (2.0 * v)
        assert float(np.max(np.abs(dual(a) - exact))) < 1e-4

    def test_linear_cumulant_gives_indicator(self):
        mu = 0.8
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        dual = default_dual(law)
        assert dual(mu - 0.3) == pytest.approx(0.0, abs=1e-9)
        assert math.isinf(dual(mu + 0.3))

    def test_value_matches_dense_scan_oracle(self):
        # kappa = log2 + t^2/2 at a=1: maximizer t=a, value 1/2 - log 2
        law = gaussian_law(math.log(2.0), 1.0)
        dual = default_dual(law)
        thetas = np.linspace(0.0, 10.0, 400001)
        oracle = scan_conjugate(law.cumulant, 1.0, thetas)
        assert oracle == pytest.approx(0.5 - math.log(2.0), abs=1e-9)
        assert dual(1.0) == pytest.approx(oracle, abs=1e-8)

    def test_minimum_is_minus_kappa_at_zero(self):
        for log_mean, v in ((1.0, 1.0), (math.log(2.0), 0.5), (3.0, 1.0 / 3.0)):
            dual = default_dual(gaussian_law(log_mean, v))
            finite = dual.ys[np.isfinite(dual.ys)]
            assert float(finite.min()) == pytest.approx(-log_mean, abs=1e-7)

    def test_dual_is_convex_and_eventually_nondecreasing(self):
        dual = default_dual(gaussian_law(1.0, 1.0))
        ys = dual.ys[np.isfinite(dual.ys)]
        slopes = np.diff(ys)
        i_min = int(np.argmin(ys))
        assert np.all(slopes[i_min:] >= -1e-12)
        assert np.all(np.diff(slopes) >= -1e-7)


def two_point_conjugate(a, law):
    """Closed-form sup_{t >= 0} (t a - kappa(t)) for a two-point step law.

    With q = (a - low)/(high - low) it is -log m plus the relative
    entropy of Bernoulli(q) to Bernoulli(p) once q > p (the tilt is
    positive), -log m below that, and +inf past ``high``.
    """
    d = law.displacement
    out = np.full(a.shape, -math.log(law.offspring.mean))
    q = (a - d.low) / (d.high - d.low)
    up = (q > d.prob_high) & (q < 1.0)
    qu, p = q[up], d.prob_high
    out[up] += qu * np.log(qu / p) + (1.0 - qu) * np.log((1.0 - qu) / (1.0 - p))
    out[a > d.high] = np.inf
    return out


class TestConjugateCost:
    """Conjugates by Newton on closed-form derivatives: few calls, none wasted.

    Guards count calls of the cumulant and of its derivatives rather
    than time them.
    """

    GRID = GridSpec(-1.0, 1.5, 1e-3)
    TWO_POINT = ReproductionLaw(OffspringLaw("geometric", 2.0), TwoPoint(-0.3, 0.4, 0.5))
    UNIT = ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))

    @staticmethod
    def counting(monkeypatch):
        """Record each cumulant call as "k" and each derivative call as "d"."""
        calls = []
        for name, tag in (("cumulant", "k"), ("cumulant_derivatives", "d")):
            real = getattr(ReproductionLaw, name)

            def counted(law, theta, real=real, tag=tag):
                calls.append(tag)
                return real(law, theta)

            monkeypatch.setattr(ReproductionLaw, name, counted)
        return calls

    def test_gaussian_conjugate_call_count(self, monkeypatch):
        # f' is affine, so one Newton step from t = 0 is exact and the next
        # call sees a rounding-level residual; stopping on the step size
        # alone fell into ~50 bisection steps per conjugate
        calls = self.counting(monkeypatch)
        dual = fenchel_dual(self.UNIT, self.GRID)
        assert calls.count("d") <= 6 and calls.count("k") <= 2
        exact = -1.0 + np.maximum(dual.xs, 0.0) ** 2 / 2.0
        assert float(np.max(np.abs(dual.ys - exact))) < 1e-14

    def test_two_point_conjugate_call_count(self, monkeypatch):
        # golden section made 107 cumulant calls, 50 of them doubling the
        # brackets of the +inf points up to the 2^48 cap
        calls = self.counting(monkeypatch)
        fenchel_dual(self.TWO_POINT, self.GRID)
        assert len(calls) < 40

    def test_rule_evaluation_call_count(self, monkeypatch):
        # one vector of 48 points costs a few calls in all, not a few per
        # point; golden section made 59 calls
        calls = self.counting(monkeypatch)
        dual = fenchel_dual(self.TWO_POINT, self.GRID)
        calls.clear()
        dual(np.linspace(0.0, 0.3, 48))
        assert len(calls) <= 6

    @pytest.mark.parametrize("mean", [2.0, 2.5])
    def test_top_atom_heavy_enough_attains_nothing(self, monkeypatch, mean):
        # m q >= 1 for top atom mass q = 1/2: k(t)/t falls to the top 0.4
        # only as t -> inf.  At m q = 1 Newton made 34 cumulant calls and
        # reported a spurious tilt root of 51.36 as attained.
        calls = self.counting(monkeypatch)
        law = ReproductionLaw(OffspringLaw("geometric", mean), TwoPoint(-0.3, 0.4, 0.5))
        res = speed_from_inf(law)
        assert calls.count("k") <= 2
        assert res.speed == 0.4
        assert res.tilt_root is None and res.tilt_argmin is None
        assert res.diagnostics["attained"] is False

    def test_top_atom_too_light_keeps_its_root(self):
        # m q = 0.95 < 1: the ratio has an interior minimum below the top
        law = ReproductionLaw(OffspringLaw("geometric", 1.9), TwoPoint(-0.3, 0.4, 0.5))
        res = speed_from_inf(law)
        assert res.diagnostics["attained"] and res.tilt_root is not None
        assert res.speed < 0.4
        assert res.tilt_root * res.speed == pytest.approx(
            law.cumulant(res.tilt_root), abs=1e-12)

    @pytest.mark.parametrize("law", [
        ReproductionLaw(OffspringLaw("geometric", 2.0), TwoPoint(-0.3, 0.4, 0.5)),
        ReproductionLaw(OffspringLaw("poisson_positive", math.e), TwoPoint(0.0, 1.0, 0.3)),
        ReproductionLaw(OffspringLaw("deterministic", 3), TwoPoint(-1.0, 0.2, 0.7)),
    ])
    def test_two_point_closed_form(self, law):
        dual = fenchel_dual(law, self.GRID)
        xs = dual.xs[np.abs(dual.xs - law.displacement.high) > 1e-6]
        got, want = dual(xs), two_point_conjugate(xs, law)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert float(np.max(np.abs(got[fin] - want[fin]))) < 1e-9

    @pytest.mark.parametrize("value, mean", [(0.3, 2.0), (-0.25, 1.5)])
    def test_point_mass_closed_form(self, value, mean):
        law = ReproductionLaw(OffspringLaw("geometric", mean), PointMass(value))
        dual = fenchel_dual(law, self.GRID)
        xs = dual.xs[np.abs(dual.xs - value) > 1e-6]
        got = dual(xs)
        want = np.where(xs > value, np.inf, -math.log(mean))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert float(np.max(np.abs(got[fin] - want[fin]))) < 1e-9


CATALOGUE = [ReproductionLaw(off, step, mech)
             for off in (OffspringLaw("geometric", 2.0),
                         OffspringLaw("poisson_positive", math.e),
                         OffspringLaw("deterministic", 3))
             for step in (Gaussian(0.2, 0.7), PointMass(0.3), TwoPoint(-0.3, 0.4, 0.5))
             for mech in ("independent", "common")]


def law_id(law):
    return f"{law.offspring.kind}-{type(law.displacement).__name__}-{law.mechanism}"


def step_bound(law):
    """Supremum of the step law's support: the cumulant's asymptotic slope."""
    d = law.displacement
    return {PointMass: lambda: d.value, TwoPoint: lambda: d.high,
            Gaussian: lambda: math.inf}[type(d)]()


INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
THETA_CAP = 2.0 ** 48


def golden_max(objective, lo, hi, tol=1e-10, max_iter=220):
    """Vectorized golden-section maximization of a concave objective on [lo, hi],
    one new objective evaluation per step; the maximum is read at the
    midpoint of the final bracket."""
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    x1 = hi - INVPHI * (hi - lo)
    x2 = lo + INVPHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(max_iter):
        if float(np.max(hi - lo)) <= tol:
            break
        right = f2 >= f1
        lo = np.where(right, x1, lo)
        hi = np.where(right, hi, x2)
        new = np.where(right, lo + INVPHI * (hi - lo), hi - INVPHI * (hi - lo))
        fn = objective(new)
        x1, f1, x2, f2 = (np.where(right, x2, new), np.where(right, f2, fn),
                          np.where(right, new, x1), np.where(right, fn, f1))
    xm = 0.5 * (lo + hi)
    return xm, objective(xm)


def golden_conjugate(f, avec):
    """Oracle conjugate sup_{t >= 0} (t a - f(t)) from values of f alone.

    Each point doubles a bracket [0, hi] from hi = 1 until its objective
    stops rising; a point still rising at the 2^48 cap is +inf (past a
    bounded step's top), and the rest are golden-sectioned together.
    """

    def objective_at(a):
        def objective(t):
            ft = np.asarray(f(t), dtype=float)
            return np.where(np.isfinite(ft), t * a - ft, -np.inf)
        return objective

    objective = objective_at(avec)
    hi = np.ones(avec.shape)
    unresolved = np.ones(avec.shape, dtype=bool)
    cur = objective(hi)
    while True:
        trial = np.minimum(hi * 2.0, THETA_CAP)
        can_grow = unresolved & (hi < THETA_CAP)
        if not can_grow.any():
            break
        nxt = objective(trial)
        improving = can_grow & (nxt > cur)
        unresolved = unresolved & ~(can_grow & ~improving)
        hi = np.where(improving, trial, hi)
        cur = np.where(improving, nxt, cur)
        if not improving.any():
            break
    assert not np.isnan(cur).any()
    vals = np.full(avec.shape, np.inf)
    live = ~(unresolved & (hi >= THETA_CAP))
    if live.any():
        _, vals[live] = golden_max(objective_at(avec[live]), np.zeros(int(live.sum())),
                                   np.minimum(2.0 * hi[live], THETA_CAP))
    return vals


def golden_min_scalar(fun, lo, hi, tol=1e-12, max_iter=220):
    """Scalar golden-section minimization of a unimodal function on [lo, hi]."""
    x1, x2 = hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - INVPHI * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + INVPHI * (hi - lo)
            f2 = fun(x2)
    xm = 0.5 * (lo + hi)
    return xm, fun(xm)


def golden_ratio_minimum(f):
    """Oracle (value, argmin, attained) of inf f(t)/t over t > 0 from values of
    f alone: a doubling bracket and golden section, or the asymptotic
    slope when the ratio still falls at the 2^48 cap."""

    def ratio(t):
        v = f(t)
        return v / t if math.isfinite(v) else math.inf

    t = 1e-6
    while 2 * t <= THETA_CAP:
        if ratio(2 * t) >= ratio(t):
            tm, vm = golden_min_scalar(ratio, max(t / 2, 1e-9), 2 * t)
            return float(vm), float(tm), True
        t = 2 * t
    big = THETA_CAP / 4
    return float((f(2 * big) - f(big)) / big), None, False


class TestNewtonAgainstGolden:
    """The Newton solvers against golden-section oracles on the same cumulant."""

    @pytest.mark.parametrize("law", CATALOGUE, ids=law_id)
    def test_conjugates_agree_up_to_the_step_bound(self, law):
        bound = step_bound(law)
        for grid in (dual_window(law), GridSpec(-1.0, 1.5, 1e-3)):
            xs = grid.abscissae()
            if math.isfinite(bound):
                xs = np.concatenate([xs, [np.nextafter(bound, -np.inf), bound,
                                          np.nextafter(bound, np.inf), bound + 1e-9]])
            newton, ref = fenchel_dual(law, grid)(xs), golden_conjugate(law.cumulant, xs)
            # just above the bound the golden rule is finite for 0 to 4 ulps,
            # as rounding decides; the Newton rule keeps the value at the
            # bound there, the limit -log(m p) of a two-point step
            edge = (xs > bound) & (xs <= bound + 4e-16)
            assert np.array_equal(np.isinf(newton[~edge]), np.isinf(ref[~edge]))
            fin = np.isfinite(ref)
            assert float(np.max(np.abs(newton[fin] - ref[fin]))) < 1e-9
            if edge.any():
                assert np.allclose(newton[edge], fenchel_dual(law, grid)(bound), atol=1e-12)

    @pytest.mark.parametrize("law", CATALOGUE[::2], ids=law_id)
    def test_ratio_minimum_agrees(self, law):
        newton = speed_from_inf(law)
        ref_speed, ref_argmin, ref_attained = golden_ratio_minimum(law.cumulant)
        assert newton.speed == pytest.approx(ref_speed, abs=1e-12)
        if abs(ref_speed - step_bound(law)) <= 1e-12:
            # at m p >= 1 the ratio decreases to its bound only as t -> inf;
            # at m p = 1 it is flat to rounding past t ~ 50, where the golden
            # rule stops and calls the minimum attained.  The Newton rule
            # decides the case from the bound's atom and attains nothing.
            assert not newton.diagnostics["attained"]
            assert newton.tilt_root is None and newton.tilt_argmin is None
        else:
            assert newton.diagnostics["attained"] == ref_attained
            if ref_argmin is not None:
                assert newton.tilt_argmin == pytest.approx(ref_argmin, rel=1e-6)


class TestSweep:
    def test_piecewise_formula_for_scaled_example(self):
        # swept conjugate of t^2/(2 lam) + lam at V = 1/lam:
        # -lam (1 - a^2/2) on [0, sqrt(2)], +inf beyond
        lam = 3.0
        swept = sweep(default_dual(gaussian_law(lam, 1.0 / lam)))
        for a in (0.0, 0.5, 1.0, 1.4):
            assert swept(a) == pytest.approx(-lam * (1 - a * a / 2.0), abs=1e-7)
        assert math.isinf(swept(SQRT2 + 1e-6))
        assert swept(-0.5) == pytest.approx(-lam, abs=1e-7)

    def test_nonpositive_functions_are_fixed_points(self):
        f = constant(-1.0, np.arange(-1.0, 1.0, 1e-2))
        assert np.array_equal(sweep(f).ys, f.ys)

    def test_sign_split_keeps_zero(self):
        f = sampled(lambda a: np.array(a, dtype=float), np.arange(-1.0, 1.0001, 1e-3))
        swept = sweep(f)
        assert np.all(np.isinf(swept.ys[swept.xs > 0]))
        assert np.array_equal(swept.ys[swept.xs <= 0], f.ys[f.xs <= 0])

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        # a random convex quadratic a (x - b)^2 + c, a sign change or not
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(0.0, 3.0), rng.uniform(-1.5, 1.5), rng.normal()
        f = sampled(lambda x: a * (x - b) ** 2 + c, np.arange(-1.0, 1.0, 1e-2))
        once = sweep(f)
        assert np.array_equal(sweep(once).ys, once.ys)
        probes = rng.uniform(-1.5, 1.5, 50)
        assert np.array_equal(sweep(once)(probes), once(probes))


class TestDomainEnds:
    """Each function carries the right end of its finite values, set where
    it is built: no search for an end is made afterwards."""

    GRID = GridSpec(-1.0, 1.5, 1e-3)
    EXTRA = [ReproductionLaw(OffspringLaw("geometric", 1.9), TwoPoint(-0.3, 0.4, 0.5)),
             ReproductionLaw(OffspringLaw("poisson_positive", 2.5), TwoPoint(-0.4, 0.9, 0.3)),
             ReproductionLaw(OffspringLaw("geometric", 4.0), TwoPoint(-0.4, 0.9, 0.3))]

    @staticmethod
    def top_and_mass(law):
        step = law.displacement
        return ((step.high, step.prob_high) if isinstance(step, TwoPoint)
                else (step.value, 1.0) if isinstance(step, PointMass) else (math.inf, 0.0))

    def test_conjugate_ends(self):
        # a bounded step's top plus the rounding the rule allows, so the
        # rule is finite at the end and +inf past it
        for step, top in ((TwoPoint(-0.3, 0.4, 0.5), 0.4), (PointMass(0.3), 0.3)):
            d = fenchel_dual(ReproductionLaw(OffspringLaw("geometric", 2.0), step), self.GRID)
            assert top <= d.end <= top + 4.0 * np.finfo(float).eps
            assert math.isfinite(d(d.end)) and np.isinf(d(np.nextafter(d.end, 2.0)))
        assert fenchel_dual(gaussian_law(1.0, 1.0), self.GRID).end == math.inf

    @pytest.mark.parametrize("law", CATALOGUE + EXTRA, ids=law_id)
    def test_sweep_end_is_the_speed(self, law):
        res = speed_from_inf(law)
        d = default_dual(law)
        end = sweep(d).end
        if res.diagnostics["attained"]:
            assert end == pytest.approx(res.speed, abs=1e-12)
        top, q = self.top_and_mass(law)
        if law.offspring.mean * q > 1.0:
            assert end == d.end           # the conjugate is <= 0 at its end
        elif law.offspring.mean * q == 1.0:
            assert end == pytest.approx(top, abs=1e-12)
        else:
            assert end < top - 1e-6

    def test_hull_holds_the_bounded_conjugates_end(self):
        law = ReproductionLaw(OffspringLaw("geometric", 4.0), TwoPoint(-0.3, 0.4, 0.5))
        d = fenchel_dual(law, self.GRID)
        px, py = _hull_points(d, d, d.xs, d.ys, d.ys)
        assert d.end == pytest.approx(0.4, abs=1e-15)
        assert px[-1] == d.end and py[-1] == d(d.end) == pytest.approx(-math.log(2.0))
        assert convex_minorant(d, d, self.GRID).end == d.end

    def test_sweep_keeps_an_end_past_the_window(self):
        # nonpositive through the grid's right end: +inf when finite
        # through the window, the function's own end when it has one
        xs = np.linspace(-1.0, 1.0, 21)
        assert sweep(sampled(lambda a: a - 5.0, xs)).end == math.inf
        assert sweep(sampled(lambda a: np.where(a <= 3.0, a - 5.0, np.inf), xs, 3.0)).end == 3.0
        assert sweep(sampled(lambda a: np.where(a <= 3.0, a - 2.0, np.inf), xs, 3.0)).end == 2.0
        assert sweep(constant(0.5, xs)).end == -math.inf


class TestConvexMinorant:
    def test_crossing_of_worked_pair(self):
        # envelope of the swept lam=3 conjugate and the unit one crosses
        # zero at 4/sqrt(6)
        lam = 3.0
        f = sweep(default_dual(gaussian_law(lam, 1.0 / lam)))
        g = default_dual(gaussian_law(1.0, 1.0))
        cv = convex_minorant(f, g, GridSpec(-1.0, 5.0, 1e-3))
        assert speed_from_dual(cv) == pytest.approx(4.0 / math.sqrt(6.0), abs=1e-6)

    def test_common_tangent_oracle(self):
        # the bridge between the two parabola branches is their common
        # tangent; solve the tangency equations independently
        from scipy.optimize import fsolve
        lam = 3.0
        f_par = lambda a: -lam + 1.5 * a * a     # lam=3, V=1/3 branch
        g_par = lambda a: -1.0 + 0.5 * a * a

        def eqs(p):
            a1, a2 = p
            return [3.0 * a1 - a2,
                    g_par(a2) - (f_par(a1) + 3.0 * a1 * (a2 - a1))]

        (a1, a2), info, ok, _ = fsolve(eqs, [0.8, 2.4], full_output=True)
        assert ok == 1
        assert a1 == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-10)
        assert a2 == pytest.approx(math.sqrt(6.0), abs=1e-10)
        f = sweep(default_dual(gaussian_law(lam, 1.0 / lam)))
        g = default_dual(gaussian_law(1.0, 1.0))
        cv = convex_minorant(f, g, GridSpec(-1.0, 5.0, 1e-3))
        mid = 0.5 * (a1 + a2)
        tangent = f_par(a1) + 3.0 * a1 * (mid - a1)
        assert cv(mid) == pytest.approx(tangent, abs=1e-5)
        # strictly below both inputs on the bridge
        assert cv(mid) < min(float(f(mid)) if np.isfinite(f(mid)) else np.inf,
                             float(g(mid)))

    def test_idempotent_on_convex_input(self):
        grid = GridSpec(-1.0, 3.0, 1e-3)
        f = fenchel_dual(gaussian_law(1.0, 1.0), grid)
        cv = convex_minorant(f, f, grid)
        assert float(np.max(np.abs(cv(f.xs) - f.ys))) < 1e-9

    def test_symmetric_and_below_min(self):
        f = default_dual(gaussian_law(2.0, 0.5))
        g = default_dual(gaussian_law(1.0, 1.5))
        grid = GridSpec(-1.0, 4.0, 1e-3)
        cv_fg = convex_minorant(f, g, grid)
        cv_gf = convex_minorant(g, f, grid)
        assert np.allclose(cv_fg.ys, cv_gf.ys, atol=1e-12)
        m = np.minimum(f(cv_fg.xs), g(cv_fg.xs))
        assert np.all(cv_fg.ys <= m + 1e-10)

    def test_end_slope_only_past_a_finite_grid_end(self):
        grid = GridSpec(-1.0, 2.0, 2e-3)
        # bounded steps: both conjugates are +inf past the top steps 0.4
        # and 0.5, a domain edge inside the grid
        f, g = (fenchel_dual(ReproductionLaw(OffspringLaw("geometric", m),
                                             TwoPoint(lo, hi, p)), grid)
                for m, lo, hi, p in ((4.0, -0.3, 0.4, 0.5), (5.0, -0.4, 0.5, 0.6)))
        cv = convex_minorant(sweep(f), g, grid)
        assert math.isfinite(cv(0.5 - 1e-6))
        assert np.all(np.isinf(cv(np.array([0.5 + 1e-6, 1.0, 2.0, 3.0]))))
        assert speed_from_dual(sweep(cv)) == pytest.approx(0.5, abs=1e-8)
        # Gaussian steps: finite at the grid end (window truncation), so
        # the envelope goes on with its end slope
        f = default_dual(gaussian_law(2.0, 0.5))
        g = default_dual(gaussian_law(1.0, 1.5))
        cv = convex_minorant(f, g, GridSpec(-1.0, 4.0, 1e-3))
        slope = (cv(4.0) - cv(4.0 - 1e-3)) / 1e-3
        assert cv(5.0) == pytest.approx(cv(4.0) + slope, rel=1e-9)

    def test_all_infinite_raises(self):
        f = constant(np.inf, np.arange(0.0, 1.0, 1e-2))
        with pytest.raises(DomainError):
            convex_minorant(f, f, GridSpec(0.0, 1.0, 1e-2))

    def test_conjugates_on_the_window_grid_enter_by_stored_values(self):
        # the working grid's conjugates are never evaluated on the whole
        # grid: their rules run only at the domain ends and, one point at a
        # time, in each sweep's crossing search
        analysis = TwoTypeAnalysis(skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5))
        sizes = []

        def counted(d):
            def rule(a):
                sizes.append(np.size(a))
                return d.rule(a)
            return EvaluableFunction(d.xs, d.ys, rule, d.end)

        analysis.duals = tuple(counted(d) for d in analysis.duals)
        analysis.envelope, analysis.expected_rate, analysis.reversed_speed()
        assert sizes and max(sizes) <= 2

    def test_input_on_another_grid_is_evaluated(self):
        grid = GridSpec(-1.0, 2.0, 2e-3)
        xs = grid.abscissae()
        law = ReproductionLaw(OffspringLaw("geometric", 2.0), TwoPoint(-0.3, 0.4, 0.5))
        f = sweep(fenchel_dual(law, GridSpec(-1.5, 2.5, 1e-3)))
        g = fenchel_dual(gaussian_law(1.0, 1.0), grid)
        resampled = EvaluableFunction(xs, f(xs), f.rule, f.end)
        probes = np.linspace(-1.2, 2.2, 301)
        for pair, on_grid in (((f, g), (resampled, g)), ((g, f), (g, resampled))):
            cv, want = convex_minorant(*pair, grid), convex_minorant(*on_grid, grid)
            assert np.array_equal(cv.ys, want.ys)
            assert np.array_equal(cv(probes), want(probes))


def monotone_chain(px, py):
    """Reference lower hull of points sorted by x: Andrew's monotone chain,
    one point at a time.  Collinear middle points are popped, and at a
    duplicate abscissa the lower value stays."""
    hx, hy = [], []
    for x, y in zip(px.tolist(), py.tolist()):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (x - hx[-2]) * (hy[-1] - hy[-2])
            if cross > 0:
                break
            hx.pop()
            hy.pop()
        if hx and x == hx[-1]:
            if y >= hy[-1]:
                continue
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.array(hx), np.array(hy)


def assert_hull_matches_chain(px, py):
    hx, hy = _lower_hull(px, py)
    cx, cy = monotone_chain(px, py)
    assert np.array_equal(hx, cx) and np.array_equal(hy, cy)
    return hx, hy


def random_step(rng, kind):
    if kind == "gaussian":
        return Gaussian(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 2.0))
    if kind == "point":
        return PointMass(rng.uniform(-0.5, 1.0))
    lo = rng.uniform(-1.0, 0.5)
    return TwoPoint(lo, lo + rng.uniform(0.2, 1.5), rng.uniform(0.1, 0.9))


def random_class(rng, steps):
    count = ("deterministic", "geometric", "poisson_positive")[rng.integers(3)]
    mean = int(rng.integers(2, 6)) if count == "deterministic" else rng.uniform(1.2, 8.0)
    step = random_step(rng, steps[rng.integers(len(steps))])
    return ReproductionLaw(OffspringLaw(count, mean), step)


class TestLowerHullOracle:
    """The array-wide hull has the monotone chain's vertices, bit for bit."""

    @pytest.mark.parametrize("form", ["skeleton", "general", "bounded"])
    def test_envelopes_of_random_systems(self, form):
        rng = np.random.default_rng({"skeleton": 31, "general": 32, "bounded": 33}[form])
        for _ in range(6):
            if form == "skeleton":
                sysm = skeleton_of_bbm(rng.uniform(0.1, 2.0), rng.uniform(1.0, 6.0), 0.5)
            else:
                steps = ("gaussian",) if form == "general" else ("point", "two_point")
                sysm = TwoTypeSystem(random_class(rng, steps), random_class(rng, steps),
                                     Seeding(rng.uniform(0.05, 1.0)))
            analysis = TwoTypeAnalysis(sysm)
            d_nu, d_eta = analysis.duals
            xs = analysis.grid.abscissae()
            # forward, reversed and expected-numbers envelopes
            for f, g in ((sweep(d_nu), d_eta), (sweep(d_eta), d_nu), (d_nu, d_eta)):
                assert_hull_matches_chain(*_hull_points(f, g, xs, f.ys, g.ys))

    def test_flat_run_keeps_only_its_ends(self):
        # a conjugate is -k(0) below k'(0) = 0.5: one flat run
        grid = GridSpec(-1.0, 3.0, 2e-3)
        law = ReproductionLaw(OffspringLaw("geometric", 2.0), Gaussian(0.5, 1.0))
        d = fenchel_dual(law, grid)
        px, py = _hull_points(d, d, grid.abscissae(), d.ys, d.ys)
        hx, hy = assert_hull_matches_chain(px, py)
        flat = hx[hy == d.ys[0]]
        assert flat.size == 2 and flat[0] == -1.0 and flat[1] <= 0.5

    def test_duplicate_abscissae_keep_the_lower_value(self):
        px = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0])
        py = np.array([1.0, 2.0, -1.0, 0.0, 5.0, 0.5, 0.0, 4.0])
        hx, hy = assert_hull_matches_chain(px, py)
        assert hx.tolist() == [0.0, 1.0, 3.0] and hy.tolist() == [1.0, -1.0, 0.0]

    def test_collinear_and_single_points(self):
        assert_hull_matches_chain(np.array([0.5]), np.array([-1.0]))
        assert_hull_matches_chain(np.array([0.5, 0.5]), np.array([-1.0, 2.0]))
        xs = np.arange(6.0)
        hx, _ = assert_hull_matches_chain(xs, 2.0 * xs - 1.0)
        assert hx.tolist() == [0.0, 5.0]

    def test_single_finite_point_of_the_minimum(self):
        xs = GridSpec(0.0, 1.0, 0.25).abscissae()
        f = sampled(lambda a: np.where(np.abs(a - 0.5) < 0.1, -1.0, np.inf), xs)
        px, py = _hull_points(f, f, xs, f.ys, f.ys)
        assert_hull_matches_chain(px, py)
        cv = convex_minorant(f, f, GridSpec(0.0, 1.0, 0.25))
        assert cv(0.5) == -1.0 and np.isinf(cv(0.0)) and np.isinf(cv(1.0))

    def test_domain_edges_at_both_grid_ends(self):
        # f ends at 0.9995, between the last two nodes of the grid, and g
        # at -0.9995, between the first two; each end is carried by its
        # function and joins the hull's points with no search
        grid = GridSpec(-1.0, 1.0, 1e-3)
        xs = grid.abscissae()
        f = sampled(lambda a: np.where(a <= 0.9995, a * a - 0.5, np.inf), xs, 0.9995)
        g = sampled(lambda a: np.where(a <= -0.9995, np.abs(a - 0.3) - 0.9, np.inf), xs,
                    -0.9995)
        px, py = _hull_points(f, g, xs, f.ys, g.ys)
        assert px.size == np.isfinite(np.minimum(f.ys, g.ys)).sum() + 2
        assert px[-1] == 0.9995 and py[-1] == f(0.9995)
        assert py[px == -0.9995].tolist() == [g(-0.9995)]
        hx, _ = assert_hull_matches_chain(px, py)
        cv = convex_minorant(f, g, grid)
        assert cv.end == hx[-1] == 0.9995
        assert np.isinf(cv(0.99951)) and math.isfinite(cv(-1.5))
        assert cv(hx[-1]) == pytest.approx(float(f(hx[-1])))


class TestSpeedFunctionals:
    def test_dual_route_examples(self):
        dual = default_dual(gaussian_law(1.0, 1.0))
        assert speed_from_dual(dual) == pytest.approx(SQRT2, abs=1e-8)
        dual2 = default_dual(gaussian_law(math.log(2.0), 1.0))
        # closed-form root of -log2 + a^2/2
        assert speed_from_dual(dual2) == pytest.approx(math.sqrt(2 * math.log(2.0)),
                                                       abs=1e-8)

    def test_degenerate_walk_crossing(self):
        mu = 0.6
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        dual = default_dual(law)
        assert speed_from_dual(dual) == pytest.approx(mu, abs=1e-8)

    def test_inf_route_examples(self):
        r = speed_from_inf(gaussian_law(1.0, 1.0))
        assert r.speed == pytest.approx(SQRT2, abs=1e-9)
        assert r.tilt_root == pytest.approx(SQRT2, abs=1e-6)
        # scan oracle for the ratio minimum
        ts = np.linspace(1e-4, 10, 200001)
        oracle = float(np.min((1.0 + 0.5 * ts * ts) / ts))
        assert r.speed == pytest.approx(oracle, abs=1e-8)

    def test_no_displacement_means_no_spread(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 2), PointMass(0.0))
        r = speed_from_inf(law)
        assert abs(r.speed) < 1e-9
        assert r.tilt_root is None

    def test_scaled_gaussian_family(self):
        for lam, v in ((2.0, 0.7), (5.0, 0.2)):
            r = speed_from_inf(gaussian_law(lam, v))
            assert r.speed == pytest.approx(math.sqrt(2 * v * lam), abs=1e-8)

    def test_positive_rate_function_raises(self):
        f = constant(0.5, np.arange(-1.0, 1.0, 1e-2))
        with pytest.raises(DomainError):
            speed_from_dual(f)


class TestEvaluableFunction:
    def test_rejects_nan_and_unordered(self):
        xs = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            EvaluableFunction(xs, np.array([0.0, np.nan, 1.0]), np.abs)
        with pytest.raises(ValueError):
            EvaluableFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.abs)

    def test_rejects_a_finite_sample_past_the_end(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, np.inf])
        assert EvaluableFunction(xs, ys, np.abs, 1.0).end == 1.0
        with pytest.raises(ValueError, match="end"):
            EvaluableFunction(xs, ys, np.abs, 0.5)

    def test_rejects_nonconvex_tag(self):
        xs = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            EvaluableFunction(xs, np.array([0.0, 1.0, 0.0]), np.sin)
        with pytest.raises(ValueError, match="gap"):
            EvaluableFunction(xs, np.array([0.0, np.inf, 0.0]), np.sin)

    def test_rule_reproduces_stored_grid(self):
        # convex_minorant takes an input's stored values for its rule's
        # values on the working grid when the input was built on that grid
        grid = GridSpec(-1.0, 2.0, 2e-3)
        law = ReproductionLaw(OffspringLaw("geometric", 2.0), TwoPoint(-0.3, 0.4, 0.5))
        d = fenchel_dual(law, grid)
        g = fenchel_dual(gaussian_law(1.0, 1.0), grid)
        swept = sweep(d)
        for f in (d, swept, convex_minorant(swept, g, grid)):
            assert np.array_equal(f(f.xs), f.ys)

    def test_csv_serializes_inf_literal(self, tmp_path):
        xs = np.array([0.0, 1.0])
        f = EvaluableFunction(xs, np.array([1.5, np.inf]), np.abs)
        p = tmp_path / "f.csv"
        f.write_csv(p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "a,value"
        assert lines[2].endswith(",inf")


def test_dual_and_inf_routes_agree_on_random_gaussians():
    rng = np.random.default_rng(7)
    for _ in range(25):
        log_mean = float(rng.uniform(0.1, 3.0))
        v = float(rng.uniform(0.1, 2.0))
        law = gaussian_law(log_mean, v)
        assert speed_from_dual(default_dual(law)) == pytest.approx(
            speed_from_inf(law).speed, abs=1e-6)
