"""Speed pipelines: one-type reports and the two-type anomalous machinery."""

import json
import math

import numpy as np
import pytest

from brwlab import acceptance, convex_analysis, speeds
from brwlab.cli import build_system, main, parse_config, run
from brwlab.convex_analysis import convex_minorant, sweep
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
from brwlab.speeds import (
    TwoTypeAnalysis,
    anomalous_speed,
    expected_numbers_speed,
    figure_table,
    one_type_speed,
    reversed_speed,
)

SQRT2 = math.sqrt(2.0)


class TestOneTypeSpeed:
    def test_unit_skeleton(self):
        law = ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))
        r = one_type_speed(law)
        assert r.speed == pytest.approx(SQRT2, abs=1e-6)
        assert r.tilt_root == pytest.approx(SQRT2, abs=1e-12)
        assert r.diagnostics["formula_gap"] < 1e-6

    def test_check_three_laws_agree_to_rounding(self):
        # the dual route reads the swept conjugate's end, found by one
        # bracketed root, so over check 3's random laws the formulas agree
        # to rounding (a probe of the end on a grid left gaps of 1e-10)
        rng = np.random.default_rng(acceptance.MASTER_SEED)
        worst = max(one_type_speed(acceptance._random_one_type(rng)).diagnostics["formula_gap"]
                    for _ in range(200))
        assert worst <= 1e-12

    def test_single_walk_rate_indicator(self):
        mu = 0.4
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        r = one_type_speed(law)
        assert r.speed == pytest.approx(mu, abs=1e-8)
        rate = r.rate_function
        assert rate(mu - 0.1) == pytest.approx(0.0, abs=1e-9)
        assert math.isinf(rate(mu + 0.1))

    def test_binary_gaussian_closed_form(self):
        # minimize (log2 + t^2/2)/t: minimum sqrt(2 log 2) at t = sqrt(2 log 2)
        law = ReproductionLaw(OffspringLaw("deterministic", 2), Gaussian(0.0, 1.0))
        r = one_type_speed(law)
        want = math.sqrt(2.0 * math.log(2.0))
        assert r.speed == pytest.approx(want, abs=1e-8)
        ts = np.linspace(1e-4, 6, 300001)
        oracle = float(np.min((math.log(2.0) + 0.5 * ts * ts) / ts))
        assert r.speed == pytest.approx(oracle, abs=1e-7)

    def test_rate_function_supports_count_checks(self):
        law = ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))
        rate = one_type_speed(law).rate_function
        assert rate(0.0) == pytest.approx(-1.0, abs=1e-7)
        assert rate(1.0) == pytest.approx(-0.5, abs=1e-7)
        assert math.isinf(rate(SQRT2 + 1e-3))

    def test_one_ratio_minimum(self, monkeypatch):
        # the dual grid reuses the infimum speed_from_inf found
        calls = []
        real = convex_analysis._ratio_root

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(convex_analysis, "_ratio_root", counted)
        law = ReproductionLaw(OffspringLaw("poisson_positive", 2.0), TwoPoint(-0.3, 0.4, 0.5))
        one_type_speed(law)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("offspring", [OffspringLaw("geometric", 1.0),
                                           OffspringLaw("deterministic", 1)])
    def test_mean_one_two_point_law_moves_at_its_step_mean(self, offspring, p):
        # one daughter each: the single walk moves at the step mean.  With
        # k(0) rounded below 0 (p = 0.3, 0.7) the rate function read
        # positive everywhere and the run failed; rounded above it (p = 0.1,
        # 0.9) the speed came out 3.7e-9 off the mean
        step = TwoPoint(-0.4, 0.6, p)
        r = one_type_speed(ReproductionLaw(offspring, step))
        mean = step.low + (step.high - step.low) * p
        assert r.speed == pytest.approx(mean, abs=1e-15)
        assert r.tilt_root is None
        assert r.diagnostics["formula_gap"] < 1e-8

    def test_mean_one_two_point_speed_run_exits_zero(self, tmp_path):
        law = {"offspring": "geometric", "mean": 1.0,
               "displacement": {"kind": "two_point", "low": -0.4, "high": 0.6,
                                "prob_high": 0.3}}
        cfg = tmp_path / "mean_one.json"
        cfg.write_text(json.dumps({"kind": "speed", "seed": 1, "law": law}))
        assert main(["speed", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestAnomalousSpeed:
    def test_worked_example(self):
        rep = anomalous_speed(skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5))
        target = 4.0 / math.sqrt(6.0)
        assert rep.route_formula == pytest.approx(target, abs=1e-6)
        assert rep.speed == pytest.approx(target, abs=1e-4)
        assert rep.speed_nu == pytest.approx(SQRT2, abs=1e-6)
        assert rep.speed_eta == pytest.approx(SQRT2, abs=1e-6)
        assert rep.anomalous

    def test_boundary_family_member_is_not_anomalous(self):
        rep = anomalous_speed(skeleton_of_bbm(1.0, 1.0, 0.5))
        assert rep.speed == pytest.approx(SQRT2, abs=1e-5)
        assert not rep.anomalous

    def test_scaled_family_closed_form(self):
        # the formula route is a Newton root, exact to rounding; golden
        # section was off by up to 1.6e-13
        for lam in (1.5, 2.0, 3.0, 5.0):
            rep = anomalous_speed(skeleton_of_bbm(1.0 / lam, lam, 0.5))
            want = (1.0 + lam) / math.sqrt(2.0 * lam)
            assert abs(rep.route_formula - want) <= 1e-14
            assert rep.speed == pytest.approx(want, abs=1e-4)

    def test_speed_never_below_either_class(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = float(rng.uniform(1.0, 6.0))
            v = float(rng.uniform(0.1, 2.0))
            rep = anomalous_speed(skeleton_of_bbm(v, lam, 0.5))
            assert rep.speed >= max(rep.speed_nu, rep.speed_eta) - 1e-6
            assert rep.rate(rep.speed - 0.05) <= 0.0

    def test_route_agreement_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            lam = float(rng.uniform(1.0, 6.0))
            v = float(rng.uniform(0.1, 2.0))
            rep = anomalous_speed(skeleton_of_bbm(v, lam, 0.5))
            assert abs(rep.speed - rep.route_formula) <= 1e-4

    def test_monotone_in_branching_rate_along_family(self):
        # closed form (1+lam)/sqrt(2 lam) increases in lam past 1
        speeds = [anomalous_speed(skeleton_of_bbm(1.0 / lam, lam, 0.5)).route_formula
                  for lam in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)]
        assert np.all(np.diff(speeds) >= -1e-9)

    def test_anomaly_criterion_equivalence(self):
        # anomalous exactly when both rate functions are positive at the speed
        rng = np.random.default_rng(23)
        for _ in range(25):
            lam = float(rng.uniform(1.0, 6.0))
            v = float(rng.uniform(0.1, 2.0))
            analysis = TwoTypeAnalysis(skeleton_of_bbm(v, lam, 0.5))
            rep = analysis.report
            knu_star, keta_star = analysis.duals
            a, b = float(knu_star(rep.speed)), float(keta_star(rep.speed))
            if abs(a) < 1e-3 or abs(b) < 1e-3:
                continue  # numerically at the boundary; the flag has a margin
            assert rep.anomalous == (a > 0 and b > 0), (lam, v, a, b)

    def test_sweep_only_raises_the_envelope(self):
        analysis = TwoTypeAnalysis(skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5))
        rep = analysis.report
        xs = analysis.expected_rate.xs
        r_vals = rep.rate(xs)
        e_vals = analysis.expected_rate(xs)
        both = np.isfinite(r_vals) & np.isfinite(e_vals)
        assert np.all(r_vals[both] >= e_vals[both] - 1e-9)


class TestReversedAndExpected:
    def test_reversed_worked_example(self):
        sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)
        assert reversed_speed(sysm) == pytest.approx(SQRT2, abs=1e-5)

    def test_symmetric_system_equals_one_type(self):
        law = ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))
        sysm = TwoTypeSystem(law, law, Seeding(0.5))
        assert reversed_speed(sysm) == pytest.approx(one_type_speed(law).speed,
                                                     abs=1e-5)

    def test_reversed_dominated_envelope(self):
        # at lam=5 the swapped envelope reduces to the faster class alone
        sysm = skeleton_of_bbm(1.0 / 5.0, 5.0, 0.5)
        assert reversed_speed(sysm) == pytest.approx(SQRT2, abs=1e-5)

    def test_expectation_trap(self):
        target = 4.0 / math.sqrt(6.0)
        sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)
        assert expected_numbers_speed(sysm) == pytest.approx(target, abs=1e-4)
        rev = sysm.swap_roles()
        # expectations cannot see the role reversal; the true speed can
        assert expected_numbers_speed(rev) == pytest.approx(target, abs=1e-4)
        assert reversed_speed(sysm) == pytest.approx(SQRT2, abs=1e-5)

    def test_speeds_do_not_depend_on_seeding_probability(self):
        vals = [anomalous_speed(skeleton_of_bbm(1.0 / 3.0, 3.0, p)).speed
                for p in (0.01, 0.5, 1.0)]
        assert max(vals) - min(vals) < 1e-9

    def test_expected_at_least_minorant_crossing(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            lam = float(rng.uniform(1.0, 6.0))
            v = float(rng.uniform(0.1, 2.0))
            sysm = skeleton_of_bbm(v, lam, 0.5)
            rep = anomalous_speed(sysm)
            assert expected_numbers_speed(sysm) >= rep.speed - 1e-6


def test_figure_table_crosses_zero_at_the_anomalous_speed():
    sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)
    rows = figure_table(sysm)
    assert rows[0][0] == pytest.approx(-0.5)
    assert rows[-1][0] == pytest.approx(2.0)
    a = np.array([r[0] for r in rows])
    cv = np.array([r[3] for r in rows])
    sign_change = np.flatnonzero((cv[:-1] <= 0) & (cv[1:] > 0))
    crossing = a[sign_change[-1]]
    assert crossing == pytest.approx(4.0 / math.sqrt(6.0), abs=2e-3)


def test_bounded_steps_meet_the_support_bound_by_both_routes():
    # both classes have bounded steps, so both conjugates are +inf past
    # the top steps 0.4 and 0.5; the envelope must stay +inf there rather
    # than continue with its end slope (which crossed zero at 0.6475)
    sysm = TwoTypeSystem(
        ReproductionLaw(OffspringLaw("geometric", 4.0), TwoPoint(-0.3, 0.4, 0.5)),
        ReproductionLaw(OffspringLaw("geometric", 5.0), TwoPoint(-0.4, 0.5, 0.6)),
        Seeding(0.5))
    rep = anomalous_speed(sysm)
    assert rep.speed == pytest.approx(0.5, abs=1e-8)
    assert rep.route_formula == pytest.approx(0.5, abs=1e-8)
    assert not rep.anomalous


def gaussian_law(offspring, mean, step_mean, variance):
    return {"offspring": offspring, "mean": mean,
            "displacement": {"kind": "gaussian", "mean": step_mean, "variance": variance}}


def _root_past_zero():
    # eta mean one: k_eta = 0.2 t + t^2 meets k_nu = log 20 + t^2/40 at the
    # root of 0.975 t^2 + 0.2 t - log 20, below nu's argmin sqrt(40 log 20)
    t = (-0.2 + math.sqrt(0.04 + 3.9 * math.log(20.0))) / 1.95
    return 0.2 + t


MEAN_ONE = [
    # nu mean one: its ratio falls to k_nu'(0) = 0.5 as s -> 0+, below eta's
    (gaussian_law("geometric", 1.0, 0.5, 3.0), gaussian_law("geometric", 1.5, 0.0, 0.5),
     math.sqrt(math.log(1.5)), False),
    # nu mean one and the faster class
    (gaussian_law("geometric", 1.0, 1.3, 0.2), gaussian_law("geometric", 2.0, 0.0, 0.5),
     1.3, False),
    # eta mean one, slower than nu at nu's argmin
    (gaussian_law("geometric", math.e, 0.0, 1.0),
     gaussian_law("deterministic", 1, 0.3, 1.0), SQRT2, False),
    # eta mean one, and B - A has its root on (0, nu's argmin)
    (gaussian_law("geometric", 20.0, 0.0, 0.05),
     gaussian_law("deterministic", 1, 0.2, 2.0), _root_past_zero(), True),
]


@pytest.mark.parametrize("nu, eta, want, anomalous", MEAN_ONE,
                         ids=["nu_slower", "nu_faster", "eta_slower", "eta_anomalous"])
def test_mean_one_class_on_either_side(tmp_path, nu, eta, want, anomalous):
    # a mean-one class has k(0) = 0, so its ratio's infimum is approached as
    # the tilt falls to 0+; clipping nu there at +inf made the routes
    # disagree by 0.469 (nu_slower) and the anomalous run exit 3
    system = {"nu": nu, "eta": eta, "seed_prob": 0.5}
    rep = anomalous_speed(build_system(system))
    assert abs(rep.speed - rep.route_formula) <= 10 * speeds.TAU_CROSS
    assert rep.route_formula == pytest.approx(want, abs=1e-12)
    assert rep.anomalous == anomalous
    cfg = tmp_path / "mean_one.json"
    cfg.write_text(json.dumps({"kind": "anomalous", "seed": 1, "system": system}))
    assert main(["anomalous", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestTwoTypeAnalysis:
    """Guards on the shared pipeline, by counting calls rather than timing."""

    SYS = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)

    def test_anomalous_run_builds_one_pair_of_conjugates(self, tmp_path, monkeypatch):
        built = []
        real = speeds.fenchel_dual

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(speeds, "fenchel_dual", counted)
        cfg = parse_config(json.dumps({"kind": "anomalous", "seed": 3,
                                       "system": {"skeleton": {"V": 1 / 3, "lambda": 3.0,
                                                               "p": 0.5}}}))
        assert run(cfg, out=str(tmp_path)) == 0
        assert len(built) == 2

    def test_formula_route_call_count(self, monkeypatch):
        # one bracketed Newton root of B - A, from the class speeds and
        # argmins already found (26 calls); doubling, golden section and a
        # 160-point plateau scan made 492
        calls, inside = [], []
        for name in ("cumulant", "cumulant_derivatives"):
            real = getattr(ReproductionLaw, name)

            def counted(law, theta, real=real):
                if inside:
                    calls.append(theta)
                return real(law, theta)

            monkeypatch.setattr(ReproductionLaw, name, counted)
        real_route = speeds._formula_route

        def route(*args):
            inside.append(True)
            try:
                return real_route(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(speeds, "_formula_route", route)
        anomalous_speed(self.SYS)
        assert 0 < len(calls) <= 40

    def test_anomalous_speed_builds_one_envelope(self, monkeypatch):
        # the expected-numbers envelope is built only when asked for
        built = []
        real = speeds.convex_minorant

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(speeds, "convex_minorant", counted)
        anomalous_speed(self.SYS)
        assert len(built) == 1

    def test_figure_table_evaluates_rules_array_wide(self, monkeypatch):
        # one scalar golden-section search per row and column made 527,673
        # cumulant calls; array-wide columns make 1,443
        calls = []
        real = ReproductionLaw.cumulant

        def counted(law, theta):
            calls.append(theta)
            return real(law, theta)

        monkeypatch.setattr(ReproductionLaw, "cumulant", counted)
        figure_table(self.SYS)
        assert len(calls) < 2000

    def test_figure_rows_match_pointwise_evaluation(self):
        analysis = TwoTypeAnalysis(self.SYS)
        rows = np.array(analysis.figure_table())
        d_nu, d_eta = analysis.duals
        curves = (sweep(d_nu), d_eta, analysis.envelope)
        for row in rows[::25]:
            point = np.array([row[0]] + [float(fn(row[0])) for fn in curves])
            assert np.array_equal(np.isinf(point), np.isinf(row))
            fin = np.isfinite(row)
            assert np.all(np.abs(point[fin] - row[fin]) <= 1e-10)

    def test_cv_is_the_forward_envelope(self):
        rows = np.array(figure_table(self.SYS))
        xs, cv = rows[:, 0], rows[:, 3]
        # the envelope rebuilt from the rules alone, as a fresh caller would
        analysis = TwoTypeAnalysis(self.SYS)
        d_nu, d_eta = analysis.duals
        rebuilt = convex_minorant(sweep(d_nu), d_eta, analysis.grid)
        assert np.array_equal(cv, rebuilt(xs))
        # and its sweep is the rate whose crossing anomalous_speed reports
        rate = anomalous_speed(self.SYS).rate
        assert np.array_equal(np.where(cv <= 0, cv, np.inf), rate(xs))
