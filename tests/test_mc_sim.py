"""Monte Carlo engines: determinism, pruning, censuses, and diagnostics."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from brwlab import mc_sim
from brwlab.errors import BudgetError, ParamError, StateError
from brwlab.front import expected_rightmost_curve
from brwlab.mc_sim import (
    TrajectoryStats,
    _branch,
    _children,
    _family_maxima,
    _prune,
    centering_slope,
    count_profile,
    predicted_beam_deficit,
    replicate_rng,
    rightmost_batch,
    run_count_census,
    run_one_type,
    run_two_type,
)
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

SQRT2 = math.sqrt(2.0)
BBM = ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))


def child_rng(seed, r):
    """Child r of ``seed``'s seed sequence: distinct streams for a test's
    repeated draws, as fixed as any seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))


class TestRunOneType:
    def test_deterministic_walk_is_exact(self):
        mu = 0.8
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        s = run_one_type(law, 50, budget=10, window=5.0, seed=1)
        assert np.allclose(s.rightmost, mu * np.arange(51))

    def test_bit_identical_for_same_seed(self):
        a = run_one_type(BBM, 40, budget=2000, window=10.0, seed=99)
        b = run_one_type(BBM, 40, budget=2000, window=10.0, seed=99)
        assert np.array_equal(a.rightmost, b.rightmost)
        c = run_one_type(BBM, 40, budget=2000, window=10.0, seed=100)
        assert not np.array_equal(a.rightmost, c.rightmost)

    def test_pruning_soundness_when_budget_never_binds(self):
        # tiny run: huge budget vs merely-large budget take identical paths
        small = run_one_type(BBM, 10, budget=10_000, window=50.0, seed=5)
        large = run_one_type(BBM, 10, budget=10_000_000, window=50.0, seed=5)
        assert np.array_equal(small.rightmost, large.rightmost)
        assert small.pruning["nu"] == 0

    def test_family_overflow_raises(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 50), Gaussian(0.0, 1.0))
        with pytest.raises(BudgetError):
            run_one_type(law, 3, budget=10, window=5.0, seed=0)

    def test_speed_small_scale(self):
        ms = [run_one_type(BBM, 80, budget=20_000, window=15.0, seed=200 + r
                           ).rightmost[80] / 80 for r in range(6)]
        assert np.mean(ms) == pytest.approx(SQRT2, rel=0.08)


class TestOneBeam:
    """A law runs as a two-type system with no eta class."""

    COMMON = ReproductionLaw(OffspringLaw("poisson_positive", 2.5),
                             TwoPoint(-0.4, 0.6, 0.3), "common")

    @pytest.mark.parametrize("law", [BBM, COMMON], ids=["unit", "common"])
    def test_law_beam_is_the_seedless_system_beam(self, law):
        # exact for a few generations, then pruned
        one = run_one_type(law, 12, budget=500, window=15.0, seed=7)
        two = run_two_type(TwoTypeSystem(law, law, Seeding(0.0)), 12, budget=500,
                           window=15.0, seed=7)
        assert np.array_equal(one.rightmost, two.rightmost)
        assert 0 < one.exact_upto == two.exact_upto < 12
        assert len(one.exact_positions) == len(two.exact_positions) == one.exact_upto + 1
        for a, b in zip(one.exact_positions, two.exact_positions):
            assert np.array_equal(a, b)
        assert one.pruning == two.pruning
        assert one.pruning["nu"] > 0 and one.pruning["eta"] == 0
        assert np.isnan(one.rightmost_eta).all() and one.rightmost_eta.size == 13

    def test_exact_run_keeps_its_last_generation(self):
        # 2^6 = 64 children at generation 6 fit a budget of 64
        law = ReproductionLaw(OffspringLaw("deterministic", 2), Gaussian(0.0, 1.0))
        s = run_one_type(law, 6, budget=64, window=5.0, seed=0)
        assert s.exact_upto == 6 and len(s.exact_positions) == 7
        assert s.exact_positions[6].size == 64
        assert s.rightmost[6] == s.exact_positions[6].max()

    def test_pruned_last_generation_is_drawn_as_family_maxima(self, monkeypatch):
        calls = []
        maxima = mc_sim._family_maxima

        def spy(law, positions, counts, rng):
            calls.append((positions.size, int(counts.sum())))
            return maxima(law, positions, counts, rng)

        monkeypatch.setattr(mc_sim, "_family_maxima", spy)
        s = run_one_type(BBM, 10, budget=200, window=15.0, seed=3)
        # one call, for the families of generation 10, born past the budget
        assert len(calls) == 1 and calls[0][1] > 200
        assert calls[0][0] <= 200 and s.exact_upto < 10
        # a last generation that fits the budget is drawn in full
        run_one_type(BBM, 3, budget=10 ** 6, window=15.0, seed=3)
        assert len(calls) == 1
        # an exact batch reads a law's last generation from its family maxima
        rightmost_batch(BBM, 3, 50, replicate_rng(3))
        assert len(calls) == 2


class TestCensusAndCounts:
    def test_census_matches_particle_engine_in_distribution(self):
        # mean rightmost at small n: lattice census vs exact particles
        reps = 400
        m_census = np.array([run_count_census(BBM, 6, seed=1000 + r,
                                              pitch=0.05).rightmost[6]
                             for r in range(reps)])
        rng = replicate_rng(55)
        m_exact = rightmost_batch(BBM, 6, reps, rng)
        se = math.sqrt(m_census.var(ddof=1) / reps + m_exact.var(ddof=1) / reps)
        assert abs(m_census.mean() - m_exact.mean()) <= 3 * se + 0.05

    def test_counts_positive_and_total_grows(self):
        s = run_count_census(BBM, 12, seed=3, pitch=0.05)
        totals = [int(c.counts.sum()) for c in s.census]
        assert totals[0] == 1
        assert all(t >= 1 for t in totals)
        assert totals[-1] > totals[5] > 1

    def test_count_profile_rows_and_zero_tag(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 2), PointMass(0.0))
        s = run_one_type(law, 6, budget=1000, window=5.0, seed=0)
        rows = count_profile(s, [0.0, 5.0])
        at_zero = {n: v for a, n, v in rows if a == 0.0}
        # every particle sits at the origin: count 2^n, all at a=0
        assert at_zero[6] == pytest.approx(math.log(2.0 ** 6) / 6)
        beyond = [v for a, n, v in rows if a == 5.0]
        assert all(math.isinf(v) and v < 0 for v in beyond)

    def test_count_profile_needs_exact_generations(self):
        s = run_one_type(BBM, 8, budget=2000, window=15.0, seed=2)
        s.exact_upto = 0
        with pytest.raises(StateError):
            count_profile(s, [0.0])

    def test_census_flags_saturation_before_totals_wrap(self):
        # 8 daughters each: generation 21 holds 2**63 particles, one past
        # INT64_MAX, so its int64 total wraps; generation 20 (2**60) fits
        law = ReproductionLaw(OffspringLaw("deterministic", 8), Gaussian(0.0, 1.0))
        assert not run_count_census(law, 20, seed=0, pitch=0.5).pruning["saturated"]
        assert run_count_census(law, 21, seed=0, pitch=0.5).pruning["saturated"]

    def test_saturated_census_stops_before_the_wrapping_draw(self):
        # drawn on, generation 22 would hand rng.multinomial a wrapped
        # negative int64 total ("ValueError: n < 0")
        law = ReproductionLaw(OffspringLaw("deterministic", 8), Gaussian(0.0, 1.0))
        s = run_count_census(law, 23, seed=0, pitch=0.5)
        assert s.pruning["saturated"]
        assert s.exact_upto == 20
        assert len(s.census) == 21 and s.rightmost.size == 21
        assert int(s.census[20].counts.sum()) == 8 ** 20
        assert count_profile(s, [0.0])[-1][1] == 20

    def test_count_check_fails_cleanly_on_a_saturated_census(self, monkeypatch):
        from brwlab import acceptance
        # 16 daughters: saturated at generation 16, before the check's k <= 20
        law = ReproductionLaw(OffspringLaw("deterministic", 16), Gaussian(0.0, 1.0))
        stats = run_count_census(law, 20, seed=0, pitch=0.5)
        assert stats.exact_upto == 15
        monkeypatch.setattr(acceptance, "run_count_census", lambda *a, **k: stats)
        result = acceptance.check_count_profiles()
        assert not result.passed
        assert result.detail == ["saturated censuses: 64/64"]

    def test_census_rejects_positive_poisson(self):
        law = ReproductionLaw(OffspringLaw("poisson_positive", 2.0),
                              Gaussian(0.0, 1.0))
        with pytest.raises(ParamError):
            run_count_census(law, 4, seed=0)

    def test_count_rate_fit_matches_rate_function(self):
        """Fitted growth-rate of counts over generations vs the analytic rate.

        The per-generation statistic log(Z_n)/n carries a -log(n)/n
        prefactor that is material at n=20 (see the count-profile
        acceptance check); the fitted slope of the log replicate-mean
        count over late generations cancels it and recovers the rate
        function within 10%.  Below the speed the expected-count and
        actual-count rates coincide, so the replicate mean is the right
        thing to fit.
        """
        from brwlab.speeds import one_type_speed
        rate = one_type_speed(BBM).rate_function
        reps, n_max = 32, 25
        mean_count = {a: np.zeros(n_max + 1) for a in (0.0, 0.5, 1.0)}
        for r in range(reps):
            s = run_count_census(BBM, n_max, seed=4000 + r, pitch=0.05)
            for n in range(1, n_max + 1):
                for a in mean_count:
                    mean_count[a][n] += s.census[n].count_at_least(a * n) / reps
        ns = np.arange(15, n_max + 1)
        for a, acc in mean_count.items():
            slope = np.polyfit(ns, np.log(acc[15:n_max + 1]), 1)[0]
            target = -float(rate(a))
            assert abs(slope - target) <= 0.10 * abs(target), (a, slope, target)


class TestCenteringSlope:
    def test_recovers_synthetic_slope(self):
        # oracle: noise-free synthetic curve with a known log coefficient
        n = np.arange(0, 201, dtype=float)
        coeff = -1.25
        m = n * SQRT2 + coeff * np.log(np.maximum(n, 1)) + 0.7
        stats = TrajectoryStats(seed=0, rightmost=m, exact_upto=0)
        fit = centering_slope([stats], SQRT2, SQRT2)
        assert fit.slope == pytest.approx(coeff, abs=1e-9)
        assert fit.stderr < 1e-9

    def test_deterministic_walk_has_zero_slope(self):
        mu = 0.5
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        stats = [run_one_type(law, 120, budget=10, window=5.0, seed=r)
                 for r in range(3)]
        fit = centering_slope(stats, mu, None)
        assert abs(fit.slope) < 1e-12

    def test_slope_ratio_tracks_tilt_ratio(self):
        """Two laws with equal speed but different tilt roots: the log
        coefficients scale inversely with the tilt root (within 50%).
        Exact front expectations are used; a budgeted beam's linear speed
        deficit would contaminate the regression."""
        law_a = BBM                                   # tilt root sqrt(2)
        v_b = 1.0 / math.log(2.0)                     # same speed sqrt(2)
        law_b = ReproductionLaw(OffspringLaw("deterministic", 2),
                                Gaussian(0.0, v_b))   # tilt root sqrt(2)*log2
        curve_a = expected_rightmost_curve(law_a, 160, h=0.02)
        curve_b = expected_rightmost_curve(law_b, 160, h=0.02)
        fit_a = centering_slope([TrajectoryStats(0, curve_a, 0)], SQRT2, None)
        fit_b = centering_slope([TrajectoryStats(0, curve_b, 0)], SQRT2, None)
        want = (SQRT2) / (SQRT2 * math.log(2.0))      # tilt_a / tilt_b
        ratio = fit_b.slope / fit_a.slope
        assert 0.5 * want <= ratio <= 1.5 * want

    def test_beam_bias_documented_behavior(self):
        """A budgeted beam's speed deficit is linear in n, so regressing the
        centered mean on log n overshoots the true coefficient badly; this
        pins the measured behavior so regressions are caught."""
        stats = [run_one_type(BBM, 120, budget=20_000, window=15.0,
                              seed=7000 + r) for r in range(8)]
        fit = centering_slope(stats, SQRT2, SQRT2)
        assert fit.slope < -3.0 / (2.0 * SQRT2)  # overshoots the true -1.06


class TestRunTwoType:
    SYS = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)

    def test_no_seeding_means_no_eta(self):
        sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.0)
        s = run_two_type(sysm, 20, budget=5000, window=15.0, seed=1)
        assert np.all(np.isnan(s.rightmost_eta[1:]))

    def test_deterministic_and_seeded(self):
        a = run_two_type(self.SYS, 30, budget=3000, window=15.0, seed=4)
        b = run_two_type(self.SYS, 30, budget=3000, window=15.0, seed=4)
        assert np.array_equal(a.rightmost, b.rightmost)
        assert np.array_equal(a.rightmost_eta, b.rightmost_eta, equal_nan=True)
        assert not math.isnan(a.rightmost_eta[30])

    def test_nu_dynamics_unaffected_by_seeding(self):
        # nu-class speed within 5% of its one-type value
        reps = 4
        ms = [run_two_type(self.SYS, 120, budget=20_000, window=15.0,
                           seed=300 + r).rightmost[120] / 120
              for r in range(reps)]
        assert np.mean(ms) == pytest.approx(SQRT2, rel=0.05)

    def test_eta_budget_respected(self):
        s = run_two_type(self.SYS, 60, budget=2000, window=30.0, seed=9)
        assert s.pruning["eta"] > 0
        assert s.pruning["nu"] > 0

    @pytest.mark.parametrize("n_max", [1, 2, 6])
    def test_last_generation_adds_nothing_to_the_counts(self, n_max):
        # point steps and certain seeding: every count follows from the
        # family sizes, nu 2 and eta 3, so a loop over generations 1 to
        # n_max - 1 gives them; all of generation k sits at 0.5 k (nu)
        # and 0.5 (k - 1) (eta)
        sysm = TwoTypeSystem(
            ReproductionLaw(OffspringLaw("deterministic", 2), PointMass(0.5)),
            ReproductionLaw(OffspringLaw("deterministic", 3), PointMass(0.5)),
            Seeding(1.0))
        budget = 10
        s = run_two_type(sysm, n_max, budget=budget, window=1.0, seed=3)
        nu, eta = 1, 0
        drawn, pruned = {"nu": 0, "eta": 0}, {"nu": 0, "eta": 0}
        for _ in range(1, n_max):
            born = {"nu": 2 * nu, "eta": 3 * eta + nu}
            for c in born:
                drawn[c] += born[c]
                pruned[c] += max(born[c] - budget, 0)
            nu, eta = min(born["nu"], budget), min(born["eta"], budget)
        assert s.pruning == dict(pruned, drawn=drawn)
        assert np.array_equal(s.rightmost, 0.5 * np.arange(n_max + 1))
        assert np.array_equal(s.rightmost_eta[1:], 0.5 * np.arange(n_max))

    @pytest.mark.parametrize("sysm, budget", [
        (skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5), 200),
        (TwoTypeSystem(
            ReproductionLaw(OffspringLaw("poisson_positive", 3.0),
                            TwoPoint(-0.3, 0.4, 0.35)),
            ReproductionLaw(OffspringLaw("geometric", 4.0), Gaussian(0.2, 0.5),
                            "common"),
            Seeding(0.5, Gaussian(0.0, 1.0))), 20)], ids=["skeleton", "mixed"])
    def test_last_generation_maxima_have_the_full_law(self, monkeypatch, sysm, budget):
        # the rightmost of each class at n against runs whose last
        # generation is drawn in full; at these budgets the last generation
        # of both classes exceeds the budget in about nine runs of ten (the
        # budget is above every family of generation 1), so it is drawn as
        # family maxima
        n, reps = 4, 300
        ends = {}
        for mode, seed in (("maxima", 100), ("full", 500)):
            with monkeypatch.context() as m:
                if mode == "full":
                    m.setattr(mc_sim, "_family_maxima", _full_maxima)
                runs = [run_two_type(sysm, n, budget=budget, seed=seed + r)
                        for r in range(reps)]
            ends[mode] = np.array([(s.rightmost[n], s.rightmost_eta[n])
                                   for s in runs])
        for col in range(2):
            assert ks_2samp(ends["maxima"][:, col], ends["full"][:, col]).pvalue > 1e-3


def _full_maxima(law, positions, counts, rng):
    """``_family_maxima`` by drawing every child: the oracle."""
    children = _children(law, positions, counts, rng)
    if not children.size:
        return children
    return np.maximum.reduceat(children, np.cumsum(counts) - counts)


def _born_and_maxima(maxima, law, parents, rng):
    """The family sizes drawn from ``rng``, summed, and ``maxima`` of them."""
    counts = law.offspring.sample(rng, parents.size)
    return int(counts.sum()), maxima(law, parents, counts, rng)


@pytest.mark.parametrize("law", [
    ReproductionLaw(OffspringLaw("geometric", math.exp(3.0)), Gaussian(0.0, 1 / 3)),
    ReproductionLaw(OffspringLaw("geometric", 3.0), Gaussian(0.5, 2.0), "common"),
    ReproductionLaw(OffspringLaw("deterministic", 3), PointMass(0.5)),
    ReproductionLaw(OffspringLaw("poisson_positive", 4.0), PointMass(-0.2), "common"),
    ReproductionLaw(OffspringLaw("poisson_positive", 4.0), TwoPoint(-0.3, 0.4, 0.2)),
    ReproductionLaw(OffspringLaw("geometric", 2.0), TwoPoint(-0.3, 0.4, 0.2), "common"),
], ids=["gaussian", "gaussian_common", "point", "point_common", "two_point",
        "two_point_common"])
def test_family_maxima_match_the_fully_drawn_children(law):
    parents = np.linspace(-3.0, 0.0, 40)
    got = [_born_and_maxima(_family_maxima, law, parents, child_rng(21, r))
           for r in range(500)]
    ref = [_born_and_maxima(_full_maxima, law, parents, child_rng(22, r))
           for r in range(500)]
    for runs in (got, ref):
        assert all(m.size == parents.size for _, m in runs)
    steps = {k: np.concatenate([m - parents for _, m in runs])
             for k, runs in (("got", got), ("ref", ref))}
    assert ks_2samp(steps["got"], steps["ref"]).pvalue > 1e-3
    born = {k: [b for b, _ in runs] for k, runs in (("got", got), ("ref", ref))}
    assert ks_2samp(born["got"], born["ref"]).pvalue > 1e-3


@pytest.mark.parametrize("step", [Gaussian(0.2, 0.5), TwoPoint(-0.3, 0.4, 0.35)],
                         ids=["gaussian", "two_point"])
@pytest.mark.parametrize("cut", [{}, {"above": 0.5}, {"below": -0.5}],
                         ids=["plain", "above", "below"])
def test_step_blocks_use_the_stream_of_one_call(monkeypatch, step, cut):
    law = ReproductionLaw(OffspringLaw("geometric", 3.0), step)
    parents = np.linspace(-1.0, 1.0, 1000)
    counts = law.offspring.sample(replicate_rng(5), parents.size)
    monkeypatch.setattr(mc_sim, "STEP_BLOCK", 10 ** 9)
    whole = _children(law, parents, counts, replicate_rng(6), **cut)
    monkeypatch.setattr(mc_sim, "STEP_BLOCK", 7)     # about 430 blocks
    blocked = _children(law, parents, counts, replicate_rng(6), **cut)
    assert whole.size == counts.sum()
    assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("step", [Gaussian(0.2, 0.5), TwoPoint(-0.3, 0.4, 0.35)],
                         ids=["gaussian", "two_point"])
@pytest.mark.parametrize("mechanism", ["independent", "common"])
def test_thinned_tail_masses_keep_the_stream(step, mechanism):
    # ``_thinned`` passes each parent's P(X > c - x), which it has read
    # already, with the threshold: the children must be those the
    # threshold alone draws, from the same generator state
    law = ReproductionLaw(OffspringLaw("geometric", 3.0), step, mechanism)
    parents = np.linspace(-1.0, 1.0, 1000)
    counts = law.offspring.sample(replicate_rng(5), parents.size)
    cut = 0.3
    plain = _children(law, parents, counts, replicate_rng(6), above=cut)
    tailed = _children(law, parents, counts, replicate_rng(6),
                       tail=step.sf(cut - parents), above=cut)
    assert plain.size == counts.sum()
    assert np.array_equal(tailed, plain)


def _window_then_partition(children, budget, window):
    """The prune as first written: the window cut, then the top budget."""
    kept = children[children >= children.max() - window]
    if kept.size > budget:
        kept = np.partition(kept, kept.size - budget)[-budget:]
    return kept


@pytest.mark.parametrize("size, budget, window", [
    (50, 100, 1.0), (50, 100, 100.0), (5000, 100, 0.5), (5000, 100, 100.0),
    (5000, 4000, 1.5), (100, 100, 2.0)])
def test_prune_keeps_the_window_then_partition_set(size, budget, window):
    rng = child_rng(4, size)
    for _ in range(20):
        children = rng.normal(0.0, 1.0, size)
        children[: size // 5] = np.round(children[: size // 5], 1)    # ties
        want = np.sort(_window_then_partition(children, budget, window))
        got = np.sort(_prune(children.copy(), budget, window))
        assert np.array_equal(got, want)


class TestRightmostBatch:
    def test_matches_single_runs_in_distribution(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 2), Gaussian(0.0, 1.0))
        rng = replicate_rng(123)
        batch = rightmost_batch(law, 6, 3000, rng)
        singles = np.array([run_one_type(law, 6, budget=10_000, window=50.0,
                                         seed=9000 + r).rightmost[6]
                            for r in range(300)])
        se = math.sqrt(batch.var(ddof=1) / batch.size
                       + singles.var(ddof=1) / singles.size)
        assert abs(batch.mean() - singles.mean()) <= 3.5 * se

    def test_cap_guard(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 4), Gaussian(0.0, 1.0))
        with pytest.raises(BudgetError):
            rightmost_batch(law, 14, 1000, replicate_rng(0))

    @pytest.mark.parametrize("family", [5_000_000, 2 ** 40])
    def test_cap_is_judged_before_any_child_is_drawn(self, monkeypatch, family):
        def refuse(*args, **kwargs):
            raise AssertionError("children drawn past the cap")

        # generation 1 is drawn in full at n = 2; generation n, only its
        # family maxima, is never judged against the cap
        monkeypatch.setattr(mc_sim, "_children", refuse)
        law = ReproductionLaw(OffspringLaw("deterministic", family), Gaussian(0.0, 1.0))
        with pytest.raises(BudgetError):
            rightmost_batch(law, 2, 4, replicate_rng(0))


    @pytest.mark.parametrize("family", [5_000_000, 2 ** 40])
    @pytest.mark.parametrize("role", ["nu", "eta"])
    def test_two_type_cap_is_judged_before_any_child_is_drawn(self, monkeypatch,
                                                              family, role):
        # the nu families of generation 1, or the eta families of generation
        # 2 (every nu seeds one eta), pass the cap: no child is drawn past it
        drawn = []
        children = mc_sim._children

        def recording(law, positions, counts, rng, **cut):
            drawn.append(int(counts.sum()))
            return children(law, positions, counts, rng, **cut)

        monkeypatch.setattr(mc_sim, "_children", recording)
        single = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(0.0))
        big = ReproductionLaw(OffspringLaw("deterministic", family), Gaussian(0.0, 1.0))
        sysm = (TwoTypeSystem(big, single, Seeding(1.0)) if role == "nu"
                else TwoTypeSystem(single, big, Seeding(1.0)))
        with pytest.raises(BudgetError):
            rightmost_batch(sysm, 3, 4, replicate_rng(0))
        assert all(d <= mc_sim.EXACT_POPULATION_CAP for d in drawn)

    def test_a_replicate_with_no_eta_reads_nan(self):
        point = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(0.0))
        sysm = TwoTypeSystem(point, point, Seeding(0.3, PointMass(0.5)))
        got = rightmost_batch(sysm, 1, 4000, replicate_rng(8))
        # generation 1 holds an eta exactly when the ancestor seeded one, at 0.5
        assert set(got[~np.isnan(got)]) == {0.5}
        assert abs(np.isnan(got).mean() - 0.7) <= 4 * math.sqrt(0.21 / got.size)
        assert np.isnan(rightmost_batch(sysm, 0, 10, replicate_rng(8))).all()
        never = TwoTypeSystem(point, point, Seeding(0.0))
        assert np.isnan(rightmost_batch(never, 5, 100, replicate_rng(8))).all()


def test_branch_children_follow_their_parents():
    # parents 100 apart, so rounding a child's position recovers its family
    positions = np.array([0.0, 100.0, 200.0, 300.0])
    point = ReproductionLaw(OffspringLaw("geometric", 3.0), PointMass(0.75))
    born, children = _branch(point, positions, replicate_rng(1))
    family = np.round(children / 100.0).astype(np.int64)
    assert born == children.size >= positions.size
    assert np.all(np.diff(family) >= 0)                 # children in parent order
    assert np.array_equal(np.unique(family), np.arange(positions.size))  # N >= 1
    assert np.array_equal(children, positions[family] + 0.75)

    common = ReproductionLaw(OffspringLaw("geometric", 3.0), Gaussian(0.0, 1.0),
                             "common")
    _, children = _branch(common, positions, replicate_rng(2))
    family = np.round(children / 100.0).astype(np.int64)
    steps = children - positions[family]
    for r in range(positions.size):
        siblings = steps[family == r]
        assert siblings.size and np.all(siblings == siblings[0])  # one shared step
    assert np.unique(steps).size == positions.size

    # an empty generation draws nothing
    rng = replicate_rng(3)
    born, children = _branch(common, np.empty(0), rng)
    assert born == children.size == 0
    assert rng.random() == replicate_rng(3).random()


def test_replicate_streams_are_split_by_seed():
    # callers seed replicate r as replicate_rng(base + r): one seed gives
    # one stream, whenever it is drawn, and distinct seeds differ
    r5 = replicate_rng(42 + 5).normal(size=4)
    r3 = replicate_rng(42 + 3).normal(size=4)
    r5_again = replicate_rng(47).normal(size=4)
    assert np.array_equal(r5, r5_again)
    assert not np.array_equal(r5, r3)
    # the stream is its seed's first spawned child
    first = np.random.default_rng(np.random.SeedSequence(47, spawn_key=(0,)))
    assert np.array_equal(r5, first.normal(size=4))


@pytest.mark.parametrize("jobs, cpus, pool", [(2, 8, 2), (50, 8, 8), (50, 1, None)])
def test_replicate_pool_is_capped_by_jobs_and_cpus(monkeypatch, jobs, cpus, pool):
    # a process pool forks all of its workers when it starts, so the size
    # it is asked for must already be capped; a fake pool records it
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(mc_sim, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(mc_sim.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(mc_sim.os, "cpu_count", lambda: cpus)
    assert mc_sim.map_replicates(abs, range(-jobs, 0), 100_000) == list(range(jobs, 0, -1))
    assert sizes == ([] if pool is None else [pool])


def _census_by_site_loop(law, n_max, seed, pitch):
    """The census as one multinomial call per occupied site, its cells in
    the engine's order, decreasing mass: the oracle of the engine's one
    call per block of sites."""
    rng = replicate_rng(seed)
    j, q = law.displacement.lattice_pmf(pitch)
    order = np.argsort(-q, kind="stable")
    offset = (j - j[0])[order]
    counts = np.array([1], dtype=np.int64)
    out = [counts]
    for _ in range(n_max):
        new_counts = np.zeros(counts.size + j[-1] - j[0], dtype=np.int64)
        nz = np.flatnonzero(counts)
        totals = law.offspring.sum_sample(rng, counts[nz])
        for b, tot in zip(nz, totals):
            new_counts[b + offset] += rng.multinomial(int(tot), q[order])
        counts = new_counts
        out.append(counts)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_census_is_byte_identical_to_the_per_site_loop(seed):
    s = run_count_census(BBM, 20, seed=seed, pitch=0.05)
    oracle = _census_by_site_loop(BBM, 20, seed, 0.05)
    assert len(s.census) == len(oracle)
    for census, counts in zip(s.census, oracle):
        assert census.counts.dtype == np.int64
        assert np.array_equal(census.counts, counts)


@pytest.mark.parametrize("mechanism", ["independent", "common"])
def test_census_mean_count_is_the_first_moment(mechanism):
    # E Z_k[ka, inf) = m^k P(S_k >= ka), S_k the sum of k steps of the
    # census's own lattice law: a census that drew its cells from another
    # law, or lost or doubled children, would leave this band
    law = ReproductionLaw(BBM.offspring, BBM.displacement, mechanism)
    k, reps, pitch = 8, 300, 0.05
    j, q = law.displacement.lattice_pmf(pitch)
    s_k = np.ones(1)
    for _ in range(k):
        s_k = np.convolve(s_k, q)
    first = k * int(j[0])       # the lattice cell of s_k[0]
    counts = {a: [] for a in (0.0, 0.5, 1.0)}
    for r in range(reps):
        census = run_count_census(law, k, seed=6000 + r, pitch=pitch).census[k]
        for a, got in counts.items():
            got.append(census.count_at_least(k * a))
    for a, got in counts.items():
        cell = math.ceil(k * a / pitch - 1e-12)
        expected = law.offspring.mean ** k * s_k[cell - first:].sum()
        got = np.array(got, dtype=float)
        z = (got.mean() - expected) / (got.std(ddof=1) / math.sqrt(reps))
        assert abs(z) <= 4, (a, z)


@pytest.mark.parametrize("mechanism", ["independent", "common"])
def test_census_places_two_point_steps_on_their_atoms(mechanism):
    # the atoms -0.3 and 0.4 are 14 cells apart at pitch 0.05: each
    # particle of generation n sits at k (-0.3) + (n - k) 0.4
    law = ReproductionLaw(OffspringLaw("deterministic", 3), TwoPoint(-0.3, 0.4, 0.5),
                          mechanism)
    for seed in range(4):
        s = run_count_census(law, 3, seed=seed, pitch=0.05)
        for n in range(1, 4):
            c = s.census[n]
            cells = c.start_index + np.flatnonzero(c.counts)
            allowed = {int(round((-0.3 * k + 0.4 * (n - k)) / 0.05)) for k in range(n + 1)}
            assert set(cells.tolist()) <= allowed
            assert int(c.counts.sum()) == 3 ** n
            assert s.rightmost[n] == pytest.approx(cells.max() * 0.05)


class TestThinnedBranching:
    """A beam generation born past THIN_GATE budgets draws only the children
    that can survive the prune; the kept set keeps its law."""

    REVERSED = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5).swap_roles()
    PARENTS = np.sort(replicate_rng(3).uniform(-2.0, 0.0, 200))
    BUDGET = 150

    @staticmethod
    def path(monkeypatch, mode):
        """``full`` never thins; ``fallback`` thins with so low a cut that
        the rest of every family is nearly always drawn below it."""
        if mode == "full":
            monkeypatch.setattr(mc_sim, "THIN_GATE", math.inf)
        elif mode == "fallback":
            monkeypatch.setattr(mc_sim, "THIN_MARGIN", 0.1)

    def kept_sets(self, law, reps, seed):
        out = []
        for r in range(reps):
            born, children = _branch(law, self.PARENTS, child_rng(seed, r),
                                     budget=self.BUDGET)
            assert born > mc_sim.THIN_GATE * self.BUDGET or mc_sim.THIN_GATE == math.inf
            kept = _prune(children, self.BUDGET, 15.0)
            out.append((kept.max(), kept.min(), kept.mean(), children.size, born))
        return np.array(out)

    @pytest.mark.parametrize("law", [
        ReproductionLaw(OffspringLaw("geometric", math.exp(3.0)), Gaussian(0.0, 1 / 3)),
        ReproductionLaw(OffspringLaw("geometric", math.exp(3.0)), Gaussian(0.0, 1 / 3),
                        "common"),
        ReproductionLaw(OffspringLaw("poisson_positive", 8.0), TwoPoint(-0.3, 0.4, 0.35)),
    ], ids=["gaussian", "common", "two_point"])
    def test_kept_set_has_one_law_on_every_path(self, monkeypatch, law):
        stats = {}
        for mode, seed in (("full", 11), ("thinned", 12), ("fallback", 13)):
            with monkeypatch.context() as m:
                self.path(m, mode)
                stats[mode] = self.kept_sets(law, 300, seed)
        drawn, born = stats["thinned"][:, 3], stats["thinned"][:, 4]
        # whole families under ``common``: at this small budget about a
        # third of the generations fall back
        assert np.mean(drawn < born) > 0.5 and np.median(drawn / born) < 0.5
        assert np.mean(stats["fallback"][:, 3] == stats["fallback"][:, 4]) > 0.9
        for mode in ("thinned", "fallback"):
            for col in range(3):        # kept max, kept min, kept mean
                p = ks_2samp(stats["full"][:, col], stats[mode][:, col]).pvalue
                assert p > 1e-3, (mode, col, p)

    def test_rightmost_eta_has_one_law_on_every_path(self, monkeypatch):
        n, reps = 12, 200
        ends = {}
        for mode, seed in (("full", 100), ("thinned", 400), ("fallback", 700)):
            with monkeypatch.context() as m:
                self.path(m, mode)
                runs = [run_two_type(self.REVERSED, n, budget=300, window=15.0,
                                     seed=seed + r) for r in range(reps)]
            ends[mode] = np.array([s.rightmost_eta[n] for s in runs])
            if mode == "thinned":
                drawn = sum(s.pruning["drawn"]["eta"] for s in runs)
                kept_and_pruned = sum(s.pruning["eta"] for s in runs)
                assert drawn < 0.5 * kept_and_pruned
        for mode in ("thinned", "fallback"):
            assert ks_2samp(ends["full"], ends[mode]).pvalue > 1e-3, mode

    def test_beams_under_the_gate_draw_every_child(self, monkeypatch):
        # born/kept is about e for the unit beam, below THIN_GATE: its
        # stream is the full path's, bit for bit
        thinned = run_one_type(BBM, 60, budget=2000, window=15.0, seed=31)
        monkeypatch.setattr(mc_sim, "THIN_GATE", math.inf)
        full = run_one_type(BBM, 60, budget=2000, window=15.0, seed=31)
        assert np.array_equal(thinned.rightmost, full.rightmost)
        assert thinned.pruning == full.pruning

    def test_pruned_counts_born_minus_kept(self):
        s = run_two_type(self.REVERSED, 30, budget=1000, window=15.0, seed=8)
        assert s.pruning["drawn"]["eta"] < s.pruning["eta"]
        # the nu beam (born/kept about e) draws every child it prunes
        assert s.pruning["drawn"]["nu"] >= s.pruning["nu"]


def test_predicted_beam_deficit_closed_form():
    # unit skeleton: theta* = sqrt 2 and k'' = 1
    for budget in (1000, 100_000):
        L = math.log(budget) + 3.0 * math.log(math.log(budget))
        want = math.pi ** 2 * SQRT2 / (2.0 * L * L)
        assert predicted_beam_deficit(BBM, SQRT2, budget) == pytest.approx(want,
                                                                          rel=1e-14)
    assert math.isnan(predicted_beam_deficit(BBM, None, 1000))
