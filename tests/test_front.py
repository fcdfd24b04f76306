"""Front recursion: update reduction, axioms, speeds, and MC agreement."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from brwlab import front
from brwlab.errors import KernelError, RangeError
from brwlab.front import (
    FrontProfile,
    apply_q,
    coupled_front,
    coupled_mc_consistency,
    expected_rightmost_curve,
    front_speed,
    heaviside_profile,
    mc_consistency,
)
from brwlab.mc_sim import TrajectoryStats, centering_slope, replicate_rng, rightmost_batch
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
from brwlab.speeds import anomalous_speed

SQRT2 = math.sqrt(2.0)
BBM = ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0))
DET2 = ReproductionLaw(OffspringLaw("deterministic", 2), Gaussian(0.0, 1.0))


BLOCKED_CONVOLVE = front._convolve


def oracle_convolve(u, step, band=None):
    """``front._convolve`` by one ``np.convolve`` per step: the Gaussian
    branch as the package computed it before its blocked product, the
    profile extended by its first value on the left and by 0 on the right."""
    if not isinstance(step, Gaussian):
        return BLOCKED_CONVOLVE(u, step)
    values, h = u.values, u.h
    sd = math.sqrt(step.variance)
    reach = int(math.ceil(8.0 * sd / h))
    z = h * np.arange(-reach, reach + 1)
    w = Gaussian(0.0, step.variance).density(z) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    w = w / w.sum()
    padded = np.concatenate([np.full(reach, values[0]), values, np.zeros(reach)])
    return np.clip(np.convolve(padded, w, mode="valid"), 0.0, 1.0), step.mean


def oracle_cells(values, start, size):
    """``front._cells`` by ``np.interp`` on unit cells: the profile and one
    0.0 cell after it, linear between cells, its first value left of them
    (``np.interp``'s default) and 0.0 right of them."""
    cells = np.arange(values.size + 1.0)
    return np.interp(start + np.arange(size), cells, np.append(values, 0.0), right=0.0)


def front_like(n, left, seed=0):
    """A noisy profile falling from its first value ``left``, geometric from
    1e-3 to about 1e-100 over its third quarter and exactly 0.0 over its last."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-3.0, 3.0, n)
    v = left * 0.5 * (1.0 - np.tanh(x)) * rng.uniform(0.5, 1.0, n)
    v[0] = left
    tail = n - n // 2
    v[n // 2:] = np.geomspace(1e-3, 1e-200, tail) * rng.uniform(0.5, 1.0, tail)
    v[3 * n // 4:] = 0.0
    return v


class TestApplyQ:
    def test_one_step_against_quadrature_oracle(self):
        # v(x) = 1 - (1 - I(x))^2 with I(x) = int of the step density over
        # the region where the initial data is 1; independently integrated
        u = heaviside_profile(h=0.005)
        v = apply_q(u, DET2)
        for x in (-1.0, 0.0, 1.0):
            integral, _ = quad(lambda z: norm.pdf(z), x, np.inf)
            want = 1.0 - (1.0 - integral) ** 2
            got = float(v.evaluate(np.asarray([x]))[0])
            assert got == pytest.approx(want, abs=1e-6)
            # closed form of the same quantity
            assert want == pytest.approx(1.0 - norm.cdf(x) ** 2, abs=1e-12)

    def test_single_walk_translates_exactly(self):
        mu = 0.37
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        u = heaviside_profile(h=0.01)
        v = apply_q(u, law)
        assert v.offset == pytest.approx(u.offset + mu, abs=0.0)
        assert np.array_equal(v.values, u.values)

    def test_common_displacements_rejected(self):
        law = ReproductionLaw(OffspringLaw("geometric", 2.0), Gaussian(0.0, 1.0),
                              "common")
        with pytest.raises(KernelError):
            apply_q(heaviside_profile(), law)

    def test_monotonicity_guard(self):
        u = FrontProfile(np.linspace(0.0, 1.0, 1001), -10.0, 0.02)  # increasing: invalid
        with pytest.raises(RangeError):
            apply_q(u, BBM)

    def test_two_point_step_mixture(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 1), TwoPoint(0.0, 1.0, 0.5))
        u = heaviside_profile(h=0.01)
        v = apply_q(u, law)
        # single particle, step 0 or 1: P(M_1 > x) = 0.5 for x in (0, 1)
        assert float(v.evaluate(np.asarray([0.5]))[0]) == pytest.approx(0.5, abs=1e-9)

    def test_leading_edge_below_rounding_floor(self):
        # 1 - pgf(1 - s) cancels to 0 once s < ~1e-16, which cut the edge
        # off at a smallest positive value of exactly 4.44e-16
        *_, u = front._profiles(BBM, 60, 0.02)
        assert float(u.values[u.values > 0].min()) < 1e-20


class TestKernel:
    """The blocked kernel against ``np.convolve``, the direct sum it replaced;
    each ``left`` is the profile's first value, which extends it."""

    @staticmethod
    def both(values, h, var):
        step, u = Gaussian(0.0, var), FrontProfile(values, 0.0, h)
        got, shift = BLOCKED_CONVOLVE(u, step)
        want, _ = oracle_convolve(u, step)
        assert shift == step.mean
        return got, want

    @pytest.mark.parametrize("h", [0.005, 0.01, 0.02])
    @pytest.mark.parametrize("left", [1.0, 0.3, 0.0])
    @pytest.mark.parametrize("n, var", [
        (40, 1.0),            # n_out below B, K (up to 3201 taps) above n
        (1000 + 37, 1.0),     # n_out not a multiple of B
        (1000 + 37, 1e-4),    # K (9 to 33 taps) below B
        (2500, 0.25),
    ])
    def test_agrees_with_direct_convolution(self, n, var, h, left):
        k = 2 * front._band(Gaussian(0.0, var), h).reach + 1
        if n == 40:
            assert k > n
        if var == 1e-4:
            assert k < front._BLOCK
        got, want = self.both(front_like(n, left, seed=n), h, var)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("left", [1.0, 0.3])
    def test_flat_spans_are_exact(self, left):
        h, var = 0.01, 1.0
        reach = front._band(Gaussian(0.0, var), h).reach
        v = front_like(5000, left)
        v[:800] = left
        got, want = self.both(v, h, var)
        # every window of all-``left`` cells returns ``left`` itself, which
        # a sum of K rounded products need not
        assert np.all(got[:800 - reach] == left)
        # an all-zero tail stays exactly 0.0
        last = int(np.flatnonzero(v)[-1])
        assert np.all(got[last + reach + 1:] == 0.0)
        assert np.all(want[last + reach + 1:] == 0.0)
        assert got[last + reach] > 0.0

    @pytest.mark.parametrize("c", [1.0, 0.3, 0.0])
    def test_constant_profile_stays_in_unit_interval(self, c):
        n, h, var = 3000, 0.01, 1.0
        reach = front._band(Gaussian(0.0, var), h).reach
        got, want = self.both(np.full(n, c), h, var)
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.all(got[:n - reach] == c)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_cells_below_tiny_keep_relative_precision(self):
        # the same profile at 2^-1000 of its size, partly subnormal: the
        # output is the scaled output wherever that is a normal number
        h, var = 0.01, 1.0
        v = front_like(3000, 1.0)
        v = v[v > 1e-12]
        scale = 2.0 ** -1000
        got, _ = self.both(v * scale, h, var)
        want = self.both(v, h, var)[0] * scale
        assert (v * scale < np.finfo(float).tiny).any()
        normal = want > np.finfo(float).tiny
        assert normal.sum() > 1000
        assert np.all(np.abs(got - want)[normal] <= 1e-13 * want[normal])

    def test_band_is_built_once_per_run(self, monkeypatch):
        built = []
        band = front._band
        monkeypatch.setattr(front, "_band", lambda *a: built.append(a) or band(*a))
        front_speed(BBM, 5, h=0.05)
        expected_rightmost_curve(BBM, 5, h=0.05)
        mc_consistency(BBM, 2, [0.0], 10, h=0.05)
        assert len(built) == 3
        built.clear()
        coupled_front(skeleton_of_bbm(1 / 3, 3.0, 0.5), 5, x_max=30.0)
        assert len(built) == 3     # nu, eta and seeding steps

    def test_both_recursions_step_through_one_update(self, monkeypatch):
        laws = []
        update = front.apply_q
        monkeypatch.setattr(front, "apply_q", lambda *a: laws.append(a[1]) or update(*a))
        front_speed(BBM, 7, h=0.05)
        assert laws == [BBM] * 7
        laws.clear()
        sysm = skeleton_of_bbm(1 / 3, 3.0, 0.5)
        coupled_front(sysm, 5, x_max=30.0)
        assert laws == [sysm.law_nu, sysm.law_eta] * 5


class TestReader:
    """``_cells``, the one reader of every window, against ``np.interp``."""

    N = 40

    @pytest.mark.parametrize("left", [1.0, 0.3, 0.0])
    @pytest.mark.parametrize("size", [1, 7, N + 25])
    def test_agrees_with_interpolation(self, left, size):
        values, n = front_like(self.N, left, seed=self.N), self.N
        pad = 2 * n + 60
        padded = np.concatenate([np.full(pad, left), values, np.zeros(pad)])
        # whole starts, within, before and past the profile
        for start in (0, 5, -3, n - 2, n + 4, -n - 30):
            got = front._cells(values, start, size)
            # a whole start copies cells: the profile padded and sliced
            assert np.array_equal(got, padded[pad + start:pad + start + size])
            assert np.array_equal(got, oracle_cells(values, start, size))
        # fractional starts, within, before and past the profile
        for start in (0.25, -2.75, 0.5, 17.3, -0.9, n - 0.5, n + 3.7, -n - 29.5):
            got, want = front._cells(values, start, size), oracle_cells(values, start, size)
            assert np.array_equal(got == 0.0, want == 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_flat_spans_read_exactly(self):
        # a blend of two equal cells is that value, as np.interp returns it
        values = np.concatenate([np.full(50, 0.3), np.linspace(0.3, 0.0, 50)])
        got = front._cells(values, -7.37, 60)
        assert np.all(got[:55] == 0.3)
        assert np.all(front._cells(values, 100.6, 5) == 0.0)

    def test_recursions_read_no_point_by_interpolation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.interp called")

        monkeypatch.setattr(np, "interp", refuse)
        single = OffspringLaw("deterministic", 1)
        sysm = TwoTypeSystem(ReproductionLaw(single, PointMass(0.0)),
                             ReproductionLaw(single, Gaussian(0.53, 0.1)),
                             Seeding(1.0, PointMass(0.31)))
        coupled_front(sysm, 5, x_max=30.0)
        coupled_front(skeleton_of_bbm(1 / 3, 3.0, 0.5), 5, x_max=30.0)
        front_speed(BBM, 5, h=0.05)
        two_point = ReproductionLaw(OffspringLaw("geometric", 2.0), TwoPoint(-0.13, 0.5, 0.3))
        front_speed(two_point, 5, h=0.05)
        apply_q(heaviside_profile(h=0.01), two_point)


class TestKernelPin:
    """End to end, the blocked kernel against the direct sum patched in."""

    @staticmethod
    def both(monkeypatch, run):
        got = run()
        with monkeypatch.context() as m:
            m.setattr(front, "_convolve", oracle_convolve)
            want = run()
        return got, want

    def test_front_speed(self, monkeypatch):
        got, want = self.both(monkeypatch, lambda: front_speed(BBM, 300, h=0.01)[0].speed)
        assert got == pytest.approx(want, abs=1e-12)

    def test_centering_slope(self, monkeypatch):
        def run():
            curve = expected_rightmost_curve(BBM, 800, h=0.01)
            stats = TrajectoryStats(seed=0, rightmost=curve, exact_upto=0)
            return centering_slope([stats], SQRT2).slope

        got, want = self.both(monkeypatch, run)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("swap", [False, True])
    def test_coupled_front(self, monkeypatch, swap):
        sysm = skeleton_of_bbm(1 / 3, 3.0, 0.5)
        if swap:
            sysm = sysm.swap_roles()
        got, want = self.both(
            monkeypatch, lambda: coupled_front(sysm, 300, x_max=560.0, h=0.02))
        assert got.speed == pytest.approx(want.speed, abs=1e-12)
        assert got.mean == pytest.approx(want.mean, rel=1e-12)


def test_front_numbers_held():
    # constants read before every profile took its own first value as its
    # left extension: exact where that rule moved nothing, 1e-12 elsewhere
    drift = ReproductionLaw(BBM.offspring, Gaussian(0.1, 1.0))
    assert front_speed(drift, 300, h=0.01)[0].speed == 1.5096664545718885
    curve = expected_rightmost_curve(BBM, 200, h=0.01)
    slope = centering_slope([TrajectoryStats(seed=0, rightmost=curve, exact_upto=0)],
                            SQRT2).slope
    assert slope == pytest.approx(-0.9974908233560399, rel=1e-12)
    rows = mc_consistency(DET2, 8, [6.0, 8.0], 10, h=0.005)   # check 9's profile
    assert [q for _, q, _, _ in rows] == [0.7238798580254325, 0.23886569250541456]
    sysm = skeleton_of_bbm(1 / 3, 3.0, 0.5)
    for s, speed, mean in ((sysm, 1.6329931604913117, 487.20108454845484),
                           (sysm.swap_roles(), 1.4126758694796555, 420.25137401943374)):
        res = coupled_front(s, 300, x_max=560.0, h=0.02)
        assert res.speed == pytest.approx(speed, rel=1e-12)
        assert res.mean == pytest.approx(mean, rel=1e-12)


class TestFrontSpeed:
    def test_unit_skeleton_speed(self):
        res, _ = front_speed(BBM, 150, h=0.02)
        assert res.speed == pytest.approx(SQRT2, rel=0.02)
        assert res.sup_diffs[-1] < 1e-3          # travelling-wave stabilization
        assert res.sup_diffs[-1] < res.sup_diffs[20]

    def test_single_walk_speed_exact(self):
        mu = 0.7
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        res, _ = front_speed(law, 100, h=0.01)
        assert res.speed == pytest.approx(mu, abs=1e-12)

    def test_binary_gaussian_speed(self):
        res, _ = front_speed(DET2, 150, h=0.02)
        assert res.speed == pytest.approx(math.sqrt(2 * math.log(2.0)), rel=0.02)

    @pytest.mark.parametrize("h", [0.02, 0.01])
    def test_two_point_front_runs_at_its_high_atom(self, h):
        # 4 x 0.848 > 1 children a generation take the high atom, so the
        # speed is the atom itself, which no particle can outrun; a high
        # atom blended over two cells ran ahead, at 1.4800 and 1.4796
        law = ReproductionLaw(OffspringLaw("deterministic", 4),
                              TwoPoint(0.3395, 1.4724, 0.848))
        res, _ = front_speed(law, 300, h=h)
        assert res.speed == pytest.approx(1.4724, abs=1e-6)

    def test_grid_refinement_stability(self):
        coarse, _ = front_speed(BBM, 120, h=0.04)
        fine, _ = front_speed(BBM, 120, h=0.02)
        assert abs(coarse.speed - fine.speed) < 1e-2

    def test_profile_grows_toward_one_on_compacts(self):
        # on a fixed window, any fixed point is eventually overtaken
        u = heaviside_profile(h=0.02)
        for _ in range(60):
            u = apply_q(u, BBM)
        assert float(u.evaluate(np.asarray([0.0]))[0]) >= 1 - 1e-3

    def test_snapshots_returned(self):
        _, snaps = front_speed(BBM, 30, h=0.05, snapshot_at=[10, 20])
        assert sorted(snaps) == [10, 20]
        *_, tenth = front._profiles(BBM, 10, 0.05)
        assert np.array_equal(snaps[10].values, tenth.values)
        assert snaps[10].offset == tenth.offset


class TestExpectedRightmost:
    def test_matches_batch_mc_at_small_n(self):
        curve = expected_rightmost_curve(DET2, 6, h=0.005)
        rng = replicate_rng(314)
        m = rightmost_batch(DET2, 6, 40_000, rng)
        se = m.std(ddof=1) / math.sqrt(m.size)
        assert abs(curve[6] - m.mean()) <= 3 * se + 1e-3

    def test_single_walk_expectation(self):
        mu = 0.3
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        curve = expected_rightmost_curve(law, 40, h=0.01)
        assert curve[40] == pytest.approx(40 * mu, abs=5e-3)


class TestMcConsistency:
    def test_heaviside_start_is_exact(self):
        rows = mc_consistency(DET2, 0, [-1.0, 1.0], 100, seed=0)
        (x1, q1, p1, _), (x2, q2, p2, _) = rows
        assert q1 == pytest.approx(1.0) and p1 == 1.0
        assert q2 == pytest.approx(0.0) and p2 == 0.0

    @pytest.mark.parametrize("h", [0.03, 0.007, 0.015])
    def test_heaviside_start_jumps_at_the_origin(self, h):
        # h does not divide the half-width 40, yet one cell sits at the
        # origin and carries the 1/2; a window missing it lost that half
        # cell, an O(h) error in check 9's profile
        u = heaviside_profile(h=h)
        assert u.front == pytest.approx(0.0, abs=1e-12)
        assert np.count_nonzero(u.values == 0.5) == 1
        *_, u = front._profiles(DET2, 8, h)
        assert float(u.evaluate([6.0])[0]) == pytest.approx(0.7238798580254325, abs=5e-5)

    def test_binary_gaussian_small_n(self):
        rows = mc_consistency(DET2, 8, [6.0, 8.0], 30_000, seed=77, h=0.005)
        for x, q_val, p_hat, z in rows:
            assert abs(z) <= 3.0, rows

    def test_single_walk_agrees_exactly(self):
        mu = 0.5
        law = ReproductionLaw(OffspringLaw("deterministic", 1), PointMass(mu))
        rows = mc_consistency(law, 6, [2.0, 3.5], 500, seed=5)
        for x, q_val, p_hat, _ in rows:
            assert q_val == pytest.approx(float(x < 6 * mu), abs=1e-9)
            assert p_hat == pytest.approx(q_val, abs=1e-12)


class TestCoupledFront:
    def test_agrees_with_unpruned_two_type_mc(self):
        rows = coupled_mc_consistency(skeleton_of_bbm(1 / 3, 3.0, 0.5), 4,
                                      [3.0, 4.0, 5.0], 400, seed=4242)
        for x, q_val, p_hat, z in rows:
            assert 0.05 < q_val < 0.95, rows    # informative, not saturated
            assert abs(z) <= 3.0, rows

    @pytest.mark.parametrize("case", ["worked_example", "far_low_atom", "common_eta"])
    def test_exact_batch_agrees_at_2000_replicates(self, case):
        # the rightmost eta of 2,000 exact replicates against the recursion:
        # the far_low_atom system moves values 2 left a step; families of
        # one share their one step, so a common eta class has the law of
        # its independent twin, which the recursion takes
        single = OffspringLaw("deterministic", 1)
        if case == "worked_example":
            sysm = twin = skeleton_of_bbm(1 / 3, 3.0, 0.5)
            xs = [3.0, 4.0, 5.0]
        elif case == "far_low_atom":
            sysm = twin = TwoTypeSystem(
                ReproductionLaw(single, Gaussian(0.0, 0.01)),
                ReproductionLaw(OffspringLaw("deterministic", 2), TwoPoint(-2.0, 0.1, 0.5)),
                Seeding(0.5))
            xs = [-4.0, -1.0, 0.0]
        else:
            nu = ReproductionLaw(OffspringLaw("geometric", 2.0), Gaussian(0.0, 1 / 3))
            sysm, twin = (TwoTypeSystem(nu, ReproductionLaw(single, Gaussian(0.5, 1.0), m),
                                        Seeding(0.5, Gaussian(0.0, 0.25)))
                          for m in ("common", "independent"))
            xs = [1.0, 2.0, 3.0]
        samples = rightmost_batch(sysm, 4, 2000, replicate_rng(25))
        rows = front._z_rows(coupled_front(twin, 4, x_max=40.0).nu, samples, xs)
        for x, q_val, p_hat, z in rows:
            assert 0.05 < q_val < 0.95, rows    # informative, not saturated
            assert abs(z) <= 4.0, rows

    def test_seeds_give_unrelated_batches(self, monkeypatch):
        # one stream per seed: seeds s and s + 1 share no replicate
        batches = []
        batch = front.rightmost_batch
        monkeypatch.setattr(front, "rightmost_batch",
                            lambda *a: batches.append(batch(*a)) or batches[-1])
        sysm = skeleton_of_bbm(1 / 3, 3.0, 0.5)
        for seed in (7, 8):
            coupled_mc_consistency(sysm, 3, [3.0], 400, seed=seed)
        a, b = (m[~np.isnan(m)] for m in batches)
        assert a.size > 300 and b.size > 300
        assert np.intersect1d(a, b).size == 0

    def test_profile_extends_by_its_first_value(self):
        profile = FrontProfile(np.array([0.4, 0.25, 0.0]), -1.0, 1.0)
        assert profile.evaluate([-5.0, -1.0, 0.0, 9.0]).tolist() == [0.4, 0.4, 0.25, 0.0]
        # the same rule in the window move and in the update: a flat left
        # part of 0.7 stays 0.7 past the window and updates to g's complement
        c, h = 0.7, 0.02
        values = np.concatenate([np.full(500, c), np.linspace(c, 0.0, 500), np.zeros(500)])
        assert front._cells(values, -3, 7).tolist() == [c] * 7
        reach = front._band(BBM.displacement, h).reach
        flat = BBM.offspring.complement(c)
        for v in (apply_q(FrontProfile(values, 0.0, h), BBM),
                  apply_q(FrontProfile(values, 0.0, h), BBM, None)):
            assert np.all(v.values[:500 - reach] == flat)
            assert not np.any(v.values == 1.0)

    def test_left_of_the_grid_with_rare_seeding(self):
        # the nu profile's left value is P(some eta is present), far below 1
        sysm = skeleton_of_bbm(1 / 3, 3.0, 1e-4)
        (x, q_val, p_hat, z), = coupled_mc_consistency(sysm, 4, [-45.0], 400, seed=1)
        assert q_val == coupled_front(sysm, 4, x_max=40.0).nu.values[0] < 0.5
        assert abs(z) <= 3.0, (q_val, p_hat, z)

    def test_no_seeding_gives_no_eta_mass(self):
        res = coupled_front(skeleton_of_bbm(1 / 3, 3.0, 0.0), 20, x_max=60.0)
        assert not res.nu.values.any()
        assert math.isnan(res.mean)
        assert math.isnan(res.speed)   # no eta, so no median to fit

    def test_rare_seeding_reads_medians_given_some_eta(self):
        # P(some eta) is below 1/2 early in the fit range [2, 4], where the
        # unconditioned nu profile has no median (it read 20.6 from the
        # window's left edge); given some eta, every generation has one
        res = coupled_front(skeleton_of_bbm(1 / 3, 3.0, 1e-3), 4, x_max=60.0)
        assert 0.0 < res.speed < 2.0

    @pytest.mark.parametrize("mu", [0.53, -0.25, 0.3])
    def test_translation_moves_the_windows_exactly(self, mu):
        # every step moved by mu, off the h=0.02 lattice for 0.53 and 0.3:
        # the speed moves by mu and the mean by mu n, with no interpolation
        # error, and the windows follow the front past x_max
        def moved(m):
            base = skeleton_of_bbm(1 / 3, 3.0, 0.5)
            return TwoTypeSystem(
                ReproductionLaw(base.law_nu.offspring, Gaussian(m, 1 / 3)),
                ReproductionLaw(base.law_eta.offspring, Gaussian(m, 1.0)),
                Seeding(0.5, PointMass(m)))

        n = 100
        still, shifted = (coupled_front(moved(m), n, x_max=200.0) for m in (0.0, mu))
        assert shifted.speed == pytest.approx(still.speed + mu, abs=1e-12)
        assert shifted.mean == pytest.approx(still.mean + mu * n, abs=1e-9)

    def test_coupled_update_is_guarded(self, monkeypatch):
        # a bump in the nu convolution breaks the monotonicity of A, which
        # the coupled step checks as the one-type step does
        sysm = skeleton_of_bbm(1 / 3, 3.0, 0.5)

        def bumped(u, step, band=None):
            conv, shift = BLOCKED_CONVOLVE(u, step, band)
            if step == sysm.law_nu.displacement:
                conv = conv.copy()
                conv[conv.size // 2] += 0.1
            return conv, shift

        monkeypatch.setattr(front, "_convolve", bumped)
        with pytest.raises(RangeError, match="monotonicity"):
            coupled_front(sysm, 5, x_max=30.0)

    @pytest.mark.parametrize("nu_mu, eta_mu", [(0.0, 0.0), (0.53, 0.53), (0.0, -0.25)])
    def test_windows_keep_one_size(self, monkeypatch, nu_mu, eta_mu):
        # both profiles enter every step on windows of one size, and where
        # every step moves by one translation, at one offset, bit for bit
        base = skeleton_of_bbm(1 / 3, 3.0, 0.5)
        sysm = TwoTypeSystem(
            ReproductionLaw(base.law_nu.offspring, Gaussian(nu_mu, 1 / 3)),
            ReproductionLaw(base.law_eta.offspring, Gaussian(eta_mu, 1.0)),
            Seeding(0.5, PointMass(nu_mu)))
        windows = []
        update = front.apply_q
        monkeypatch.setattr(front, "apply_q", lambda u, *a: windows.append(
            (u.values.size, u.offset)) or update(u, *a))
        coupled_front(sysm, 100, x_max=200.0)
        nu, eta = windows[::2], windows[1::2]
        assert len(nu) == len(eta) == 100
        assert [s for s, _ in nu] == [s for s, _ in eta]
        assert len({s for s, _ in nu}) > 1    # the windows were trimmed
        same = [a == b for (_, a), (_, b) in zip(nu, eta)]
        assert all(same) if nu_mu == eta_mu else not any(same[1:])

    @pytest.mark.parametrize("swap", [False, True])
    def test_skeleton_reads_whole_cells(self, monkeypatch, swap):
        # no window read starts a rounding error off a whole cell, where
        # it would blend in the neighbouring cell by that error
        sysm = skeleton_of_bbm(1 / 3, 3.0, 0.5)
        if swap:
            sysm = sysm.swap_roles()
        starts = []
        cells = front._cells
        monkeypatch.setattr(front, "_cells",
                            lambda v, start, size: starts.append(start) or cells(v, start, size))
        coupled_front(sysm, 300, x_max=560.0, h=0.02)
        off = [s for s in starts if 0.0 < abs(s - round(s)) < 1e-6]
        assert len(starts) > 2000
        assert off == []

    def test_mass_at_grid_edge_raises(self):
        with pytest.raises(RangeError):
            coupled_front(skeleton_of_bbm(1 / 3, 3.0, 0.5), 20, x_max=20.0)

    def test_slowly_flattening_profiles_keep_their_left_ends(self):
        # mean-1.2 families leave 1 - u_eta near 1e-5 far behind the front,
        # where a fixed left window end once raised at generation 26
        g = ReproductionLaw(OffspringLaw("geometric", 1.2), Gaussian(0.0, 1.0))
        sysm = TwoTypeSystem(g, g, Seeding(0.5))
        res = coupled_front(sysm, 300, x_max=250.0)
        assert res.speed == pytest.approx(anomalous_speed(sysm).speed, rel=0.02)

    @pytest.mark.parametrize("case", ["far_low_atom", "point_steps_to_n60"])
    def test_windows_follow_the_steps(self, case):
        single = OffspringLaw("deterministic", 1)
        if case == "far_low_atom":
            # the -2.0 atom carries values 100 cells left per step, further
            # than any other step moves one: the left margin must cover it
            sysm = TwoTypeSystem(
                ReproductionLaw(single, Gaussian(0.0, 0.01)),
                ReproductionLaw(OffspringLaw("deterministic", 2), TwoPoint(-2.0, 0.1, 0.5)),
                Seeding(0.5))
            n, xs, seed = 4, [-4.0, -1.0, 0.0], 1
        else:
            # the oldest eta has stepped 0.53 for 59 generations, past a
            # horizon of 40 in its tail from generation 48 on
            sysm = TwoTypeSystem(ReproductionLaw(single, PointMass(0.0)),
                                 ReproductionLaw(single, Gaussian(0.53, 0.1)), Seeding(1.0))
            n, xs, seed = 60, [31.0, 33.0, 35.0], 1000
        rows = coupled_mc_consistency(sysm, n, xs, 400, seed=seed)
        for x, q_val, p_hat, z in rows:
            assert 0.05 < q_val < 0.95, rows
            assert abs(z) <= 3.0, rows

    def test_worked_example_slope(self):
        # the anomalous speed of the worked example is 4/sqrt 6 exactly
        res = coupled_front(skeleton_of_bbm(1 / 3, 3.0, 0.5), 300, x_max=560.0)
        assert res.speed == pytest.approx(4 / math.sqrt(6), abs=1e-6)

    def test_worked_example_slope_holds_to_the_documented_range(self):
        # the front rides on eta tail values far below 1e-100, and float64
        # underflow bends it past n ~ 700 at h=0.04 (-4e-4 at n=750): any
        # value floor above underflow would shrink the range pinned here
        n = 600
        res = coupled_front(skeleton_of_bbm(1 / 3, 3.0, 0.5), n,
                            x_max=1.64 * n + 80.0, h=0.04)
        assert res.speed == pytest.approx(4 / math.sqrt(6), abs=1e-6)

    def test_point_steps_translate_exactly(self):
        # every nu seeds an eta at its own position from generation 1 on,
        # and an eta steps 0.53, half a cell off the h=0.02 lattice: the
        # rightmost eta of generation n sits at exactly 0.53 (n - 1)
        single = OffspringLaw("deterministic", 1)
        sysm = TwoTypeSystem(ReproductionLaw(single, PointMass(0.0)),
                             ReproductionLaw(single, PointMass(0.53)), Seeding(1.0))
        res = coupled_front(sysm, 50, x_max=60.0)
        assert res.speed == pytest.approx(0.53, abs=1e-9)
        assert res.mean == pytest.approx(0.53 * 49, abs=1e-6)
