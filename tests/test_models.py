"""Law catalogue: exact cumulants, samplers, and the two-type system."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import chisquare, geom, ks_2samp, kstest, norm, truncnorm

from brwlab.errors import ParamError
from brwlab.mc_sim import _branch, _children, replicate_rng, rightmost_batch
from brwlab.models import (
    INT64_MAX,
    Gaussian,
    OffspringLaw,
    PointMass,
    ReproductionLaw,
    Seeding,
    TwoPoint,
    TwoTypeSystem,
    NORMAL_BLOCK,
    _logistic_pair,
    ndtr,
    ndtri,
    skeleton_of_bbm,
)

LAW_CATALOGUE = [
    ReproductionLaw(OffspringLaw("geometric", math.e), Gaussian(0.0, 1.0)),
    ReproductionLaw(OffspringLaw("geometric", math.exp(3.0)), Gaussian(0.0, 1 / 3)),
    ReproductionLaw(OffspringLaw("deterministic", 2), Gaussian(0.0, 1.0)),
    ReproductionLaw(OffspringLaw("deterministic", 3), PointMass(0.5), "common"),
    ReproductionLaw(OffspringLaw("poisson_positive", 2.5), TwoPoint(-0.5, 1.0, 0.3)),
    ReproductionLaw(OffspringLaw("geometric", 2.0), Gaussian(0.2, 0.5), "common"),
]


def two_streams(rng):
    """``rng`` and a second stream built from it, as a batch builds one."""
    return rng, np.random.Generator(rng.bit_generator.jumped())


class TestCumulant:
    def test_gaussian_closed_form(self):
        law = ReproductionLaw(OffspringLaw("geometric", math.exp(2.0)),
                              Gaussian(0.0, 0.7))
        assert law.cumulant(1.0) == pytest.approx(2.0 + 0.7 / 2.0, abs=1e-14)

    def test_zero_tilt_is_log_mean_family_size(self):
        for law in LAW_CATALOGUE:
            assert law.cumulant(0.0) == pytest.approx(
                math.log(law.offspring.mean), abs=1e-12)

    def test_common_point_mass(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 2), PointMass(1.0),
                              "common")
        # direct evaluation: log(2 e^2)
        assert law.cumulant(2.0) == pytest.approx(math.log(2.0) + 2.0, abs=1e-14)

    def test_negative_tilt_is_infinite(self):
        for law in LAW_CATALOGUE:
            assert math.isinf(law.cumulant(-0.5))

    def test_convex_on_tilt_grid(self):
        ts = np.arange(0.0, 6.0, 0.01)
        for law in LAW_CATALOGUE:
            vals = law.cumulant(ts)
            slopes = np.diff(vals) / np.diff(ts)
            assert np.all(np.diff(slopes) >= -1e-8), law

    @pytest.mark.parametrize("law", LAW_CATALOGUE)
    def test_derivatives_match_central_differences(self, law):
        ts = np.linspace(0.05, 6.0, 40)
        d1, d2 = law.cumulant_derivatives(ts)
        h = 1e-4
        k_lo, k_mid, k_hi = (law.cumulant(ts + s) for s in (-h, 0.0, h))
        assert np.allclose(d1, (k_hi - k_lo) / (2 * h), atol=1e-7)
        assert np.allclose(d2, (k_hi - 2 * k_mid + k_lo) / h ** 2, atol=1e-5)

    def test_two_point_derivatives_saturate_exactly(self):
        # read from the nearer end, f' reaches `high` itself, and f'' = 0
        # marks the tilted law as a point mass
        step = TwoPoint(-0.3, 0.4, 0.5)
        d1, d2 = step.log_mgf_derivatives(np.array([0.0, 60.0, 2.0 ** 48]))
        assert d1[0] == pytest.approx(0.05, abs=1e-16)
        assert d1[1] == 0.4 and d1[2] == 0.4
        assert d2[0] == pytest.approx(0.7 ** 2 / 4, abs=1e-16) and d2[2] == 0.0

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_two_point_transform_is_exact_at_zero_tilt(self, p):
        # the stabilized sum rounded to -1.1e-16 at p = 0.3 and +4.2e-17 at
        # p = 0.1, so a mean-one law read k(0) on either side of 0
        step = TwoPoint(-0.4, 0.6, p)
        assert step.log_mgf(0.0) == 0.0
        assert np.all(step.log_mgf(np.array([0.0, 0.0])) == 0.0)
        law = ReproductionLaw(OffspringLaw("geometric", 1.0), step)
        assert law.cumulant(0.0) == 0.0

    def test_mean_matches_poisson_conditioning(self):
        off = OffspringLaw("poisson_positive", 3.0)
        # conditioned mean must be the requested one
        c = off._rate
        assert c / (1.0 - math.exp(-c)) == pytest.approx(3.0, abs=1e-12)


class TestNumpyNumerics:
    """The positive-Poisson rate and the logistic weights, computed with
    numpy alone, against scipy as the oracle."""

    def test_poisson_rate_matches_brentq(self):
        from scipy.optimize import brentq
        for m in np.concatenate([1.0 + np.geomspace(1e-12, 1e-3, 10),
                                 np.geomspace(1.001, 1e3, 40)]):
            m = float(m)
            # c + m expm1(-c) changes sign on [m - 1, m]; the root's condition
            # number is m / (m - 1), which sets the tolerance near m = 1
            oracle = brentq(lambda c: c + m * math.expm1(-c), m - 1.0, m, xtol=1e-300)
            rate = OffspringLaw("poisson_positive", m)._rate
            assert abs(rate - oracle) <= 4 * 2.0 ** -52 * m / (m - 1.0) * oracle, m

    def test_logistic_pair_matches_scipy_expit(self):
        from scipy.special import expit
        z = np.linspace(-750.0, 750.0, 300_001)
        w, wc = _logistic_pair(z)
        tiny = np.finfo(float).tiny
        for got, want in ((w, expit(z)), (wc, expit(-z))):
            normal = want >= tiny
            np.testing.assert_allclose(got[normal], want[normal], rtol=5e-16, atol=0.0)
            # below the normal range the smaller weight is e^-|z| itself,
            # where scipy flushes part of that range to 0
            assert np.array_equal(got[~normal], np.exp(-np.abs(z[~normal])))

    def test_logistic_pair_saturates_exactly(self):
        z = np.array([-750.0, -37.0, 0.0, 37.0, 750.0])
        w, wc = _logistic_pair(z)
        assert list(w) == [0.0, float(np.exp(-37.0)), 0.5, 1.0, 1.0]
        assert list(wc) == [1.0, 1.0, 0.5, float(np.exp(-37.0)), 0.0]

    @pytest.mark.parametrize("mean", [2.0 ** 63, 1e300])
    def test_deterministic_count_must_fit_int64(self, mean):
        with pytest.raises(ParamError):
            OffspringLaw("deterministic", mean)
        # a count of 2^62 fits, and is drawn as it is
        top = OffspringLaw("deterministic", 2.0 ** 62)
        assert top.sample(replicate_rng(0), 2).tolist() == [2 ** 62, 2 ** 62]


OFFSPRING_KINDS = [OffspringLaw("deterministic", 3), OffspringLaw("geometric", math.e),
                   OffspringLaw("poisson_positive", 2.5)]


def _mp_rel_errors(values, refs):
    return np.array([abs(float((mpmath.mpf(float(v)) - r) / r))
                     for v, r in zip(values, refs)])


def _mp_ndtr(xs):
    with mpmath.workdps(50):
        return [mpmath.ncdf(mpmath.mpf(float(x))) for x in xs]


def _mp_ndtri(ps):
    """Quantiles at 50 digits: two Newton steps from scipy's, which is
    within 1e-15 of the root."""
    out = []
    with mpmath.workdps(50):
        for p, x in zip(ps, scipy_ndtri(ps)):
            p, x = mpmath.mpf(float(p)), mpmath.mpf(float(x))
            for _ in range(2):
                x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
            out.append(x)
    return out


class TestNormalFunctions:
    """``ndtr`` and ``ndtri`` on numpy alone, against mpmath at 50 digits,
    with scipy as a second oracle.  The bounds are scipy's own worst
    relative errors on these grids, rounded up."""

    @pytest.mark.parametrize("lo, hi, bound", [
        (-37.5, -20.0, 2.4e-13), (-20.0, -5.0, 5.7e-14), (-5.0, 0.0, 4.0e-15),
        (0.0, 8.2, 1.7e-16)])
    def test_ndtr_against_mpmath(self, lo, hi, bound):
        xs = np.linspace(lo, hi, 2001)[:-1]
        refs = _mp_ndtr(xs)
        ours = _mp_rel_errors(ndtr(xs), refs).max()
        theirs = _mp_rel_errors(scipy_ndtr(xs), refs).max()
        assert ours <= bound, (ours, theirs)
        if lo < 0:
            # scipy rounds x^2 / 2 into the exponent; ndtr does not
            assert ours <= theirs / 4, (ours, theirs)

    def test_ndtri_against_mpmath(self):
        ps = np.geomspace(1e-300, 0.49, 2000)
        refs = _mp_ndtri(ps)
        ours = _mp_rel_errors(ndtri(ps), refs).max()
        theirs = _mp_rel_errors(scipy_ndtri(ps), refs).max()
        assert ours <= 2.9e-16 and ours <= theirs, (ours, theirs)
        # the central range, which a geometric grid barely samples
        ps = np.linspace(0.075, 0.49, 2000)
        refs = _mp_ndtri(ps)
        ours = _mp_rel_errors(ndtri(ps), refs).max()
        theirs = _mp_rel_errors(scipy_ndtri(ps), refs).max()
        assert ours <= theirs, (ours, theirs)

    def test_ndtri_inverts_ndtr(self):
        # to the rounding of ndtr(x): an error of eps ndtr(x) in it moves
        # the inverse by eps ndtr(x) / ndtr'(x)
        x = np.linspace(-37.5, 8.2, 100_001)
        p = ndtr(x)
        slack = np.minimum(p, 1.0) * np.sqrt(2.0 * np.pi) * np.exp(0.5 * x * x) + np.abs(x)
        assert np.all(np.abs(ndtri(p) - x) <= 3.0 * 2.0 ** -52 * slack)

    def test_tails_sum_to_one(self):
        x = np.linspace(0.0, 40.0, 100_001)
        assert np.all(np.abs(ndtr(x) + ndtr(-x) - 1.0) <= 2.0 ** -52)

    def test_special_values_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ndtr(np.array([0.0, -0.0, np.inf, -np.inf, 40.0, -40.0, np.nan]))
            assert list(got[:6]) == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0] and np.isnan(got[6])
            got = ndtri(np.array([0.0, 1.0, 0.5, np.nan, -0.5, 1.5, -np.inf, np.inf]))
            assert list(got[:3]) == [-np.inf, np.inf, 0.0] and np.all(np.isnan(got[3:]))

    def test_shapes(self):
        assert isinstance(ndtr(0.3), np.float64) and isinstance(ndtri(0.3), np.float64)
        assert ndtr(np.zeros((3, 4))).shape == (3, 4)
        assert ndtri(np.zeros(0)).shape == (0,)

    def test_each_value_is_independent_of_its_neighbours(self):
        # every branch evaluates only its own elements, in blocks of
        # NORMAL_BLOCK: a value must not depend on the array it sits in
        rng = np.random.default_rng(8)
        x = rng.choice([0.3, -3.0, 7.0, -30.0, 1.0], 3 * NORMAL_BLOCK + 5) * rng.random(
            3 * NORMAL_BLOCK + 5)
        p = rng.choice([0.5, 0.1, 1e-20, 1.0 - 1e-9], x.size) * rng.random(x.size)
        for f, v in ((ndtr, x), (ndtri, p)):
            alone = np.array([f(e) for e in v[::97]])
            assert np.array_equal(f(v)[::97], alone)


class TestComplement:
    @pytest.mark.parametrize("off", OFFSPRING_KINDS, ids=lambda o: o.kind)
    def test_matches_pgf_form(self, off):
        s = np.geomspace(1e-6, 1.0, 200)
        np.testing.assert_allclose(off.complement(s), 1.0 - off.pgf(1.0 - s),
                                   rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("off", OFFSPRING_KINDS, ids=lambda o: o.kind)
    def test_linear_at_tiny_argument(self, off):
        # 1 - pgf(1 - s) is exactly 0 here; the closed form keeps mean * s
        assert float(off.complement(1e-200)) == pytest.approx(off.mean * 1e-200,
                                                              rel=1e-12)


def test_offspring_law_is_its_kind_and_mean():
    # the positive-Poisson rate is derived from the mean: no third argument
    # sets it, and laws that print the same compare and hash the same
    with pytest.raises(TypeError):
        OffspringLaw("geometric", 2.0, 3.0)
    for kind, mean in (("geometric", 2.0), ("poisson_positive", 2.5), ("deterministic", 3)):
        a, b = OffspringLaw(kind, mean), OffspringLaw(kind, mean)
        object.__setattr__(b, "_rate", 7.0)   # a stale cache changes nothing
        assert repr(a) == repr(b) == f"OffspringLaw(kind={kind!r}, mean={mean!r})"
        assert a == b and hash(a) == hash(b)


class TestSamplers:
    """Families are drawn through the engines' one branching step,
    each from a single parent at the origin."""

    def test_deterministic_point_family(self):
        law = ReproductionLaw(OffspringLaw("deterministic", 2), PointMass(0.0))
        rngs = two_streams(replicate_rng(0))
        with ThreadPoolExecutor(max_workers=1) as pool:
            for _ in range(5):
                _, fam = _branch(law, np.zeros(1), rngs, pool)
                assert np.array_equal(fam, np.zeros(2))

    def test_geometric_mean_family_size(self):
        rng = replicate_rng(11)
        off = OffspringLaw("geometric", 2.0)
        draws = off.sample(rng, 100_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) <= 3 * se

    @pytest.mark.parametrize("mean", [1.05, math.e, math.exp(3.0), 50.0])
    def test_geometric_law_by_inversion(self, mean):
        # chi-square of the draws against r (1 - r)^(n - 1): sizes 1 and 2
        # alone, then about 20 bins of equal mass, the last one the tail
        r = 1.0 / mean
        draws = OffspringLaw("geometric", mean).sample(replicate_rng(12), 200_000)
        assert draws.dtype == np.int64 and draws.min() >= 1
        quantiles = geom.ppf(np.linspace(0.0, 1.0, 21)[1:-1], r).astype(int)
        edges = np.unique(np.concatenate([[1, 2, 3], quantiles, [INT64_MAX]]))
        observed = np.histogram(draws, bins=edges)[0]
        mass = np.diff(geom.cdf(edges - 1, r))
        assert observed.sum() == draws.size
        assert chisquare(observed, draws.size * mass / mass.sum()).pvalue > 1e-3

    def test_geometric_edge_means(self):
        rng = replicate_rng(13)
        state = rng.bit_generator.state
        assert np.array_equal(OffspringLaw("geometric", 1.0).sample(rng, 1000),
                              np.ones(1000, dtype=np.int64))
        assert rng.bit_generator.state == state          # mean 1 draws nothing
        # past 2^63 a size is clipped to INT64_MAX, never cast to INT64_MIN
        huge = OffspringLaw("geometric", 1e30).sample(rng, 1000)
        assert np.all(huge == INT64_MAX)
        # mean 1e19: about 40% of the sizes reach 2^63
        big = OffspringLaw("geometric", 1e19).sample(rng, 1000)
        assert big.min() >= 1 and 0.2 < np.mean(big == INT64_MAX) < 0.6

    @pytest.mark.parametrize("count", [1, 2, 20, 500])
    def test_gaussian_family_maximum_closed_form(self, count):
        # the largest of N steps has distribution function Phi((x - mu) / sd)^N;
        # at generation 1 each replicate of a batch is one family
        law = ReproductionLaw(OffspringLaw("deterministic", count), Gaussian(0.3, 2.0))
        rng = np.random.default_rng(np.random.SeedSequence(14, spawn_key=(count,)))
        got = rightmost_batch(law, 1, 5_000, rng)
        assert np.all(np.isfinite(got))
        sd = math.sqrt(2.0)
        assert kstest(got, lambda x: norm.cdf((x - 0.3) / sd) ** count).pvalue > 1e-3

    def test_family_maxima_of_atoms(self):
        reps = 25_000
        for n in (1, 2, 5, 40):
            point = ReproductionLaw(OffspringLaw("deterministic", n), PointMass(0.4))
            assert np.array_equal(rightmost_batch(point, 1, reps, replicate_rng(15)),
                                  np.full(reps, 0.4))
            two = ReproductionLaw(OffspringLaw("deterministic", n), TwoPoint(-0.3, 0.4, 0.35))
            got = rightmost_batch(two, 1, reps, replicate_rng(16 + n))
            assert set(np.unique(got)) <= {-0.3, 0.4}
            high = np.mean(got == 0.4)
            want = 1.0 - 0.65 ** n
            assert abs(high - want) <= 4.0 * math.sqrt(want * (1 - want) / reps) + 1e-12

    def test_common_mechanism_shares_the_step(self):
        law = ReproductionLaw(OffspringLaw("geometric", 3.0), Gaussian(0.0, 1.0),
                              "common")
        rngs = two_streams(replicate_rng(2))
        with ThreadPoolExecutor(max_workers=1) as pool:
            for _ in range(10):
                _, fam = _branch(law, np.zeros(1), rngs, pool)
                assert np.all(fam == fam[0])

    @pytest.mark.parametrize("law", LAW_CATALOGUE)
    def test_sampler_agrees_with_cumulant(self, law):
        # Monte Carlo estimate of E sum_i exp(theta z_i) vs closed form,
        # within 3 standard errors at each catalogued tilt
        rngs = two_streams(replicate_rng(37))
        reps = 150_000
        for theta in (0.0, 0.5, 1.0):
            counts = law.offspring.sample(rngs[0], reps)
            with ThreadPoolExecutor(max_workers=1) as pool:
                steps = _children(law, np.zeros(reps), counts, rngs, pool)
            totals = np.bincount(np.repeat(np.arange(reps), counts),
                                 weights=np.exp(theta * steps), minlength=reps)
            target = math.exp(float(law.cumulant(theta)))
            se = totals.std(ddof=1) / math.sqrt(reps)
            # degenerate laws (point-mass steps, fixed counts) have se == 0
            assert abs(totals.mean() - target) <= 3 * se + 1e-9 * target, (law, theta)

    def test_zero_truncated_poisson_support(self):
        off = OffspringLaw("poisson_positive", 1.5)
        rng = replicate_rng(5)
        assert int(off.sample(rng, 50_000).min()) >= 1

    def test_sum_sample_matches_brute_force_distribution(self):
        off = OffspringLaw("geometric", 2.5)
        r1 = replicate_rng(8)
        direct = np.array([off.sample(r1, 40).sum() for _ in range(4000)])
        r2 = replicate_rng(9)
        batched = off.sum_sample(r2, np.full(4000, 40, dtype=np.int64))
        se = math.sqrt(direct.var(ddof=1) / 4000 + batched.var(ddof=1) / 4000)
        assert abs(direct.mean() - batched.mean()) <= 3 * se

    def test_sum_sample_rejects_positive_poisson(self):
        off = OffspringLaw("poisson_positive", 2.0)
        with pytest.raises(ParamError):
            off.sum_sample(replicate_rng(0), np.array([3], dtype=np.int64))


class TestConditionedSteps:
    """Steps drawn conditioned above or below a threshold, as thinned
    branching draws them, against rejection sampling of the plain sampler."""

    @pytest.mark.parametrize("step, cuts", [
        (Gaussian(0.3, 0.5), (-1.2, 0.1, 0.9, 1.6)),
        (TwoPoint(-0.3, 0.4, 0.35), (-0.5, -0.3, 0.0, 0.4)),
        (PointMass(0.3), (0.0, 0.3, 1.0)),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, tuple) else "")
    def test_matches_rejection_oracle(self, step, cuts):
        rng = replicate_rng(17)
        pool = step.sample(rng, 2_000_000)
        for c in cuts:
            for side, keep in (("above", pool > c), ("below", pool <= c)):
                if not keep.any():
                    continue        # a condition of probability 0 is never drawn
                ref = pool[keep][:40_000]
                got = step.sample(rng, 20_000, **{side: np.full(20_000, c)})
                assert np.all(got > c) if side == "above" else np.all(got <= c)
                assert ks_2samp(got, ref).pvalue > 1e-3, (step, c, side)
            # the survival function the cut is placed with
            assert float(step.sf(c)) == pytest.approx(float(np.mean(pool > c)),
                                                      abs=5e-3)

    def test_per_draw_thresholds(self):
        step = Gaussian(0.0, 1.0)
        cuts = np.repeat([-1.0, 2.0], 20_000)
        got = step.sample(replicate_rng(4), cuts.size, above=cuts)
        for c in (-1.0, 2.0):
            part = got[cuts == c]
            a = (c - step.mean) / math.sqrt(step.variance)
            assert kstest(part, truncnorm(a, np.inf).cdf).pvalue > 1e-3

    def test_tail_mass_and_threshold_give_the_same_draws(self):
        # a thinned beam hands each parent's tail mass, read once by ``sf``,
        # to the conditioned draw: from the same generator state it must
        # draw what the thresholds alone give, deep tails included
        step = Gaussian(0.3, 0.5)
        cuts = np.linspace(-4.0, 25.0, 5001)
        plain = step.sample(replicate_rng(4), cuts.size, above=cuts)
        tailed = step.sample(replicate_rng(4), cuts.size, above=cuts, tail=step.sf(cuts))
        assert np.all(np.isfinite(plain)) and np.all(plain > cuts)
        assert np.array_equal(tailed, plain)

    @pytest.mark.parametrize("z", [9.0, 30.0])
    def test_gaussian_deep_tail_keeps_its_precision(self, z):
        # P(X > 30 sd) is 5e-198: read from the upper tail of the inverse
        # CDF, the draws stay above the cut with the exact tail law
        step = Gaussian(1.0, 4.0)
        cut = 1.0 + 2.0 * z
        got = step.sample(replicate_rng(5), 20_000, above=np.full(20_000, cut))
        assert np.all(got > cut) and np.all(np.isfinite(got))
        assert kstest((got - 1.0) / 2.0, truncnorm(z, np.inf).cdf).pvalue > 1e-3
        assert float(step.sf(cut)) == pytest.approx(norm.sf(z), rel=1e-12)
        below = step.sample(replicate_rng(6), 20_000, below=np.full(20_000, 2.0 - cut))
        assert np.all(below <= 2.0 - cut) and np.all(np.isfinite(below))


class TestLatticePmf:
    """The census's step law: a Gaussian's mass in each lattice cell."""

    @pytest.mark.parametrize("variance, h", [
        (1.0, 0.05), (1 / 3, 0.05), (2.0, 0.01), (0.5, 0.1), (1.0, 0.013)])
    def test_centred_pmf_is_its_own_mirror_image(self, variance, h):
        # bit for bit: the census orders cells by decreasing mass with a
        # stable sort, so equal masses keep their mirror order
        j, q = Gaussian(0.0, variance).lattice_pmf(h)
        assert np.array_equal(j, -j[::-1])
        assert np.array_equal(q, q[::-1])

    def test_every_cell_keeps_its_precision(self):
        # reference cells from math.erfc, each read from the tail it lies in,
        # so none cancels against 1; the far upper cells are the hard ones
        step, h = Gaussian(0.3, 1.0), 0.05
        j, q = step.lattice_pmf(h)
        ref = []
        for lo, hi in zip((j - 0.5) * h - step.mean, (j + 0.5) * h - step.mean):
            if lo > 0:
                ref.append(math.erfc(lo / math.sqrt(2)) - math.erfc(hi / math.sqrt(2)))
            else:
                ref.append(math.erfc(-hi / math.sqrt(2)) - math.erfc(-lo / math.sqrt(2)))
        ref = np.array(ref) / math.fsum(ref)
        np.testing.assert_allclose(q, ref, rtol=1e-12, atol=0)


def test_coupling_common_vs_independent():
    """A common-displacement walk viewed family-as-particle is the
    independent-displacement walk started from a random origin: rightmost
    positions at generation n+1 and n match in distribution."""
    n = 5
    reps = 4000
    common = ReproductionLaw(OffspringLaw("geometric", 2.0), Gaussian(0.0, 1.0),
                             "common")
    indep = ReproductionLaw(OffspringLaw("geometric", 2.0), Gaussian(0.0, 1.0),
                            "independent")
    rng = replicate_rng(77)
    m_common = rightmost_batch(common, n + 1, reps, rng)
    rng2 = replicate_rng(78)
    m_indep = rightmost_batch(indep, n, reps, rng2) + rng2.normal(0.0, 1.0, reps)
    se = math.sqrt(m_common.var(ddof=1) / reps + m_indep.var(ddof=1) / reps)
    assert abs(m_common.mean() - m_indep.mean()) <= 3 * se


@pytest.mark.parametrize("build, args", [
    (OffspringLaw, ("geometric", math.nan)),
    (OffspringLaw, ("geometric", math.inf)),
    (OffspringLaw, ("poisson_positive", math.nan)),
    (OffspringLaw, ("poisson_positive", math.inf)),
    (OffspringLaw, ("deterministic", math.nan)),
    (Gaussian, (math.nan, 1.0)),
    (Gaussian, (math.inf, 1.0)),
    (Gaussian, (0.0, math.inf)),
    (Gaussian, (0.0, math.nan)),
    (PointMass, (-math.inf,)),
    (PointMass, (math.nan,)),
    (TwoPoint, (math.nan, 1.0, 0.5)),
    (TwoPoint, (-math.inf, 1.0, 0.5)),
    (TwoPoint, (0.0, math.inf, 0.5)),
    (Seeding, (math.nan,)),
    (skeleton_of_bbm, (1.0, math.inf, 0.5)),
    (skeleton_of_bbm, (1.0, math.nan, 0.5)),
    (skeleton_of_bbm, (math.inf, 1.0, 0.5)),
    (skeleton_of_bbm, (math.nan, 1.0, 0.5)),
], ids=lambda v: getattr(v, "__name__", None) or repr(v).replace(" ", ""))
def test_non_finite_parameter_is_a_param_error(build, args):
    # the CLI schema rejects these values; the Python API must too, before
    # a speed or a sampler fails on them with an error of another kind
    with pytest.raises(ParamError):
        build(*args)


BIG = 10 ** 400   # an integer past the float range, between -inf and inf


@pytest.mark.parametrize("build, args", [
    (OffspringLaw, ("geometric", BIG)),
    (OffspringLaw, ("poisson_positive", BIG)),
    (Gaussian, (0.0, BIG)),
    (Gaussian, (BIG, 1.0)),
    (PointMass, (BIG,)),
    (PointMass, (-BIG,)),
    (TwoPoint, (0, BIG, 0.5)),
    (TwoPoint, (-BIG, 0, 0.5)),
    (skeleton_of_bbm, (BIG, 1.0, 0.5)),
], ids=["geometric", "poisson_positive", "gaussian_variance", "gaussian_mean",
        "point_mass", "point_mass_negative", "two_point_high", "two_point_low",
        "skeleton_V"])
def test_integer_past_the_float_range_is_a_param_error(build, args):
    # compared exactly, such an integer passes a guard -inf < v < inf
    with pytest.raises(ParamError):
        build(*args)


class TestTwoTypeSystem:
    def test_skeleton_cumulants(self):
        sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 0.5)
        # nu: t^2/6 + 3, eta: t^2/2 + 1
        assert sysm.law_nu.cumulant(1.0) == pytest.approx(1 / 6 + 3.0, abs=1e-12)
        assert sysm.law_eta.cumulant(1.0) == pytest.approx(0.5 + 1.0, abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(ParamError):
            skeleton_of_bbm(-1.0, 1.0, 0.5)
        with pytest.raises(ParamError):
            skeleton_of_bbm(1.0, 0.0, 0.5)
        with pytest.raises(ParamError):
            skeleton_of_bbm(1.0, 1.0, 1.5)
        with pytest.raises(ParamError):
            Seeding(-0.1)

    def test_swap_roles(self):
        sysm = skeleton_of_bbm(0.5, 2.0, 0.3)
        rev = sysm.swap_roles()
        assert rev.law_nu == sysm.law_eta
        assert rev.law_eta == sysm.law_nu
        assert rev.seeding == sysm.seeding

    def test_offspring_laws_never_die_out(self):
        rng = replicate_rng(3)
        for law in LAW_CATALOGUE:
            assert int(law.offspring.sample(rng, 20_000).min()) >= 1

    def test_single_type_speeds_match_when_scaled(self):
        from brwlab.speeds import one_type_speed
        sysm = skeleton_of_bbm(1.0 / 3.0, 3.0, 1.0)
        s_nu = one_type_speed(sysm.law_nu).speed
        s_eta = one_type_speed(sysm.law_eta).speed
        assert s_nu == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert s_eta == pytest.approx(math.sqrt(2.0), abs=1e-6)
