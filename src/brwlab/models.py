"""Catalogue of reproduction laws with exact cumulant transforms and samplers.

A reproduction law pairs an offspring-count law (deterministic,
geometric on {1,2,...}, or Poisson conditioned positive) with a
displacement law (Gaussian, point mass, or two-point mixture) under
either the independent-per-daughter or common-per-family mechanism.
Every combination has a closed-form cumulant
``log E[sum_i exp(theta * z_i)] = log E N + log E exp(theta * X)``,
which the acceptance machinery requires to be exact.

Laws are immutable; samplers take an explicit numpy Generator so
concurrent simulation shards never share state.  Each displacement law
also has its survival function ``sf`` and draws steps conditioned above
or below per-step thresholds, which thinned beam branching needs, and
the largest step of each of many families (``sample_max``), which the
last generation of a two-type run needs.

The samplers, thinned beams and censuses read the standard normal
distribution function and its inverse, ``ndtr`` and ``ndtri``, from
rational approximations evaluated on numpy arrays: Cody's for the error
function (Math. Comp. 23, 1969) and Wichura's AS 241 (Appl. Statist. 37,
1988), refined in the tails by one Newton step.  The package runs on
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ParamError

INT64_MAX = int(np.iinfo(np.int64).max)
POISSON_NEWTON_STEPS = 200   # the least float mean above 1 needs 52


def _finite(*values) -> bool:
    """Whether every value is a finite number.  An integer past the float
    range is not, though it compares between -inf and inf."""
    try:
        return all(math.isfinite(v) for v in values)
    except OverflowError:
        return False


def _positive_poisson_rate(m: float) -> float:
    """The rate c > 0 of the Poisson law whose conditioning on N >= 1 has
    mean m > 1, that is the positive root of f(c) = c + m expm1(-c).

    f is convex with f(0) = 0, so Newton's method started at c = m,
    right of the root, falls monotonically onto it; it stops at the
    first step that no longer moves down.
    """
    c = m
    for _ in range(POISSON_NEWTON_STEPS):
        step = (c + m * math.expm1(-c)) / (1.0 - m * math.exp(-c))
        if not 0.0 < step < c or c - step == c:
            break
        c -= step
    return c


# --------------------------------------------------------------------------
# offspring-count laws  (all have N >= 1, so extinction is impossible)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OffspringLaw:
    """Family-size law on {1, 2, ...} with mean ``mean``.

    kinds: ``deterministic`` (N = mean, an integer below 2^63), ``geometric``
    (P(N=n) = r(1-r)^(n-1) with r = 1/mean), ``poisson_positive``
    (Poisson conditioned on N >= 1; the underlying rate is solved so
    the conditioned mean equals ``mean``).
    """

    kind: str
    mean: float
    _rate: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("deterministic", "geometric", "poisson_positive"):
            raise ParamError(f"unknown offspring kind {self.kind!r}")
        if self.kind == "deterministic":
            # the samplers hold family sizes in int64
            k = self.mean
            if not 1 <= k <= INT64_MAX or k != int(k):
                raise ParamError("deterministic offspring count must be an integer "
                                 "in [1, 2^63 - 1]")
        elif not (_finite(self.mean) and self.mean >= 1.0):
            raise ParamError("offspring mean must be a finite number >= 1")
        if self.kind == "poisson_positive":
            m = self.mean
            if m <= 1.0:
                raise ParamError("positive-Poisson mean must exceed 1")
            object.__setattr__(self, "_rate", _positive_poisson_rate(m))

    def pgf(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "deterministic":
            return s ** int(self.mean)
        if self.kind == "geometric":
            r = 1.0 / self.mean
            return r * s / (1.0 - (1.0 - r) * s)
        c = self._rate
        return np.expm1(c * s) / np.expm1(c)

    def complement(self, s):
        """``1 - g(1 - s)`` in closed form, accurate down to tiny ``s``.

        Evaluating ``1 - pgf(1 - s)`` cancels to rounding noise of order
        1e-16 once ``s`` is small; this form returns about ``mean * s``
        there, which is what a front's exponentially small leading edge
        needs.
        """
        s = np.asarray(s, dtype=float)
        if self.kind == "deterministic":
            with np.errstate(divide="ignore"):   # log1p(-1) = -inf is intended
                return -np.expm1(int(self.mean) * np.log1p(-s))
        if self.kind == "geometric":
            r = 1.0 / self.mean
            return s / (r + (1.0 - r) * s)
        c = self._rate
        return np.expm1(-c * s) / np.expm1(-c)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` family sizes, in int64.

        Geometric sizes are drawn by inversion, N = 1 + floor(log U /
        log(1 - r)) with U uniform on (0, 1) (``_log_uniform``), as array
        operations: numpy's ``geometric`` inverts the same way only for
        r < 1/3 and searches sequentially above, which made families of
        mean e cost three times as much.  Sizes past int64 are clipped to
        INT64_MAX, as numpy clips them, and mean 1 gives ones without a
        draw.
        """
        if self.kind == "deterministic":
            return np.full(size, int(self.mean), dtype=np.int64)
        if self.kind == "geometric":
            if self.mean == 1.0:
                return np.ones(size, dtype=np.int64)
            x = _log_uniform(rng, size)
            x /= math.log1p(-1.0 / self.mean)
            np.floor(x, out=x)
            x += 1.0
            huge = x >= 2.0 ** 63     # which would cast to INT64_MIN
            x[huge] = 0.0
            out = x.astype(np.int64)
            out[huge] = INT64_MAX
            return out
        out = rng.poisson(self._rate, size=size).astype(np.int64)
        zero = out == 0
        while zero.any():
            out[zero] = rng.poisson(self._rate, size=int(zero.sum()))
            zero = out == 0
        return out

    def sum_sample(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        """Total offspring of ``counts[i]`` independent families, drawn without
        materializing the families.  Needed by the binned census engine."""
        counts = np.asarray(counts, dtype=np.int64)
        if self.kind == "deterministic":
            return counts * int(self.mean)
        if self.kind == "geometric":
            r = 1.0 / self.mean
            out = counts.copy()
            m = counts > 0
            if m.any():
                out[m] = counts[m] + rng.negative_binomial(counts[m], r)
            return out
        raise ParamError("exact count census supports deterministic and geometric "
                         "offspring only")


# --------------------------------------------------------------------------
# displacement laws
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian:
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not _finite(self.mean):
            raise ParamError("gaussian mean must be finite")
        if not (_finite(self.variance) and self.variance > 0):
            raise ParamError("gaussian variance must be positive and finite")

    def log_mgf(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta * self.mean + 0.5 * self.variance * theta * theta

    def log_mgf_derivatives(self, theta):
        """First and second derivatives of ``log_mgf`` at ``theta``."""
        theta = np.asarray(theta, dtype=float)
        return self.mean + self.variance * theta, np.full(theta.shape, self.variance)

    def sf(self, z):
        """P(X > z)."""
        z = np.asarray(z, dtype=float)
        return ndtr((self.mean - z) / math.sqrt(self.variance))

    def sample(self, rng, size, above=None, below=None, tail=None):
        """``size`` steps; with ``above`` (or ``below``), step i is drawn
        conditioned on X > above[i] (or X <= below[i]) by the inverse CDF.
        A caller that holds the masses P(X > above[i]) passes them as
        ``tail``, which the draw then reads instead of ``sf(above)``."""
        sd = math.sqrt(self.variance)
        if above is not None:
            return self.mean + sd * _normal_above(
                self.sf(above) if tail is None else tail, rng.random(size))
        if below is not None:
            return self.mean - sd * _normal_above(ndtr((below - self.mean) / sd),
                                                  rng.random(size))
        return rng.normal(self.mean, sd, size=size)

    def sample_max(self, rng, counts):
        """One draw per family of the largest of ``counts[i]`` independent
        steps, by inversion: the largest of N is at most x with
        probability F(x)^N, so it is the step whose upper-tail mass is
        1 - U^(1/N) = -expm1(log U / N), read from the upper tail of the
        inverse CDF."""
        x = _log_uniform(rng, counts.size)
        x /= counts
        np.expm1(x, out=x)
        np.negative(x, out=x)
        return self.mean - math.sqrt(self.variance) * ndtri(x)

    def lattice_cells(self, h: float) -> np.ndarray:
        """Indices j of the lattice cells [(j - 1/2) h, (j + 1/2) h) a step
        lands in, in increasing order: all within 8 sd + |mean| of 0."""
        reach = int(math.ceil((8.0 * math.sqrt(self.variance) + abs(self.mean)) / h))
        return np.arange(-reach, reach + 1)

    def lattice_pmf(self, h: float):
        """``lattice_cells(h)`` and the probabilities of landing in them.

        A cell above the mean is read as a difference of upper tails,
        ndtr(-lo) - ndtr(-hi): a difference of CDFs there cancels against
        1, which leaves a 7-8 sd cell 12% off at pitch 0.05 and breaks the
        mirror symmetry of a centred step."""
        sd = math.sqrt(self.variance)
        j = self.lattice_cells(h)
        edges_hi = ((j + 0.5) * h - self.mean) / sd
        edges_lo = ((j - 0.5) * h - self.mean) / sd
        p = np.where(edges_lo > 0, ndtr(-edges_lo) - ndtr(-edges_hi),
                     ndtr(edges_hi) - ndtr(edges_lo))
        return j, p / p.sum()

    def density(self, z):
        z = np.asarray(z, dtype=float)
        sd = math.sqrt(self.variance)
        return np.exp(-0.5 * ((z - self.mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


@dataclass(frozen=True)
class PointMass:
    value: float = 0.0

    def __post_init__(self):
        if not _finite(self.value):
            raise ParamError("point-mass value must be finite")

    def log_mgf(self, theta):
        return np.asarray(theta, dtype=float) * self.value

    def log_mgf_derivatives(self, theta):
        """First and second derivatives of ``log_mgf`` at ``theta``."""
        shape = np.shape(theta)
        return np.full(shape, float(self.value)), np.zeros(shape)

    def sf(self, z):
        """P(X > z)."""
        return np.where(np.asarray(z, dtype=float) < self.value, 1.0, 0.0)

    def sample(self, rng, size, above=None, below=None, tail=None):
        """``size`` copies of the value.  A condition (``above``/``below``/
        ``tail``, as for ``Gaussian``) of positive probability leaves the
        law as it is."""
        return np.full(size, self.value, dtype=float)

    def sample_max(self, rng, counts):
        """The largest step of each family: the value, without a draw."""
        return np.full(counts.size, self.value, dtype=float)

    def lattice_cells(self, h: float) -> np.ndarray:
        """The index of the lattice cell of pitch h holding the value."""
        return np.array([int(round(self.value / h))])

    def lattice_pmf(self, h: float):
        return self.lattice_cells(h), np.array([1.0])


@dataclass(frozen=True)
class TwoPoint:
    """Mixture of two point masses: ``low`` w.p. 1 - prob_high, ``high`` w.p. prob_high."""

    low: float
    high: float
    prob_high: float

    def __post_init__(self):
        if not 0.0 < self.prob_high < 1.0:
            raise ParamError("two-point mixture weight must be in (0, 1)")
        if not (_finite(self.low, self.high) and self.low < self.high):
            raise ParamError("two-point values must be finite with low < high")

    def log_mgf(self, theta):
        theta = np.asarray(theta, dtype=float)
        p = self.prob_high
        # log((1-p) e^{t*low} + p e^{t*high}), stabilized around the larger
        # term, and exactly 0 at t = 0, where the sum rounds to +-1e-16
        a = theta * self.low + math.log1p(-p)
        b = theta * self.high + math.log(p)
        hi = np.maximum(a, b)
        return np.where(theta == 0.0, 0.0, hi + np.log(np.exp(a - hi) + np.exp(b - hi)))

    def log_mgf_derivatives(self, theta):
        """First and second derivatives of ``log_mgf`` at ``theta``.

        The tilted law puts weight ``w = logistic(logit p + theta * (high - low))``
        on ``high``.  The first derivative is read from the nearer end, so
        it equals ``high`` exactly once the tilt has saturated.
        """
        theta = np.asarray(theta, dtype=float)
        span = self.high - self.low
        z = math.log(self.prob_high) - math.log1p(-self.prob_high) + theta * span
        w, wc = _logistic_pair(z)
        d1 = np.where(w <= 0.5, self.low + span * w, self.high - span * wc)
        return d1, span * span * w * wc

    def sf(self, z):
        """P(X > z)."""
        z = np.asarray(z, dtype=float)
        return np.where(z < self.low, 1.0, np.where(z < self.high, self.prob_high, 0.0))

    def sample(self, rng, size, above=None, below=None, tail=None):
        """``size`` steps, conditioned as for ``Gaussian``: a threshold in
        [low, high) leaves only ``high`` above it, or only ``low`` at or
        below it.  The thresholds alone decide, so ``tail`` is not read."""
        p = self.prob_high
        if above is not None:
            p = np.where(np.asarray(above) < self.low, p, 1.0)
        elif below is not None:
            p = np.where(np.asarray(below) >= self.high, p, 0.0)
        picks = rng.random(size) < p
        return np.where(picks, self.high, self.low)

    def sample_max(self, rng, counts):
        """One draw per family of the largest of ``counts[i]`` independent
        steps: ``high`` unless every step is ``low``."""
        p = -np.expm1(counts * math.log1p(-self.prob_high))
        return np.where(rng.random(counts.size) < p, self.high, self.low)

    def lattice_cells(self, h: float) -> np.ndarray:
        """Indices of the lattice cells of pitch h holding the two values,
        one index when both fall in the same cell."""
        return np.unique([int(round(self.low / h)), int(round(self.high / h))])

    def lattice_pmf(self, h: float):
        j = self.lattice_cells(h)
        if j.size == 1:
            return j, np.array([1.0])
        return j, np.array([1.0 - self.prob_high, self.prob_high])


Displacement = Union[Gaussian, PointMass, TwoPoint]


def _logistic_pair(z):
    """``(1 / (1 + e^-z), 1 / (1 + e^z))``, both from e^-|z|, which cannot
    overflow: the smaller one is e^-|z| / (1 + e^-|z|), exactly 0 once
    e^-|z| underflows, and the larger exactly 1 from |z| >= 37."""
    e = np.exp(-np.abs(z))
    near, far = 1.0 / (1.0 + e), e / (1.0 + e)
    up = z >= 0
    return np.where(up, near, far), np.where(up, far, near)


def _log_uniform(rng, size):
    """log U for ``size`` uniforms U in (0, 1), below 0 and finite.

    U = 1 - random() lies on the grid k 2^-53, k = 1..2^53; its top point
    stands for the cell (1 - 2^-53, 1] and is read at the cell's middle,
    where log U = -2^-54, so that no maximum drawn from it is infinite.
    """
    x = rng.random(size)
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    return np.minimum(x, -2.0 ** -54, out=x)


# --------------------------------------------------------------------------
# the standard normal distribution function and its inverse
# --------------------------------------------------------------------------

def _ratio(num, den, y):
    """P(y) / Q(y) by Horner's rule, for coefficients given highest
    degree first."""
    p = y * num[0]
    p += num[1]
    q = y * den[0]
    q += den[1]
    for a, b in zip(num[2:], den[2:]):
        p *= y
        p += a
        q *= y
        q += b
    p /= q
    return p


def _halved(num):
    return tuple(0.5 * c for c in num)


def _rest(p, q, r):
    """p - r q, rounded once from its exact value (floats are ratios of
    integers, and dividing two integers rounds once)."""
    (a, b), (c, d), (e, f) = (v.as_integer_ratio() for v in (p, q, r))
    return (a * d * f - e * c * b) / (b * d * f)


# Cody (1969), with the coefficients of his CALERF.  erf(y) = y P(y^2) /
# Q(y^2) for |y| < 1/2; erfc(y) = exp(-y^2) P(y) / Q(y) for 1/2 <= y <= 4;
# erfc(y) = exp(-y^2) (1/sqrt(pi) - z P(z) / Q(z)) / y with z = 1/y^2 above.
# The numerators are halved, exactly, so that the ratios give the normal
# tails, erf / 2 and erfc / 2.  The erf ratio is read as its value at 0,
# ERF0 = 2 / sqrt(pi) to rounding, plus (P - ERF0 Q) / Q, whose
# coefficients are rounded from their exact values: that rest stays below
# a tenth of ERF0, so its rounding errors shrink tenfold.
_ERF_P = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3)
_ERF_Q = (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
          2.84423683343917062e3)
ERF0 = _ERF_P[-1] / _ERF_Q[-1]
_ERF_REST = (_halved([_rest(p, q, ERF0) for p, q in zip(_ERF_P, _ERF_Q)]), _ERF_Q)
_ERFC_NEAR_P = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
                6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
                1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3)
_ERFC_NEAR_Q = (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
                1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
                3.43936767414372164e3, 1.23033935480374942e3)
_ERFC_NEAR = (_halved(_ERFC_NEAR_P), _ERFC_NEAR_Q)
_ERFC_FAR_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
               1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_FAR_Q = (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
               6.05183413124413191e-2, 2.33520497626869185e-3)
_ERFC_FAR = (_halved(_ERFC_FAR_P), _ERFC_FAR_Q)

# Wichura (1988), AS 241 PPND16.  x = q P(r) / Q(r) with r = 0.180625 - q^2
# for |q| = |p - 1/2| <= 0.425; past it r = sqrt(-log min(p, 1 - p)) and
# |x| = P(r - 1.6) / Q(r - 1.6) for r <= 5, P(r - 5) / Q(r - 5) above.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0))
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0))
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0))

SQRT1_2 = math.sqrt(0.5)
NDTR_CENTRAL = 0.5 / SQRT1_2   # |x| below which ndtr reads erf
NDTR_FAR = 4.0 / SQRT1_2       # |x| above which erfc takes its asymptotic form
NDTR_ZERO = 40.0               # ndtr(-x) rounds to 0 from about 38.5 on
NEWTON_MAX = 37.5              # exp(-x^2 / 2) is a normal float up to here
NORMAL_BLOCK = 2 ** 14         # elements evaluated at once: temporaries stay in cache


def _blockwise(f, x):
    """``f(block, out)``, which writes into ``out``, over the flattened
    float ``x`` a block at a time, shaped as ``x`` (a 0-d input gives a
    scalar)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    for start in range(0, flat.size, NORMAL_BLOCK):
        f(flat[start:start + NORMAL_BLOCK], out[start:start + NORMAL_BLOCK])
    return out.reshape(x.shape)[()]


def _apply(f, mask, x, out):
    """``out[mask] = f(x[mask])``, with no call for an empty selection."""
    i = mask.nonzero()[0]
    if i.size:
        out[i] = f(x.take(i))


def ndtr(x):
    """The standard normal distribution function P(Z <= x), elementwise.

    Near 0 it is 1/2 + erf(x / sqrt 2) / 2; elsewhere the smaller tail,
    read from erfc, keeps its relative precision down to the least
    float.  ndtr(-inf) = 0, ndtr(inf) = 1, and nan stays nan.
    """
    return _blockwise(_ndtr_block, x)


def _ndtr_block(x, out):
    central = np.abs(x) < NDTR_CENTRAL
    _apply(_ndtr_central, central, x, out)
    _apply(_ndtr_tails, ~central, x, out)


def _ndtr_central(x):
    y = x * SQRT1_2
    return 0.5 + (y * (0.5 * ERF0) + y * _ratio(*_ERF_REST, y * y))


def _ndtr_tails(x):
    a = np.minimum(np.abs(x), NDTR_ZERO)
    t = _scaled_tail(a)
    t *= _gauss(a)
    return np.where(x < 0, t, 1.0 - t)


def _gauss(a):
    """exp(-a^2 / 2) for 0 <= a <= NDTR_ZERO, to the rounding of two exp.

    It is exp(-b^2 / 2) exp(-(a - b)(a + b) / 2) with b = a cut down to
    a multiple of 2^-20: b^2 is exact, where a^2 / 2, rounded, would be
    off by up to 1e-13 of itself in the exponent, and the second factor
    is just below 1, where floats are twice as fine as just above it.
    """
    b = np.trunc(a * 2.0 ** 20) * 2.0 ** -20
    out = np.exp(-0.5 * b * b)
    out *= np.exp(-0.5 * (a - b) * (a + b))
    return out


def _scaled_tail(a):
    """ndtr(-a) exp(a^2 / 2), for a >= NDTR_CENTRAL (or nan)."""
    out = np.empty(a.shape)
    near = a <= NDTR_FAR
    _apply(_erfc_near, near, a, out)
    _apply(_erfc_far, ~near, a, out)
    return out


def _erfc_near(a):
    return _ratio(*_ERFC_NEAR, a * SQRT1_2)


def _erfc_far(a):
    y = a * SQRT1_2
    z = 1.0 / (y * y)
    return (0.5 / math.sqrt(math.pi) - z * _ratio(*_ERFC_FAR, z)) / y


def ndtri(p):
    """The inverse of ``ndtr``: the x with ndtr(x) = p, elementwise.

    ndtri(0) = -inf, ndtri(1) = inf, and p outside [0, 1] or nan gives
    nan.  Past the central range the quantile is read from the smaller
    tail, min(p, 1 - p) (``_upper_quantile``).
    """
    return _blockwise(_ndtri_block, p)


def _ndtri_block(p, out):
    central = np.abs(p - 0.5) <= 0.425
    _apply(_ndtri_central, central, p, out)
    _apply(_ndtri_tails, ~central, p, out)


def _ndtri_central(p):
    q = p - 0.5
    return q * _ratio(*_AS241_CENTRAL, 0.180625 - q * q)


def _ndtri_tails(p):
    x = _upper_quantile(np.minimum(p, 1.0 - p))
    return np.where(p < 0.5, -x, x)


def _upper_quantile(m):
    """The x with ndtr(-x) = m, for m below 0.075 (0 gives inf).

    AS 241's estimate is off by up to 6e-16 of itself.  One Newton step
    on ndtr(-x) = m divides the error of the tail it reads by about x^2,
    which leaves the rounding of the result; past NEWTON_MAX, where m is
    subnormal, the estimate stands.
    """
    x = np.empty(m.shape)
    # m = 0 gives r = inf, read as x = inf; m < 0 gives nan
    with np.errstate(divide="ignore", invalid="ignore"):
        log_m = np.log(m)
        r = np.sqrt(-log_m)
        near = r <= 5.0
        _apply(_as241_near, near, r, x)
        _apply(_as241_far, ~near, r, x)
    # the step (ndtr(-x) - m) / ndtr'(x) is sqrt(2 pi) times ndtr(-x) e^(x^2/2)
    # less e^(x^2/2 + log m); rounding x^2 / 2 puts an error of about x^2
    # ulp in the second term, which the step then divides by x^2
    xs = np.minimum(x, NEWTON_MAX)
    step = _scaled_tail(xs)
    step -= np.exp(0.5 * xs * xs + log_m)
    step *= math.sqrt(2.0 * math.pi)
    return np.where(x < NEWTON_MAX, x + step, x)


def _as241_near(r):
    return _ratio(*_AS241_NEAR, r - 1.6)


def _as241_far(r):
    return np.where(r == np.inf, r, _ratio(*_AS241_FAR, r - 5.0))


def _normal_above(tail, u):
    """Standard normals conditioned on their upper tail of mass ``tail``,
    from uniforms ``u``: the draw whose upper-tail mass is (1 - u) tail.
    ``ndtri`` reads it from the smaller tail, so a cut deep in the tail
    loses nothing."""
    return -ndtri((1.0 - u) * tail)


# --------------------------------------------------------------------------
# reproduction laws
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReproductionLaw:
    """Offspring counts plus displacements under one of two mechanisms.

    ``independent``: every daughter draws her own step.  ``common``:
    one step is drawn per family and shared by all daughters.  The
    intensity measure factorizes either way, so the cumulant transform
    is the same closed form for both.
    """

    offspring: OffspringLaw
    displacement: Displacement
    mechanism: str = "independent"

    def __post_init__(self):
        if self.mechanism not in ("independent", "common"):
            raise ParamError(f"unknown displacement mechanism {self.mechanism!r}")

    def cumulant(self, theta):
        """log E[sum_i exp(theta z_i)]; +inf for theta < 0 by convention."""
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        t = np.atleast_1d(theta)
        val = math.log(self.offspring.mean) + self.displacement.log_mgf(t)
        out = np.where(t < 0, np.inf, val)
        return float(out[0]) if scalar else out

    def cumulant_derivatives(self, theta):
        """(k', k'') of the cumulant at tilts ``theta >= 0``, in closed form."""
        return self.displacement.log_mgf_derivatives(np.atleast_1d(
            np.asarray(theta, dtype=float)))


# --------------------------------------------------------------------------
# reducible two-type systems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Seeding:
    """Law of eta-daughters added to each nu-family.

    ``prob`` is a Bernoulli count (at most one seed per family) and
    ``displacement`` positions the seed relative to the nu-parent; the
    default point mass at zero puts it exactly at the parent.
    """

    prob: float
    displacement: Displacement = PointMass(0.0)

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ParamError("seeding probability must lie in [0, 1]")


@dataclass(frozen=True)
class TwoTypeSystem:
    """Reducible pair of one-type laws: nu begets nu (and seeds eta), eta begets eta.

    Reducibility is structural: there is no channel by which an eta
    parent produces a nu daughter, and every nu-family contains at
    least one nu-daughter because all catalogued count laws live on
    {1, 2, ...}.  Every catalogued displacement has a transform finite at
    every tilt, so the seeding term never restricts the speed formulas.
    """

    law_nu: ReproductionLaw
    law_eta: ReproductionLaw
    seeding: Seeding

    def swap_roles(self) -> "TwoTypeSystem":
        """The system with the class roles exchanged (same seeding law)."""
        return TwoTypeSystem(law_nu=self.law_eta, law_eta=self.law_nu,
                             seeding=self.seeding)


def skeleton_of_bbm(V: float, lam: float, p: float) -> TwoTypeSystem:
    """Unit-time skeleton of the two-type branching diffusion example.

    The nu-class branches at rate ``lam`` and diffuses with variance
    ``V`` (geometric families of mean exp(lam), independent
    Gaussian(0, V) steps, so its cumulant is exactly
    lam + V t^2 / 2); the eta-class is the unit-rate, unit-variance
    analogue.  Each nu-family seeds one eta-daughter with probability
    ``p`` at the parent's position.
    """

    if not (0 < V < math.inf and 0 < lam < math.inf):
        raise ParamError("V and lam must be positive and finite")
    if not 0.0 <= p <= 1.0:
        raise ParamError("seed probability must lie in [0, 1]")
    try:
        mean = math.exp(lam)
    except OverflowError:
        raise ParamError("exp(lam) exceeds the float range") from None
    law_nu = ReproductionLaw(OffspringLaw("geometric", mean), Gaussian(0.0, V))
    law_eta = ReproductionLaw(OffspringLaw("geometric", math.e),
                              Gaussian(0.0, 1.0))
    return TwoTypeSystem(law_nu=law_nu, law_eta=law_eta, seeding=Seeding(p))
