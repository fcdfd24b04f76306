"""Numerical convex duality for spreading-speed calculations.

This module supplies the convex machinery everything else composes:
``EvaluableFunction`` (a vectorized rule together with the grid it
samples), conjugates (Legendre-Fenchel transforms), the sweep operation
that replaces positive values by +inf, lower convex envelopes of pairs
of functions built from an array-wide lower hull, and the two speed
functionals (zero crossing of a rate function, infimum of
cumulant-to-tilt ratios).

``fenchel_dual`` and ``speed_from_inf`` take a law: any object with
``cumulant(t)`` and its first two derivatives ``cumulant_derivatives(t)``,
as every ``ReproductionLaw`` has in closed form.  The conjugate points
and the ratio minimizer are the roots of the optimality equations
k'(t) = a and t k'(t) = k(t), each solved by safeguarded Newton.

Every function here is convex.  A cumulant is finite on [0, inf) and
+inf for negative tilts; its conjugate, a swept conjugate or an envelope
is +inf past the largest attainable speed of a bounded step.  Infinities
are first class: comparisons treat +inf as absorbing, and values are
never NaN.  Arithmetic that could produce NaN (inf - inf) is masked
before it happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ToleranceError
from .tables import write_csv

# Tolerances used across the package.
TAU_CVX = 1e-8            # discrete convexity slack (relative)
TAU_ROOT = 1e-7           # residual of tilt * speed - cumulant(tilt)
TAU_SPEED_ANALYTIC = 1e-6  # speed-formula agreement, closed-form cumulants

_THETA_CAP = 2.0 ** 48    # beyond this the conjugate is treated as +inf
_EPS = float(np.finfo(float).eps)
_NEWTON_STEPS = 64
_MAX_BRIDGES = 8          # more reflex hull points than this are dropped at once


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid [lo, hi] with the given step."""

    lo: float
    hi: float
    step: float = 1e-3

    def abscissae(self) -> np.ndarray:
        n = max(1, int(round((self.hi - self.lo) / self.step)))
        return self.lo + self.step * np.arange(n + 1)


@dataclass(frozen=True)
class EvaluableFunction:
    """A convex extended-real function: a vectorized rule and the grid it samples.

    ``rule`` is the evaluation: it maps a 1-d array of abscissae to
    values in (-inf, +inf], where +inf marks points outside the
    effective domain.  ``xs``/``ys`` are the rule sampled on strictly
    increasing abscissae, so ``f(f.xs) == f.ys``; they serve window
    decisions, precomputed envelope inputs and CSV export.  Construction
    rejects NaN and -inf values, and checks that the finite values form
    one interval and are discretely convex up to TAU_CVX.
    """

    xs: np.ndarray
    ys: np.ndarray
    rule: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("grid must be two or more matching abscissae/values")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("abscissae must be strictly increasing")
        if np.isnan(ys).any():
            raise ValueError("values must never be NaN")
        if np.isneginf(ys).any():
            raise ValueError("-inf is not a permitted value")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        fin = np.flatnonzero(np.isfinite(ys))
        # an extended-real convex function is finite on an interval
        if fin.size and not np.array_equal(fin, np.arange(fin[0], fin[-1] + 1)):
            raise ValueError("values have a gap in their finite support")
        if fin.size >= 3:
            fx, fy = xs[fin], ys[fin]
            s = np.diff(fy) / np.diff(fx)
            tol = TAU_CVX * max(1.0, float(np.abs(fy).max()))
            if np.any(np.diff(s) < -tol):
                raise ValueError("values fail discrete convexity")

    def __call__(self, a):
        arr = np.asarray(a, dtype=float)
        out = np.asarray(self.rule(np.atleast_1d(arr)), dtype=float)
        return float(out[0]) if arr.ndim == 0 else out

    def write_csv(self, path) -> None:
        """Export the grid as CSV columns (a, value); +inf becomes the literal 'inf'."""
        write_csv(path, ["a", "value"], np.column_stack((self.xs, self.ys)))


@dataclass(frozen=True)
class SpeedResult:
    """Spreading speed with the tilt data that produced it.

    ``tilt_root`` is the positive root of tilt * speed = cumulant(tilt)
    when one exists, ``tilt_argmin`` the minimizer of cumulant(t)/t.
    ``rate_function`` carries the swept conjugate for downstream count
    verification when the result came through the speeds pipeline.
    """

    speed: float
    tilt_root: Optional[float] = None
    tilt_argmin: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)
    rate_function: Optional[EvaluableFunction] = None


def _ratio_root(law):
    """Minimize k(t)/t over t > 0 by safeguarded Newton on F(t) = t k'(t) - k(t),
    for the cumulant k of ``law``.

    Returns (value, argmin, attained).  ``attained`` is False when the
    infimum is only approached at an end of (0, inf): as t -> inf, when
    ``value`` is the supremum of k', or as t -> 0 when k(0) <= 0, when it
    is k'(0).  ``argmin`` is None then; k(0) tells the two ends apart.

    F' = t k'' >= 0, so F rises from -k(0) and k(t)/t is least at its
    root.  Newton starts at the root of the quadratic model
    k(0) + k''(0) t^2 / 2 (exact for a Gaussian step), keeps a bracket,
    grows by at most 4x while no point with F >= 0 is known, and
    bisects when a step leaves the bracket.  It stops when |F| is at
    rounding level.  Where k'' = 0 the tilted step law is a point mass,
    so k' has reached its supremum and F is constant from there on: if
    F < 0 there (or at the 2^48 cap) there is no root, and the infimum
    is that supremum, approached as t -> inf.

    A bounded step (k'' = 0 at the cap) is decided before Newton: with
    top B and top-atom mass q, k(t) - tB falls to log(m q), so F rises
    to -log(m q) and has a root only if m q < 1.  Where m q >= 1 the
    infimum is B, approached as t -> inf, found with two calls of the
    cumulant; Newton would creep along F's exponential tail (m q = 1)
    and stop at a spurious root.
    """
    k0 = float(law.cumulant(0.0))
    (s0, top), (c0, c_cap) = law.cumulant_derivatives(np.array([0.0, _THETA_CAP]))
    if k0 <= 0.0:
        # k(0) = 0 (one daughter): k(t)/t >= k'(0) by convexity
        return float(s0), None, False
    if c_cap == 0.0 and _top_limit(law, top) >= 0.0:
        return float(top), None, False
    t = min(math.sqrt(2.0 * k0 / c0), _THETA_CAP) if c0 > 0.0 else 1.0
    lo, hi = 0.0, math.inf
    for _ in range(_NEWTON_STEPS):
        kt = float(law.cumulant(t))
        (d1,), (d2,) = law.cumulant_derivatives(np.array([t]))
        F = t * d1 - kt
        if abs(F) <= 4.0 * _EPS * max(abs(t * d1), abs(kt)):
            break
        if F < 0.0:
            if d2 == 0.0 or t >= _THETA_CAP:
                return float(d1), None, False
            lo = t
        else:
            hi = t
        step = -F / (t * d2) if d2 > 0.0 else math.inf
        nxt = min(t + step, 4.0 * t)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else min(4.0 * t, _THETA_CAP)
        if nxt == t:
            break
        t = nxt
    return kt / t, t, True


def _top_limit(law, top: float) -> float:
    """lim k(t) - t * top as t -> inf for the cumulant k of a law whose
    bounded step has that top: log(m q), or 0 when it is within rounding
    of 0.

    Read at the least power of 2 where k' equals ``top`` to the last
    bit, so the tilted law has saturated and t * top is exact.
    """
    ts = 2.0 ** np.arange(0, 49)
    t = float(ts[np.argmax(law.cumulant_derivatives(ts)[0] == top)])
    ft = float(law.cumulant(t))
    limit = ft - t * top
    return 0.0 if abs(limit) <= 8.0 * _EPS * max(abs(ft), abs(t * top)) else limit


def fenchel_dual(law, a_grid: GridSpec) -> EvaluableFunction:
    """Convex conjugate g(a) = sup_{t >= 0} (t*a - k(t)) of the cumulant k
    of ``law``, sampled on ``a_grid``.

    Each point's maximizer solves k'(t) = a by safeguarded Newton
    (``_newton_conjugate``).
    """
    xs = a_grid.abscissae()

    def conjugate(avec: np.ndarray) -> np.ndarray:
        return _newton_conjugate(law, np.atleast_1d(np.asarray(avec, dtype=float)))

    return EvaluableFunction(xs, conjugate(xs), conjugate)


def _newton_conjugate(law, avec: np.ndarray) -> np.ndarray:
    """Conjugate values by safeguarded Newton on k'(t) = a, all points at once.

    k' rises from k'(0) to its supremum B, read at the 2^48 cap.  A
    point with a <= k'(0) has its supremum at t = 0, value -k(0).  If
    k'' = 0 at the cap, the tilted step law has become a point mass and
    B is finite (a bounded step): a point more than rounding above B is
    +inf, and one within rounding of B solves B - k'(t) = that rounding,
    where t*a - k(t) equals the limit as t -> inf to rounding.  For
    finite B, Newton runs on log(B - k'(t)), which is nearly linear where
    k' nears B exponentially; otherwise on k'(t) - a.  Each point keeps
    a bracket and bisects when a step leaves it (a step past the
    saturation of k' does).  A point stops when the objective gain its
    next step predicts, residual x step, is at rounding level, or when
    the residual itself is.  Each step is one call of
    ``law.cumulant_derivatives`` on the unfinished points; one call of
    ``law.cumulant`` gives all the values.
    """
    (s0, s_cap), (c0, c_cap) = law.cumulant_derivatives(np.array([0.0, _THETA_CAP]))
    vals = np.full(avec.shape, np.inf)
    if c_cap == 0.0:
        slack = 2.0 * _EPS * max(1.0, abs(s_cap))
        finite = avec <= s_cap + slack
        a = avec[finite]
        aim = s_cap - np.maximum(s_cap - a, slack)

        def residual(d1, d2, i):
            gap = s_cap - d1
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(gap > 0.0, np.log(s_cap - aim[i]) - np.log(gap), np.inf)
                return r, d2 / gap
    else:
        finite = np.ones(avec.shape, dtype=bool)
        a = aim = avec

        def residual(d1, d2, i):
            return d1 - aim[i], d2

    t = np.zeros(a.shape)
    lo, hi = np.zeros(a.shape), np.full(a.shape, np.inf)
    r, dr = residual(np.full(a.shape, s0), np.full(a.shape, c0), slice(None))
    i = np.flatnonzero(r < 0.0)          # the rest have their supremum at t = 0
    r, dr = r[i], dr[i]
    for _ in range(_NEWTON_STEPS):
        if i.size == 0:
            break
        below = r < 0.0
        lo[i] = np.where(below, t[i], lo[i])
        hi[i] = np.where(below, hi[i], t[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = t[i] - r / dr
        inside = (nxt > lo[i]) & (nxt < hi[i])
        nxt = np.where(inside, nxt, np.where(np.isfinite(hi[i]), 0.5 * (lo[i] + hi[i]),
                                             2.0 * np.maximum(t[i], 1.0)))
        t[i] = nxt
        d1, d2 = law.cumulant_derivatives(nxt)
        r, dr = residual(d1, d2, i)
        miss = aim[i] - d1
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = np.abs(miss * r / dr)
        done = ((np.abs(miss) <= 2.0 * _EPS * np.maximum(1.0, np.abs(aim[i])))
                | (gain <= 2.0 * _EPS * (1.0 + np.abs(nxt * a[i])))
                | (hi[i] - lo[i] <= 2.0 * _EPS * lo[i]))
        keep = ~done
        i, r, dr = i[keep], r[keep], dr[keep]
    vals[finite] = t * a - np.asarray(law.cumulant(t), dtype=float)
    return vals


def sweep(f: EvaluableFunction) -> EvaluableFunction:
    """Replace strictly positive values of f by +inf; values <= 0 are kept.

    Idempotent, and preserves convexity (the kept region is a sublevel
    set of f).
    """

    def rule(avec):
        v = np.asarray(f.rule(avec), dtype=float)
        return np.where(v <= 0, v, np.inf)

    return EvaluableFunction(f.xs, np.where(f.ys <= 0, f.ys, np.inf), rule)


_PROBES = 48              # points per round of _multisection
_ROUNDS = 4


def _multisection(fn, lo, hi, predicate):
    """Refine the flip point of a monotone predicate along [lo, hi].

    The predicate must hold at ``lo`` and fail at ``hi``; each of
    ``_ROUNDS`` rounds evaluates ``fn`` once on ``_PROBES`` points (cheap
    even when fn re-optimizes per point) and keeps the bracketing cell.
    Returns the last abscissa where the predicate held.
    """
    for _ in range(_ROUNDS):
        ts = np.linspace(lo, hi, _PROBES)
        good = predicate(np.asarray(fn(ts)))
        idx = np.flatnonzero(good)
        k = int(idx[-1]) if idx.size else 0
        lo = float(ts[k])
        hi = float(ts[min(k + 1, _PROBES - 1)])
    return lo, hi


def _lower_hull(px: np.ndarray, py: np.ndarray):
    """Vertices (hx, hy) of the lower convex hull of points sorted by x, then y.

    At a duplicate abscissa the lower value, sorted first, stays.  Then
    each round computes the turn of every interior point against its
    two neighbours: where it is not strictly convex (a collinear point
    turns by 0) the point is reflex.  Many reflex points, as in a flat
    run or rounding noise, are all dropped at once; dropping them
    simultaneously is exact, since along a run of reflex points the
    height above the chord of the run's kept ends is discretely concave
    and so nonnegative.  At most ``_MAX_BRIDGES`` reflex points cut the
    chain into convex runs, which ``_bridge`` joins; a join that drops
    nothing is followed by a drop round, so every round shrinks the
    chain until no point is reflex.
    """
    keep = np.ones(px.size, dtype=bool)
    keep[1:] = px[1:] != px[:-1]
    hx, hy = px[keep], py[keep]
    joined = True
    while hx.size > 2:
        x0, x1, x2, y0, y1, y2 = hx[:-2], hx[1:-1], hx[2:], hy[:-2], hy[1:-1], hy[2:]
        reflex = np.flatnonzero((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0) <= 0) + 1
        if reflex.size == 0:
            break
        if reflex.size > _MAX_BRIDGES or not joined:
            keep = np.ones(hx.size, dtype=bool)
            keep[reflex] = False
            hx, hy, joined = hx[keep], hy[keep], True
            continue
        size = hx.size
        hx, hy = _bridge(hx, hy, reflex)
        joined = hx.size < size
    return hx, hy


def _bridge(hx: np.ndarray, hy: np.ndarray, cuts: np.ndarray):
    """Join the convex runs of a chain, cut after each index in ``cuts``.

    Left to right, the hull so far (kx, ky) and the next run (bx, by)
    are joined by their lower common tangent, whose ends are found by
    alternating slope searches: the point of the hull with the largest
    slope to the run's current end, then the point of the run with the
    least slope from the hull's.  Ties keep the outer point (the first
    argmax, the last argmin), so collinear middle points go.
    """
    bounds = np.concatenate(([0], cuts + 1, [hx.size]))
    kx, ky = hx[:bounds[1]], hy[:bounds[1]]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        bx, by = hx[lo:hi], hy[lo:hi]
        i, j = kx.size - 1, 0
        for _ in range(kx.size + bx.size):
            i_new = int(np.argmax((by[j] - ky) / (bx[j] - kx)))
            s = (by - ky[i_new]) / (bx - kx[i_new])
            j_new = s.size - 1 - int(np.argmin(s[::-1]))
            if (i_new, j_new) == (i, j):
                break
            i, j = i_new, j_new
        kx = np.concatenate((kx[:i + 1], bx[j:]))
        ky = np.concatenate((ky[:i + 1], by[j:]))
    return kx, ky


def _hull_points(f: EvaluableFunction, g: EvaluableFunction, xs: np.ndarray,
                 fy: np.ndarray, gy: np.ndarray):
    """The finite points of min(f, g) on xs and the inputs' domain edges,
    sorted by abscissa, then value.

    Domain edges fall between grid points; they are located by
    bisection and added, otherwise the hull snaps a swept boundary (and
    the crossing read off it) to the grid pitch.
    """
    m = np.minimum(fy, gy)
    fin = np.isfinite(m)
    ex, ey = [], []
    for fn, vals in ((f, fy), (g, gy)):
        ok = np.isfinite(vals)
        for i in np.flatnonzero(ok[:-1] != ok[1:]):
            if ok[i]:
                a_fin, _ = _multisection(fn, float(xs[i]), float(xs[i + 1]),
                                         np.isfinite)
            else:
                hi, _ = _multisection(lambda t: fn(xs[i + 1] + xs[i] - t),
                                      float(xs[i]), float(xs[i + 1]), np.isfinite)
                a_fin = xs[i + 1] + xs[i] - hi
            edge = float(np.minimum(f(a_fin), g(a_fin)))
            if math.isfinite(edge):
                ex.append(float(a_fin))
                ey.append(edge)
    px = np.concatenate((xs[fin], ex))
    py = np.concatenate((m[fin], ey))
    order = np.lexsort((py, px))
    return px[order], py[order]


def convex_minorant(f: EvaluableFunction, g: EvaluableFunction,
                    grid: GridSpec) -> EvaluableFunction:
    """Lower convex envelope of min(f, g) over the working window.

    Built from the lower convex hull (``_lower_hull``) of the finite
    points of min(f, g) on the grid, plus the inputs' domain edges
    located between grid points (``_hull_points``); +inf points never
    enter the hull, and the rule interpolates the hull linearly.  The
    hull's vertices are those of a monotone chain over the same points:
    collinear middle points are dropped, and at a duplicate abscissa the
    lower value stays.  Both inputs are convex, so the hull departs from
    min(f, g) only at a few reflex points, where the inputs cross and
    at domain edges, and those are bridged by lower common tangents
    found by array-wide slope searches.

    The envelope is convex, and <= min(f, g) at the grid nodes and the
    added edge points only: between nodes it can lie above the exact
    inputs by the chord error pitch^2 f''/8.  Past a grid end where
    min(f, g) is finite (window truncation) the envelope continues with
    the end-segment slope; past a grid end where both inputs are +inf (a
    domain edge) it is +inf beyond the hull.  It is the greatest such
    function wherever the window is wide enough that the hull's support
    is interior.

    An input whose stored abscissae are the grid's (a conjugate built on
    the same grid) enters by its stored values, since ``f(f.xs) ==
    f.ys``; its rule then only refines domain edges.  Any other input is
    evaluated on the grid.
    """

    xs = grid.abscissae()
    fy, gy = (fn.ys if np.array_equal(fn.xs, xs) else np.asarray(fn(xs))
              for fn in (f, g))
    fin = np.isfinite(np.minimum(fy, gy))
    if not fin.any():
        raise DomainError("min(f, g) is +inf everywhere on the window")
    hx, hy = _lower_hull(*_hull_points(f, g, xs, fy, gy))

    if hx.size == 1:
        hx = np.array([hx[0], hx[0] + grid.step])
        hy = np.array([hy[0], hy[0]])

    def rule(avec):
        a = np.atleast_1d(np.asarray(avec, dtype=float))
        out = np.interp(a, hx, hy)
        sL = (hy[1] - hy[0]) / (hx[1] - hx[0])
        sR = (hy[-1] - hy[-2]) / (hx[-1] - hx[-2])
        left = a < hx[0]
        right = a > hx[-1]
        out[left] = hy[0] + sL * (a[left] - hx[0]) if fin[0] else np.inf
        out[right] = hy[-1] + sR * (a[right] - hx[-1]) if fin[-1] else np.inf
        return out

    return EvaluableFunction(xs, rule(xs), rule)


def speed_from_dual(fd: EvaluableFunction) -> float:
    """Right edge of the nonpositive set of a convex rate function.

    For a conjugate with strictly negative minimum this is the zero
    crossing sup{a : fd(a) < 0}.  The boundary is kept weakly (values
    exactly zero count as inside), which also resolves the degenerate
    single-walk case where the rate function is an indicator.
    """

    ys = fd.ys
    le0 = np.flatnonzero(np.isfinite(ys) & (ys <= 0))
    if le0.size == 0:
        raise DomainError("rate function is positive everywhere; no crossing")
    i = int(le0[-1])
    if i == ys.size - 1:
        raise ToleranceError("window does not bracket the zero crossing")
    lo, hi = _multisection(fd, float(fd.xs[i]), float(fd.xs[i + 1]),
                           lambda v: v <= 0)
    return 0.5 * (lo + hi)


def speed_from_inf(law) -> SpeedResult:
    """Spreading speed as inf_{t>0} k(t)/t for the convex cumulant k of ``law``.

    The ratio is unimodal when k is convex with k(0) > 0; its minimizer
    is the root ``_ratio_root`` finds by Newton on k'.  When the infimum
    is only approached as t -> inf (bounded displacements), the speed is
    the asymptotic slope of k and no tilt root is reported.
    """

    value, argmin, attained = _ratio_root(law)
    diagnostics = {"formula": "inf k(t)/t", "attained": attained}
    tilt_root = None
    if attained and argmin is not None:
        residual = abs(argmin * value - law.cumulant(argmin))
        diagnostics["root_residual"] = residual
        if residual <= TAU_ROOT * max(1.0, abs(value)):
            tilt_root = argmin
    return SpeedResult(speed=value, tilt_root=tilt_root, tilt_argmin=argmin,
                       diagnostics=diagnostics)
