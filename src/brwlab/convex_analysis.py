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
is +inf past the largest attainable speed of a bounded step, and each
``EvaluableFunction`` carries that end, set once where it is built.
Infinities are first class: comparisons treat +inf as absorbing, and
values are never NaN.  Arithmetic that could produce NaN (inf - inf) is
masked before it happens.
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
    effective domain, whose right end is ``end`` (+inf: finite through
    the window).  ``xs``/``ys`` are the rule sampled on strictly
    increasing abscissae, so ``f(f.xs) == f.ys``; they serve window
    decisions, precomputed envelope inputs and CSV export.  Construction
    rejects NaN, -inf and finite samples right of ``end``, and checks
    that the finite values form one interval and are discretely convex
    up to TAU_CVX.
    """

    xs: np.ndarray
    ys: np.ndarray
    rule: Callable[[np.ndarray], np.ndarray]
    end: float = math.inf

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
        if np.any(np.isfinite(ys) & (xs > self.end)):
            raise ValueError("a finite value lies right of the domain end")
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
    (``_newton_conjugate``), which also gives the end of the finite
    values: a bounded step's top plus the rounding it allows.
    """
    xs = a_grid.abscissae()
    ys, end = _newton_conjugate(law, xs)
    return EvaluableFunction(xs, ys, lambda avec: _newton_conjugate(law, avec)[0], end)


def _newton_conjugate(law, avec: np.ndarray):
    """Conjugate values by safeguarded Newton on k'(t) = a, all points at
    once, and the right end of the finite values.

    k' rises from k'(0) to its supremum B, read at the 2^48 cap.  A
    point with a <= k'(0) has its supremum at t = 0, value -k(0).  If
    k'' = 0 at the cap, the tilted step law has become a point mass and
    B is finite (a bounded step): the end is B plus rounding, past which
    a point is +inf, and a point within rounding of B solves B - k'(t) =
    that rounding, where t*a - k(t) equals the limit as t -> inf to
    rounding.  For finite B, Newton runs on log(B - k'(t)), which is
    nearly linear where k' nears B exponentially; otherwise on
    k'(t) - a.  Each point keeps a bracket and bisects when a step
    leaves it (a step past the saturation of k' does).  A point stops
    when the objective gain its next step predicts, residual x step, is
    at rounding level, or when the residual itself is.  Each step is one
    call of ``law.cumulant_derivatives`` on the unfinished points; one
    call of ``law.cumulant`` gives all the values.
    """
    (s0, s_cap), (c0, c_cap) = law.cumulant_derivatives(np.array([0.0, _THETA_CAP]))
    vals = np.full(avec.shape, np.inf)
    slack = 2.0 * _EPS * max(1.0, abs(s_cap))
    end = s_cap + slack if c_cap == 0.0 else math.inf
    finite = avec <= end
    a = avec[finite]
    if c_cap == 0.0:
        aim = s_cap - np.maximum(s_cap - a, slack)

        def residual(d1, d2, i):
            gap = s_cap - d1
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(gap > 0.0, np.log(s_cap - aim[i]) - np.log(gap), np.inf)
                return r, d2 / gap
    else:
        aim = a

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
    return vals, end


def sweep(f: EvaluableFunction) -> EvaluableFunction:
    """Replace strictly positive values of f by +inf; values <= 0 are kept.

    Idempotent, and preserves convexity (the kept region is a sublevel
    set of f).  The kept region ends on the grid cell where f turns
    positive, cut at f's own end: at the cut if f is nonpositive there,
    else at ``_crossing``'s root.  Past the last node f counts as
    nonpositive up to its end; with no nonpositive sample the end is -inf.
    """

    def rule(avec):
        v = np.asarray(f.rule(avec), dtype=float)
        return np.where(v <= 0, v, np.inf)

    ys = np.where(f.ys <= 0, f.ys, np.inf)
    kept = np.flatnonzero(ys <= 0)
    end = -math.inf
    if kept.size:
        i = int(kept[-1])
        hi, f_hi = ((float(f.xs[i + 1]), float(f.ys[i + 1])) if i + 1 < ys.size
                    else (math.inf, 0.0))
        if f.end < hi:
            hi, f_hi = f.end, f(f.end)
        end = hi if f_hi <= 0.0 else _crossing(f, float(f.xs[i]), hi, float(ys[i]), f_hi)
    return EvaluableFunction(f.xs, ys, rule, end)


def _crossing(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Right end of {f <= 0} in [lo, hi] for a convex f with f(lo) = f_lo
    <= 0 < f(hi) = f_hi (+inf allowed): the bracket's left end once the
    bracket is down to rounding, or a zero right of a negative value.

    Illinois secant in Anderson and Bjorck's form: each step scales the
    kept end's value by 1 - f(x)/f(replaced end), or halves it, so a kink
    at the root (an envelope's vertex) costs no more than a smooth root.
    Steps stay a rounding unit inside the bracket, and bisect beside a
    zero or infinite end value.
    """
    tol = 2.0 * _EPS * max(1.0, abs(lo), abs(hi))
    for _ in range(_NEWTON_STEPS):
        if hi - lo <= 2.0 * tol:
            break
        x = (min(max(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo + tol), hi - tol)
             if f_lo < 0.0 and f_hi < math.inf else 0.5 * (lo + hi))
        fx = f(x)
        if fx == 0.0 and f_lo < 0.0:
            return x
        if fx <= 0.0:
            m, lo, f_lo = (1.0 - fx / f_lo if f_lo else 0.0), x, fx
            f_hi *= m if m > 0.0 else 0.5
        else:
            m, hi, f_hi = 1.0 - fx / f_hi, x, fx
            f_lo *= m if m > 0.0 else 0.5
    return lo


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
    """The finite points of min(f, g) on xs and at the inputs' domain
    ends inside the grid, sorted by abscissa, then value.  Without the
    ends the hull would snap a swept boundary (and the crossing read off
    it) to the grid pitch."""
    ends = np.array([fn.end for fn in (f, g) if xs[0] < fn.end < xs[-1]])
    px = np.concatenate((xs, ends))
    py = np.concatenate((np.minimum(fy, gy),
                         np.minimum(f(ends), g(ends)) if ends.size else ends))
    fin = np.isfinite(py)
    order = np.lexsort((py[fin], px[fin]))
    return px[fin][order], py[fin][order]


def convex_minorant(f: EvaluableFunction, g: EvaluableFunction,
                    grid: GridSpec) -> EvaluableFunction:
    """Lower convex envelope of min(f, g) over the working window.

    Built from the lower convex hull (``_lower_hull``) of the finite
    points of min(f, g) on the grid and at the inputs' domain ends
    (``_hull_points``); the rule interpolates the hull linearly.  Both
    inputs are convex, so the hull departs from min(f, g) only at a few
    reflex points, where the inputs cross and at domain ends.

    The envelope is convex, and <= min(f, g) at the hull's points only:
    between nodes it can lie above the exact inputs by the chord error
    pitch^2 f''/8.  Past a grid end where min(f, g) is finite (window
    truncation) it continues with the end-segment slope; past one where
    both inputs are +inf it is +inf, and the hull's last vertex is its
    end.  It is the greatest such function wherever the window is wide
    enough that the hull's support is interior.

    An input whose stored abscissae are the grid's (a conjugate built on
    the same grid) enters by its stored values, since ``f(f.xs) ==
    f.ys``, and its rule runs only at the domain ends.  Any other input
    is evaluated on the grid.
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

    def rule(a):
        out = np.interp(a, hx, hy)
        sL = (hy[1] - hy[0]) / (hx[1] - hx[0])
        sR = (hy[-1] - hy[-2]) / (hx[-1] - hx[-2])
        left = a < hx[0]
        right = a > hx[-1]
        out[left] = hy[0] + sL * (a[left] - hx[0]) if fin[0] else np.inf
        out[right] = hy[-1] + sR * (a[right] - hx[-1]) if fin[-1] else np.inf
        return out

    return EvaluableFunction(xs, rule(xs), rule, math.inf if fin[-1] else float(hx[-1]))


def speed_from_dual(fd: EvaluableFunction) -> float:
    """Right end of the nonpositive set of a convex rate function: the
    end of ``sweep(fd)`` (``_swept_speed``).

    For a conjugate with strictly negative minimum this is the zero
    crossing sup{a : fd(a) < 0}.  The boundary is kept weakly (values
    exactly zero count as inside), which also resolves the degenerate
    single-walk case where the rate function is an indicator.
    """

    return _swept_speed(sweep(fd))


def _swept_speed(rate: EvaluableFunction) -> float:
    """``speed_from_dual`` of a rate function already swept: its end,
    which sweeping again would give back, checked to be a crossing."""
    if rate.end == -math.inf:
        raise DomainError("rate function is positive everywhere; no crossing")
    if rate.end == math.inf:
        raise ToleranceError("window does not bracket the zero crossing")
    return rate.end


def speed_from_inf(law) -> SpeedResult:
    """Spreading speed as inf_{t>0} k(t)/t for the convex cumulant k of ``law``.

    The ratio is unimodal when k is convex with k(0) > 0; its minimizer
    is the root ``_ratio_root`` finds by Newton on k'.  When the infimum
    is only approached as t -> inf (bounded displacements), the speed is
    the asymptotic slope of k and no tilt root is reported.
    """

    value, argmin, attained = _ratio_root(law)
    diagnostics = {"attained": attained}
    tilt_root = None
    if attained and argmin is not None:
        residual = abs(argmin * value - law.cumulant(argmin))
        diagnostics["root_residual"] = residual
        if residual <= TAU_ROOT * max(1.0, abs(value)):
            tilt_root = argmin
    return SpeedResult(speed=value, tilt_root=tilt_root, tilt_argmin=argmin,
                       diagnostics=diagnostics)
