"""Deterministic front engine: iterating the updating operator on a grid.

With survival-function profiles u (nonincreasing, 1 on the far left, 0
on the far right) and a law with independent displacements, one update
reduces exactly to

    Q(u)(x) = 1 - g(1 - (u * f)(x)),

where g is the offspring generating function and u * f the convolution
of the profile with the step law.  Iterating from Heaviside data keeps
u^(n)(x) equal to the probability that the rightmost particle of
generation n exceeds x, so the front position tracks the rightmost
particle's median and its drift measures the spreading speed.

A profile is its values on a window, extended by its own first value
on the left and by 0 on the right.  One reader, ``_cells``, reads every
window by that rule: both Heaviside starts (the cells ``[1, 1/2]``),
every window move, a two-point step's low atom, the coupled seeding
term and ``front_speed``'s centred comparison.  A window that starts
between cells is the linear blend of the whole-cell windows around it.
Every update, one-type and coupled, is one guarded step, ``apply_q``:
it convolves a profile with the centred part of a step (``_convolve``:
a trapezoid density kernel for a Gaussian, the low atom read through
``_cells`` behind the high one for a two-point step, the identity for a
point mass), takes the complement in closed form, raises if the result
leaves [0, 1] or breaks monotonicity, and adds the step's translation
(a two-point step's high atom) to the window offset exactly, so that no
atom's mass is blended ahead of it.  ``_profiles`` iterates it for
one type; ``coupled_front`` iterates the reducible two-type version:
the exact law of the rightmost eta, anomalous front included.

A Gaussian step is summed directly, as a blocked Toeplitz matrix
product whose band each run builds once (``_band``).  Every output is a
sum of non-negative products, so its round-off stays relative to its
own size in any summation order, down the exponentially small leading
edge; there is no fft, whose absolute noise would seed that edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import KernelError, ParamError, RangeError
from .mc_sim import replicate_rng, rightmost_batch
from .models import (Displacement, Gaussian, PointMass, ReproductionLaw, TwoPoint,
                     TwoTypeSystem)

RANGE_TOL = 1e-12
LEVEL = 0.5   # the front is where the profile crosses this value: the median
WIDTH = 80.0  # the one-type window's width


@dataclass
class FrontProfile:
    """Grid profile u on [offset, offset + h*(len-1)], extended by its first
    value on the left and by 0 on the right, with its front position."""

    values: np.ndarray
    offset: float
    h: float

    def grid(self) -> np.ndarray:
        return self.offset + self.h * np.arange(self.values.size)

    @property
    def front(self) -> float:
        """Position of the LEVEL crossing, linearly interpolated."""
        v = self.values
        below = v <= LEVEL
        if not below.any():
            return self.offset + self.h * (v.size - 1)
        i = int(np.argmax(below))  # first index at or below the level
        if i == 0:
            return self.offset
        x0 = self.offset + self.h * (i - 1)
        return x0 + self.h * (v[i - 1] - LEVEL) / (v[i - 1] - v[i])

    def evaluate(self, x) -> np.ndarray:
        """Profile value at arbitrary positions: the first value left of the
        window, 0 right of it."""
        return np.interp(np.asarray(x, dtype=float), self.grid(), self.values, right=0.0)


def heaviside_profile(h: float = 0.01) -> FrontProfile:
    """Initial data on the one-type window: 1 left of the origin, 0 right of it.

    The window starts a whole number of cells, about WIDTH/2, left of the
    origin, so that one cell sits at the jump and carries the value 1/2:
    the two cells ``[1, 1/2]`` read on the window.  That is the usual
    quadrature convention for a step; without it every convolution
    against the jump would be off by half a kernel weight, an O(h) error.
    """
    behind = int(round(WIDTH / (2 * h)))
    return FrontProfile(_cells(np.array([1.0, 0.5]), 1 - behind, int(round(WIDTH / h)) + 1),
                        -behind * h, h)


# Columns B of the blocked Toeplitz product, and rows per matrix product.
# B = 64 ran fastest of 32 to 256 for the one-type kernel (1601 taps at
# h = 0.01) and the coupled ones (463 and 801 taps at h = 0.02) on a 2-CPU
# x86-64 machine with OpenBLAS; B = 32 took 25-40% longer.  A band holds
# about K * B doubles: 0.8 MB for 1601 taps.
_BLOCK = 64
_ROWS = 128


@dataclass(frozen=True)
class _Band:
    """A Gaussian step's centred kernel as a blocked banded Toeplitz matrix.

    With K = 2 * reach + 1 kernel weights w, T is the (C*B) x B matrix
    with T[j, r] = w[K - 1 - (j - r)] for 0 <= j - r < K and 0 elsewhere,
    C*B >= B + K - 1, so that C*B consecutive padded cells times T give
    B consecutive outputs.  ``blocks[c]`` holds rows c*B to c*B + B - 1.
    """

    blocks: Tuple[np.ndarray, ...]   # C arrays of B x B
    reach: int


def _band(step: Displacement, h: float) -> Optional[_Band]:
    """The blocked kernel of a Gaussian ``step`` on pitch ``h``; None otherwise.

    The weights are the trapezoid rule on the centred density over the
    cells a centred step reaches (``Gaussian.lattice_cells``), scaled to
    unit mass so that constant profiles are fixed points.
    """
    if not isinstance(step, Gaussian):
        return None
    centred = Gaussian(0.0, step.variance)
    taps = centred.lattice_cells(h)
    w = centred.density(h * taps) * h
    w[0] *= 0.5   # trapezoidal end weights
    w[-1] *= 0.5
    w = w / w.sum()
    rows = -(-(_BLOCK + w.size - 1) // _BLOCK) * _BLOCK
    # T[j, r] = z[j + B - 1 - r] with w reversed in z from index B - 1 on
    z = np.zeros(rows + _BLOCK - 1)
    z[_BLOCK - 1:_BLOCK - 1 + w.size] = w[::-1]
    t = sliding_window_view(z, _BLOCK)[:, ::-1]
    # one array per block: C small allocations, not one of C*B*B cells
    return _Band(blocks=tuple(np.ascontiguousarray(t[j:j + _BLOCK])
                              for j in range(0, rows, _BLOCK)), reach=int(taps[-1]))


def _cells(values: np.ndarray, start: float, size: int) -> np.ndarray:
    """``size`` cells of a profile from its cell ``start`` on: cells before
    the first take the first value, cells after the last 0.  A fractional
    start reads the linear blend of the whole-cell windows on either side
    of it, each extended by that rule.  Every window is read through it."""
    lo = math.floor(start)
    frac = start - lo
    hi = lo + size + (frac > 0)
    kept = values[max(lo, 0):max(hi, 0)]
    pad = min(max(-lo, 0), hi - lo)
    cells = np.concatenate([np.full(pad, values[0]), kept,
                            np.zeros(hi - lo - pad - kept.size)])
    # as a difference, the blend of two equal cells is that value exactly
    return cells[:-1] + frac * np.diff(cells) if frac else cells


def _band_sum(values: np.ndarray, band: _Band) -> np.ndarray:
    """sum_j w[j] * u(x_i - (j - reach) h), u extended by its first value and then 0.

    Output cells whose whole window is the first value (the left
    extension included) are that value exactly, and those whose whole
    window is 0.0 are 0.0 exactly; only the cells between are summed.
    The padded cells of that span, in rows of B, times the band block by
    block, sum_c rows[c:c + m] @ blocks[c], for _ROWS output rows at a time.
    """
    n, reach, left = values.size, band.reach, values[0]
    nc, b = len(band.blocks), _BLOCK
    # the first cell that is not ``left`` and the last one that is not 0.0,
    # the extensions included
    moved = values != left
    first_moved = int(moved.argmax()) if moved.any() else n
    nonzero = values[::-1] != 0.0
    last_nonzero = (n - 1 - int(nonzero.argmax()) if nonzero.any()
                    else -1 if left else -reach - 1)
    lo = max(first_moved - reach, 0)
    hi = min(last_nonzero + reach + 1, n)
    nb = -(-(hi - lo) // b) if lo < hi else 0
    out = np.empty(n + b)   # room for the span's last row
    acc = out[lo:lo + nb * b].reshape(nb, b)
    for r in range(0, nb, _ROWS):
        chunk = acc[r:r + _ROWS]
        m = chunk.shape[0]
        start = lo + r * b - reach   # profile index of the chunk's first padded cell
        rows = _cells(values, start, (m + nc - 1) * b).reshape(-1, b)
        np.matmul(rows[:m], band.blocks[0], out=chunk)
        for c in range(1, nc):
            chunk += rows[c:c + m] @ band.blocks[c]
    out[:lo] = left
    out[hi:] = 0.0   # lo > hi only when left == 0.0
    return out[:n]


# Cells below _TINY are summed apart, scaled up by _SCALE: their products
# with the kernel's smallest weights (~1e-17) would be subnormal, which
# x86 floating point handles several times slower than normal numbers.
_TINY = 2.0 ** -900
_SCALE = 2.0 ** 600


def _band_product(values: np.ndarray, band: _Band) -> np.ndarray:
    """``_band_sum`` clipped to [0, 1], with cells below _TINY summed apart.

    The cells below _TINY (about 1e-271) are multiplied by the power of
    two _SCALE, summed on their own over the outputs they reach, and
    scaled back.  Power-of-two scaling is exact, so this only moves
    where a sum rounds into the subnormal range: once per output rather
    than once per product, as a plain sum would.
    """
    small = (values > 0.0) & (values < _TINY)
    if not small.any():
        out = _band_sum(values, band)
    else:
        out = _band_sum(np.where(small, 0.0, values), band)
        cells = np.flatnonzero(small)
        lo = max(int(cells[0]) - band.reach, 0)
        hi = min(int(cells[-1]) + band.reach + 1, values.size)
        # its left extension is 0 unless the profile's first cell is below _TINY
        part = np.where(small[lo:hi], values[lo:hi] * _SCALE, 0.0)
        out[lo:hi] += _band_sum(part, band) * (1.0 / _SCALE)
    return np.clip(out, 0.0, 1.0, out=out)


def _convolve(u: FrontProfile, step: Displacement,
              band: Optional[_Band] = None) -> Tuple[np.ndarray, float]:
    """(u * f_c)(x_i) on u's cells, and the translation of ``step``.

    f_c is the step law centred by its translation, so that u * f is
    (u * f_c) moved right by the translation: the mean of a Gaussian,
    the value of a point mass (f_c is then the identity), the high atom
    of a two-point step (its low atom reads ``(high - low) / h`` cells
    ahead).  The profile is extended by its first value beyond its first
    cell and by 0 beyond its last.  ``band`` is the step's
    ``_band``, built here when not given.  A Gaussian step is summed
    directly, so that each output's round-off stays within about K ulps
    of its own size; an fft's absolute noise of ~1e-16 of the global max
    would seed the leading edge and, compounded, drag the front ahead.
    """
    if isinstance(step, PointMass):
        return u.values, step.value
    if isinstance(step, TwoPoint):
        low = _cells(u.values, (step.high - step.low) / u.h, u.values.size)
        return (1.0 - step.prob_high) * low + step.prob_high * u.values, step.high
    if band is None:
        band = _band(step, u.h)
    return _band_product(u.values, band), step.mean


def apply_q(u: FrontProfile, law: ReproductionLaw,
            band: Optional[_Band] = None) -> FrontProfile:
    """One front update, v = 1 - g(1 - (u * f)), on u's cells, the window
    moved by the step's translation; the closed-form complement keeps the
    edge below 1e-16.  Every front update, one-type and both coupled
    halves, is this one guarded step.

    Raises RangeError if the update leaves [0, 1] by more than 1e-12 or
    breaks monotonicity, and clips it to [0, 1] otherwise.  A caller
    that iterates passes ``band = _band(law.displacement, u.h)``, built
    once for its run.
    """
    if law.mechanism != "independent":
        raise KernelError("front recursion requires independent displacements")
    conv, shift = _convolve(u, law.displacement, band)
    v = law.offspring.complement(conv)
    if float(v.min()) < -RANGE_TOL or float(v.max()) > 1.0 + RANGE_TOL:
        raise RangeError("front update left [0, 1]")
    if np.any(np.diff(v) > RANGE_TOL):
        raise RangeError("front update broke monotonicity")
    return FrontProfile(np.clip(v, 0.0, 1.0, out=v), u.offset + shift, u.h)


def _profiles(law: ReproductionLaw, n_max: int, h: float):
    """Heaviside data, then the n_max profiles ``apply_q`` makes of it, each
    window moved by whole cells to keep the front near its centre."""
    u = heaviside_profile(h=h)
    yield u
    band = _band(law.displacement, h)
    size = u.values.size
    for _ in range(n_max):
        u = apply_q(u, law, band)
        cells = int(round((u.front - (u.offset + h * (size - 1) / 2)) / h))
        u = FrontProfile(_cells(u.values, cells, size), u.offset + cells * h, h)
        yield u


@dataclass
class FrontResult:
    speed: float
    drift: List[Tuple[int, float, float]]   # (n, x_n, x_n - x_{n-1})
    sup_diffs: np.ndarray                   # centered profile stabilization


def front_speed(law: ReproductionLaw, n_max: int, h: float = 0.01,
                snapshot_at: Optional[Sequence[int]] = None):
    """Iterate the front from Heaviside data and measure its speed.

    The speed is the least-squares slope of the front position over the
    second half of the run.  Also returns the per-step drift table and
    the sup-norm distance between successive centered profiles, which
    decays as the profile settles into its travelling shape.

    Returns (FrontResult, snapshots) where snapshots maps requested
    generations to profiles.
    """

    positions, drift, sup_diffs, snapshots = [], [], [], {}
    compared = math.ceil(WIDTH / 2 / h)   # cells from WIDTH/4 behind the front
    for n, u in enumerate(_profiles(law, n_max, h)):
        positions.append(u.front)   # a scan of the profile: read it once
        centered = _cells(u.values, (positions[-1] - WIDTH / 4 - u.offset) / h, compared)
        if n:
            drift.append((n, positions[-1], positions[-1] - positions[-2]))
            sup_diffs.append(float(np.max(np.abs(centered - prev_centered))))
        prev_centered = centered
        if snapshot_at and n in snapshot_at:
            snapshots[n] = u
    return FrontResult(speed=_second_half_slope(positions), drift=drift,
                       sup_diffs=np.array(sup_diffs)), snapshots


def _second_half_slope(positions: Sequence[float]) -> float:
    """Least-squares slope of positions[n] over n in [n_max/2, n_max]."""
    n_max = len(positions) - 1
    n = np.arange(n_max // 2, n_max + 1)
    x = np.asarray(positions)[n]
    nc = n - n.mean()
    return float(np.dot(nc, x) / np.dot(nc, nc))


def _profile_mean(profile: FrontProfile) -> float:
    """offset + integral of the profile: the mean of a variable whose tail it is."""
    v = profile.values
    area = float(v.sum()) - 0.5 * float(v[0] + v[-1])  # trapezoid, dx = 1
    return profile.offset + profile.h * area


def expected_rightmost_curve(law: ReproductionLaw, n_max: int,
                             h: float = 0.01) -> np.ndarray:
    """Exact expectation of the rightmost particle for each generation.

    Since the iterated profile is the tail probability of the rightmost
    particle, its integral over the window (plus the left edge) is
    E[rightmost] up to grid and window-truncation error.  Unlike any
    budgeted particle simulation this carries no selection bias, which
    matters for the logarithmic centering term: a beam's speed deficit
    is linear in n and swamps the log n coefficient in a regression.
    """

    return np.array([_profile_mean(u) for u in _profiles(law, n_max, h)])


def mc_consistency(law: ReproductionLaw, n: int, x_values: Sequence[float],
                   replicates: int, seed: int = 0, h: float = 0.01):
    """Compare iterated front values with exact Monte Carlo tail probabilities.

    Runs the recursion n steps on the window ``front_speed`` uses,
    estimates P(rightmost at generation n exceeds x) from exact
    replicates, and reports one z-score per x using the binomial
    standard error at the recursion's value.
    """

    # the finished loop has freed its band before the batch sets the call's peak
    for u in _profiles(law, n, h):
        pass
    rng = replicate_rng(seed)
    return _z_rows(u, rightmost_batch(law, n, replicates, rng), x_values)


def _z_rows(profile: FrontProfile, samples: np.ndarray,
            x_values: Sequence[float]):
    """Rows (x, profile value, empirical P(sample > x), binomial z-score)."""
    rows = []
    for x in x_values:
        q_val = float(profile.evaluate(np.asarray([x]))[0])
        p_hat = float(np.mean(samples > x))
        se = math.sqrt(max(q_val * (1.0 - q_val), 1e-12) / samples.size)
        rows.append((float(x), q_val, p_hat, (p_hat - q_val) / se))
    return rows


# --------------------------------------------------------------------------
# coupled two-type front: the exact law of the rightmost eta
# --------------------------------------------------------------------------

@dataclass
class CoupledFrontResult:
    """Law of the rightmost eta particle of a two-type walk after ``n_max`` steps.

    ``nu`` holds P(rightmost eta descended from one nu ancestor at the
    origin exceeds x).
    """

    speed: float            # slope of the median given some eta, over [n/2, n]
    mean: float             # E[rightmost eta | some eta is present]
    nu: FrontProfile


def _given_eta(nu: FrontProfile) -> Optional[FrontProfile]:
    """The nu profile given some eta: over its first value, P(some eta); None at 0."""
    present = float(nu.values[0])
    return (None if present == 0.0 else nu if present == 1.0
            else FrontProfile(nu.values / present, nu.offset, nu.h))


def _reach(steps: Sequence[Displacement], h: float) -> int:
    """The most cells any of ``steps`` moves a value in one generation: both
    ends of the cells it lands in, or for a two-point step, translated by
    its high atom, the cells its low atom lies behind; and one more for an
    interpolated atom."""
    return 1 + max(math.ceil((d.high - d.low) / h) if isinstance(d, TwoPoint)
                   else max(abs(int(c)) for c in d.lattice_cells(h)[[0, -1]])
                   for d in steps)


def _flat_cells(values: np.ndarray) -> int:
    """Cells before the first that differs from the first value by more than
    RANGE_TOL of it: its size when none does."""
    far = np.abs(values - values[0]) > RANGE_TOL * values[0]
    return int(far.argmax()) if far.any() else values.size


def coupled_front(sys: TwoTypeSystem, n_max: int, x_max: float,
                  h: float = 0.02) -> CoupledFrontResult:
    """Iterate the coupled front recursion of a reducible two-type system.

    With u_eta the rightmost-eta tail from one eta ancestor and u_nu
    the same tail from one nu ancestor, one step is

        u_eta' = 1 - g_eta(1 - u_eta * f_eta)
        u_nu'  = A + B - A B,  A = 1 - g_nu(1 - u_nu * f_nu),
                               B = p (u_eta * f_seed),

    started from u_eta = Heaviside and u_nu = 0 (Weinberger, Lewis & Li,
    J. Math. Biol. 2007, in the tail form).  ``A + B - A B`` avoids the
    cancellation of ``1 - (1 - A)(1 - B)``, and ``1 - g(1 - s)`` is
    taken in closed form for the same reason: the rounding noise of
    either would seed the exponentially small leading edge and run
    ahead of the true front.

    A and u_eta' are ``apply_q``, the guarded step, each window moved by
    its step's translation exactly.  The two profiles keep one window
    size: after each step both left ends move right by one count of
    cells, ``_reach`` cells (the most any step moves a value) fewer than
    the shorter of their two flat runs (``_flat_cells``), so each left
    extension stays exact to RANGE_TOL of its first value.  B reads
    u_eta * f_seed on A's cells through ``_cells``.  Where the three
    steps share a translation (every ``skeleton_of_bbm`` system) the two
    windows keep one offset bit for bit and that read is a whole-cell
    copy; otherwise it blends the cells around a fractional start.  A
    window's right end stays at ``x_max`` plus its translations, and
    RangeError is raised once either profile exceeds RANGE_TOL there.
    Medians are read given some eta (the nu profile over its first
    value), NaN while there is none.  Needs independent displacements.

    Range: the anomalous front rides on eta tail values far below
    1e-100, and float64 flushes values near 1e-308 to zero with no
    error raised.  For the worked example (V = 1/3, lambda = 3) at
    h = 0.04 and x_max = 1.64 n + 80, the slope error against 4/sqrt 6
    is -1.7e-9 at n = 600, but -4.0e-4 at n = 750 and -1.1e-2 at
    n = 900.  Keep n at or below 600 for that system, or check the
    slope against a second route.
    """

    if not x_max > 0.0:
        raise ParamError("x_max, the right end of the window, must lie right of the origin")
    law_nu, law_eta, seeding = sys.law_nu, sys.law_eta, sys.seeding
    steps = (law_nu.displacement, law_eta.displacement, seeding.displacement)
    reach = _reach(steps, h)
    size = reach + math.ceil(x_max / h) + 1
    bands = {d: _band(d, h) for d in steps}
    eta = FrontProfile(_cells(np.array([1.0, 0.5]), 1 - reach, size), -reach * h, h)
    nu = FrontProfile(np.zeros(size), eta.offset, h)
    given, medians = None, [math.nan]   # no eta at generation 0
    for n in range(1, n_max + 1):
        a = apply_q(nu, law_nu, bands[law_nu.displacement])
        b, shift = _convolve(eta, seeding.displacement, bands[seeding.displacement])
        b = seeding.prob * _cells(b, (a.offset - (eta.offset + shift)) / h, size)
        nu = FrontProfile(a.values + b - a.values * b, a.offset, h)
        del a, b   # before the eta convolution, the step's largest working set
        eta = apply_q(eta, law_eta, bands[law_eta.displacement])
        for u in (nu, eta):
            if u.values[-1] > RANGE_TOL:
                raise RangeError(f"front mass reached the right grid edge "
                                 f"{u.offset + h * (size - 1):g} at generation {n}")
        c = min(_flat_cells(nu.values), _flat_cells(eta.values)) - reach
        size -= c
        nu, eta = (FrontProfile(_cells(u.values, c, size), u.offset + c * h, h)
                   for u in (nu, eta))
        given = _given_eta(nu)
        medians.append(math.nan if given is None else given.front)
    return CoupledFrontResult(speed=_second_half_slope(medians),
                              mean=math.nan if given is None else _profile_mean(given),
                              nu=nu)


def coupled_mc_consistency(sys: TwoTypeSystem, n: int, x_values: Sequence[float],
                           replicates: int, seed: int = 0):
    """Compare the coupled recursion with exact two-type Monte Carlo.

    Draws the rightmost eta at generation n of ``replicates`` unpruned
    replicates as one batch (``rightmost_batch``) from the one stream
    ``replicate_rng(seed)``, and reports one binomial z-score per x for
    P(rightmost eta at generation n exceeds x), as ``mc_consistency``
    does for one type; a replicate with no eta exceeds no x.  Raises
    BudgetError, before any child is drawn, when a batch chunk's joint
    population would exceed the exact cap.
    """

    h = 0.02
    steps = (sys.law_nu.displacement, sys.law_eta.displacement, sys.seeding.displacement)
    res = coupled_front(sys, n, x_max=max(40.0, n * _reach(steps, h) * h), h=h)
    return _z_rows(res.nu, rightmost_batch(sys, n, replicates, replicate_rng(seed)),
                   x_values)
