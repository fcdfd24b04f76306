"""Speed reports: one-type speeds and the two-type anomalous-speed pipeline.

The one-type speed is computed by both formulas (zero crossing of the
conjugate, infimum of cumulant-to-tilt ratios) and reconciled.  For a
reducible two-type system the terminal-class speed comes through two
independent routes: the zero crossing of the swept convex envelope of
the two rate functions, and a constrained two-tilt min-max
optimization.  Both must agree within TAU_CROSS, which is the main
internal consistency check of the whole artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .convex_analysis import (
    TAU_SPEED_ANALYTIC,
    EvaluableFunction,
    GridSpec,
    SpeedResult,
    _EPS,
    _NEWTON_STEPS,
    _THETA_CAP,
    convex_minorant,
    fenchel_dual,
    speed_from_dual,
    speed_from_inf,
    sweep,
)
from .errors import ToleranceError
from .models import ReproductionLaw, TwoTypeSystem

TAU_CROSS = 1e-4
FIGURE_GRID = GridSpec(-0.5, 2.0, 1e-3)   # the abscissae of the figure table


@dataclass(frozen=True)
class AnomalousReport:
    """Terminal-class speed of a reducible two-type system, both routes.

    ``speed`` is the reconciled value, read by the minorant route;
    ``route_formula`` is the min-max tilt route's.  ``anomalous`` flags a speed strictly above both
    single-class speeds, which happens exactly when the envelope
    bridges the two rate functions linearly across zero.  The un-swept
    envelope governing expected counts is ``TwoTypeAnalysis.expected_rate``.
    """

    speed_nu: float
    speed_eta: float
    speed: float
    route_formula: float
    rate: EvaluableFunction
    anomalous: bool


def one_type_speed(law: ReproductionLaw) -> SpeedResult:
    """Spreading speed of a one-type law, cross-checked between formulas.

    Returns the infimum-formula result enriched with the swept
    conjugate (rate function) so downstream count checks can evaluate
    it, plus reconciliation diagnostics.
    """

    by_inf = speed_from_inf(law)
    # from below the zero-tilt slope k'(0) to past the speed
    (s0,), _ = law.cumulant_derivatives(0.0)
    rate = sweep(fenchel_dual(law, GridSpec(min(s0, by_inf.speed) - 1.0,
                                            by_inf.speed + 1.0)))
    by_dual = speed_from_dual(rate)
    diagnostics = dict(by_inf.diagnostics, speed_from_dual=by_dual,
                       formula_gap=abs(by_dual - by_inf.speed))
    return SpeedResult(speed=by_inf.speed,
                       tilt_root=by_inf.tilt_root,
                       tilt_argmin=by_inf.tilt_argmin,
                       diagnostics=diagnostics,
                       rate_function=rate)


def _formula_route(law_nu: ReproductionLaw, law_eta: ReproductionLaw,
                   by_nu: SpeedResult, by_eta: SpeedResult) -> float:
    """inf over 0 < s <= t of max(k_nu(s)/s, k_eta(t)/t), as one monotone root.

    The inner minimum A(t) is the nu ratio at s = min(t, s_nu), clipped
    at nu's argmin s_nu, so it does not increase in t.  B(t) = k_eta(t)/t
    is least at eta's argmin t_eta and does not decrease past it, so the
    max is least on [t_eta, inf), where B - A does not decrease.  A
    ``tilt_argmin`` of None is the end 0+ when k(0) <= 0 (the ratio is
    then k'(0) near it) and inf otherwise, as in ``_ratio_root``.  The
    value is
    - max(v_nu, v_eta) when t_eta >= s_nu (eta's infimum approached only
      as t -> inf included), when A(t_eta) <= B(t_eta) (then v_eta), or
      when B(s_nu) <= A(s_nu) = v_nu (then v_nu);
    - otherwise the common value of A and B at the one root of B - A on
      (t_eta, s_nu), found by bracketed Newton with the closed-form
      B' - A' = (t (k_eta' - k_nu') - (k_eta - k_nu)) / t^2.  The bracket
      grows 4x at a time when s_nu is inf, and no root below the 2^48
      cap gives v_nu.
    """

    best = max(by_nu.speed, by_eta.speed)
    t_eta, s_nu = (res.tilt_argmin if res.tilt_argmin is not None
                   else 0.0 if law.cumulant(0.0) <= 0.0 else math.inf
                   for res, law in ((by_eta, law_eta), (by_nu, law_nu)))
    if (not t_eta < s_nu
            or 0.0 < t_eta and law_nu.cumulant(t_eta) / t_eta <= by_eta.speed
            or s_nu < math.inf and law_eta.cumulant(s_nu) / s_nu <= by_nu.speed):
        return best
    lo, hi = t_eta, s_nu
    t = lo if lo > 0.0 else min(1.0, 0.5 * hi)
    for _ in range(_NEWTON_STEPS):
        k_eta, k_nu = law_eta.cumulant(t), law_nu.cumulant(t)
        (d_eta,), _ = law_eta.cumulant_derivatives(t)
        (d_nu,), _ = law_nu.cumulant_derivatives(t)
        h = k_eta - k_nu                  # t (B - A)
        if abs(h) <= 4.0 * _EPS * max(abs(k_eta), abs(k_nu)):
            break
        if h < 0.0:
            if t >= _THETA_CAP:
                return best
            lo = t
        else:
            hi = t
        slope = t * (d_eta - d_nu) - h    # t^2 (B - A)'
        nxt = t - h * t / slope if slope > 0.0 else math.inf
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else min(4.0 * t, _THETA_CAP)
        if nxt == t:
            break
        t = nxt
    return float(max(k_eta, k_nu) / t)


class TwoTypeAnalysis:
    """The two-type pipeline of one reducible system, built once.

    One working grid, symmetric in the classes and wide enough for both
    rate functions and the bridge, carries the one pair of conjugates
    that the forward, reversed and expected-numbers envelopes share.
    Each part is built on first use, so one speed builds only its own.
    """

    def __init__(self, sys: TwoTypeSystem):
        self.sys = sys
        self._laws = (sys.law_nu, sys.law_eta)

    @cached_property
    def by_inf(self) -> tuple:
        """speed_from_inf of (nu, eta): the class speeds, the grid width
        and the formula route's argmins."""
        return tuple(speed_from_inf(law) for law in self._laws)

    @cached_property
    def grid(self) -> GridSpec:
        hi = 2.0 * (abs(self.by_inf[0].speed) + abs(self.by_inf[1].speed)) + 4.0
        return GridSpec(-max(1.0, 0.5 * hi), hi, 2e-3)

    @cached_property
    def duals(self) -> tuple:
        """The conjugates (d_nu, d_eta) on the working grid."""
        return tuple(fenchel_dual(law, self.grid) for law in self._laws)

    @cached_property
    def envelope(self) -> EvaluableFunction:
        """cv(sweep(d_nu), d_eta): the forward envelope before its sweep."""
        return convex_minorant(sweep(self.duals[0]), self.duals[1], self.grid)

    @cached_property
    def expected_rate(self) -> EvaluableFunction:
        """cv(d_nu, d_eta): the un-swept envelope governing expected counts;
        it can cross zero past the true speed."""
        return convex_minorant(*self.duals, self.grid)

    @cached_property
    def report(self) -> AnomalousReport:
        rate = sweep(self.envelope)
        crossing = speed_from_dual(rate)
        formula = _formula_route(self.sys.law_nu, self.sys.law_eta, *self.by_inf)
        gap = abs(crossing - formula)
        if gap > 10 * TAU_CROSS:
            raise ToleranceError(f"speed routes disagree by {gap:.3g}")
        speed_nu, speed_eta = (r.speed for r in self.by_inf)
        anomalous = crossing > max(speed_nu, speed_eta) + TAU_SPEED_ANALYTIC
        return AnomalousReport(speed_nu=speed_nu, speed_eta=speed_eta, speed=crossing,
                               route_formula=formula, rate=rate, anomalous=anomalous)

    def reversed_speed(self) -> float:
        d_nu, d_eta = self.duals
        return speed_from_dual(convex_minorant(sweep(d_eta), d_nu, self.grid))

    def expected_numbers_speed(self) -> float:
        return speed_from_dual(self.expected_rate)

    def figure_table(self):
        """The figure's rows on FIGURE_GRID as a 2-d array, each column one
        array-wide rule evaluation."""
        xs = FIGURE_GRID.abscissae()
        return np.column_stack((xs, sweep(self.duals[0])(xs), self.duals[1](xs),
                                self.envelope(xs)))


def anomalous_speed(sys: TwoTypeSystem) -> AnomalousReport:
    """Terminal-class speed of a reducible system, via both routes.

    Route 1 sweeps the nu rate function, takes the convex envelope with
    the eta rate function, sweeps again and reads off the zero
    crossing.  Route 2 minimizes the larger of the two
    cumulant-to-tilt ratios over ordered tilt pairs.  The two must
    agree within TAU_CROSS.
    """
    return TwoTypeAnalysis(sys).report


def reversed_speed(sys: TwoTypeSystem) -> float:
    """Terminal-class speed with the class roles exchanged.

    In the reversed order the envelope is dominated by the (un-swept)
    original nu rate function, so no anomaly can arise from it.
    """
    return TwoTypeAnalysis(sys).reversed_speed()


def expected_numbers_speed(sys: TwoTypeSystem) -> float:
    """Zero crossing of the un-swept envelope of the two rate functions.

    This is where expected terminal-class counts start to decay.  It is
    symmetric in the two classes, so it cannot see the role reversal
    and can strictly exceed the true speed: the expectation trap.
    """
    return TwoTypeAnalysis(sys).expected_numbers_speed()


def figure_table(sys: TwoTypeSystem):
    """Rows (a, kswept_nu, kdual_eta, cv) on FIGURE_GRID, as a 2-d array: the
    three curves whose zero crossings exhibit the anomalous speed."""
    return TwoTypeAnalysis(sys).figure_table()
