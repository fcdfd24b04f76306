"""Test the reference computations of reference.py against known values.

    python3 bench/selftest.py

Prints one line per check and exits 1 if any fails.  Needs numpy only;
brwlab is not imported.
"""

import math
import sys

import numpy as np

import reference as ref

SQRT2 = math.sqrt(2.0)


def law(offspring, mean, disp, mechanism="independent"):
    return {"offspring": offspring, "mean": mean, "displacement": disp,
            "mechanism": mechanism}


def gaussian(mean, variance):
    return {"kind": "gaussian", "mean": mean, "variance": variance}


def bernoulli_speed(m: float, p: float) -> float:
    """Speed of a walk with m-fold branching and Bernoulli(p) steps, by its rate
    function: the v in (p, 1) with v log(v/p) + (1-v) log((1-v)/(1-p)) = log m."""
    lo, hi = p, 1.0 - 1e-15
    for _ in range(200):
        v = 0.5 * (lo + hi)
        rate = v * math.log(v / p) + (1 - v) * math.log((1 - v) / (1 - p))
        lo, hi = (v, hi) if rate < math.log(m) else (lo, v)
    return 0.5 * (lo + hi)


def cases():
    unit = law("geometric", math.e, gaussian(0.0, 1.0))
    yield "unit skeleton speed is sqrt 2", ref.one_type_speed(unit), SQRT2, 1e-12
    g = law("poisson_positive", 3.0, gaussian(0.2, 0.5), "common")
    numeric = ref._min_over_log_grid(lambda t: ref.kappa(g, t) / t)[1]
    yield ("numerical infimum matches mu + sqrt(2 V log m)", numeric,
           0.2 + math.sqrt(2 * 0.5 * math.log(3.0)), 1e-9)
    yield ("point mass speed is its value",
           ref.one_type_speed(law("deterministic", 3, {"kind": "point", "value": -0.3})),
           -0.3, 0.0)
    # binary branching, steps +-1: the infimum is only reached as theta -> inf
    pm1 = law("deterministic", 2, {"kind": "two_point", "low": -1.0, "high": 1.0,
                                   "prob_high": 0.5})
    yield "binary +-1 walk speed is 1", ref.one_type_speed(pm1), 1.0, 1e-12
    bern = law("deterministic", 2, {"kind": "two_point", "low": 0.0, "high": 1.0,
                                    "prob_high": 0.25})
    yield ("Bernoulli(1/4) steps: infimum matches the rate-function root",
           ref.one_type_speed(bern), bernoulli_speed(2.0, 0.25), 1e-9)
    for lam in (1.5, 3.0, 5.0):
        nu = law("geometric", math.exp(lam), gaussian(0.0, 1.0 / lam))
        yield (f"skeleton min-max at V=1/lam, lam={lam}", ref.two_type_speed(nu, unit),
               (1 + lam) / math.sqrt(2 * lam), 1e-10)
    yield "worked example is 4/sqrt 6", ref.skeleton_speed(3.0), 4 / math.sqrt(6), 1e-15
    nu3 = law("geometric", math.exp(3.0), gaussian(0.0, 1.0 / 3.0))
    yield "reversed worked example is sqrt 2", ref.two_type_speed(unit, nu3), SQRT2, 1e-10
    # the cumulants 3 + t^2/6 and 1 + t^2/2 cross at t = sqrt 6
    yield ("expected-numbers speed of the worked example is 4/sqrt 6",
           ref.expected_numbers_speed(nu3, unit), 4 / math.sqrt(6), 1e-10)
    yield ("expected-numbers speed is symmetric", ref.expected_numbers_speed(unit, nu3),
           ref.expected_numbers_speed(nu3, unit), 1e-12)
    xs = np.linspace(-1, 1, 201)
    yield "x^2 is convex", ref.convexity_violation(xs ** 2), 0.0, 0.0
    yield "-x^2 is not convex", ref.convexity_violation(-xs ** 2), 2 * 0.01 ** 2, 1e-15
    yield ("envelope excess ignores +inf", ref.envelope_violation(
        np.array([0.0, 1.0]), np.array([0.5, np.inf]), np.array([1.0, np.inf])), -0.5, 0.0)
    yield "binomial z", ref.binomial_z(0.6, 0.5, 100), 2.0, 1e-12
    yield ("census z of exact expectations is 0",
           ref.census_mean_z([math.e ** 20] * 9, math.e, 20), 0.0, 1e-9)
    n = np.arange(0, 801)
    curve = SQRT2 * n - 1.5 * np.log(np.maximum(n, 1)) + 0.25
    yield "log slope of n sqrt2 - 1.5 log n", ref.log_slope(curve, SQRT2, 200, 800), -1.5, 1e-9


def main() -> int:
    bad = 0
    for name, got, want, tol in cases():
        ok = abs(got - want) <= tol
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got!r} (want {want!r} +- {tol:g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
