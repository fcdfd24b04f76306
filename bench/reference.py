"""Reference computations for the benchmark's output checks.

Everything here is computed apart from brwlab: from the plain law
dictionaries the benchmark writes into its CLI configs, with numpy
only.  Each function either gives a closed form, an independent
numerical route to the same quantity, or a statistic whose law is
known, so a check never compares the program with a copy of its own
earlier output.

Law dictionaries have the CLI schema: ``{"offspring", "mean",
"displacement": {"kind", ...}, "mechanism"}``.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def log_mgf(disp: dict, theta: float) -> float:
    """log E exp(theta X) for a displacement dictionary."""
    kind = disp["kind"]
    if kind == "gaussian":
        return theta * disp["mean"] + 0.5 * disp["variance"] * theta * theta
    if kind == "point":
        return theta * disp["value"]
    p = disp["prob_high"]
    a = theta * disp["low"] + math.log1p(-p)
    b = theta * disp["high"] + math.log(p)
    hi = max(a, b)
    return hi + math.log(math.exp(a - hi) + math.exp(b - hi))


def kappa(law: dict, theta: float) -> float:
    """Cumulant log E sum_i exp(theta z_i) = log E N + log E exp(theta X).

    Both mechanisms share it, since the intensity measure factorizes.
    """
    return math.log(law["mean"]) + log_mgf(law["displacement"], theta)


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-13):
    """Minimize a unimodal scalar function on [lo, hi]; returns (x, f(x))."""
    x1, x2 = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol * max(1.0, abs(hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = fun(x2)
    xm = 0.5 * (lo + hi)
    return xm, fun(xm)


def _min_over_log_grid(fun, lo: float = 1e-4, hi: float = 1e6, points: int = 2001):
    """Minimum of a unimodal function of t > 0: a log-spaced scan, then golden
    section on log t inside the best cell.  Returns (t, value, at_top) where
    ``at_top`` says the scan was still falling at ``hi``."""
    ts = np.geomspace(lo, hi, points)
    vals = np.array([fun(t) for t in ts])
    j = int(np.argmin(vals))
    a = math.log(ts[max(j - 1, 0)])
    b = math.log(ts[min(j + 1, points - 1)])
    u, v = _golden_min(lambda s: fun(math.exp(s)), a, b)
    return math.exp(u), v, j == points - 1


def one_type_speed(law: dict) -> float:
    """Spreading speed inf_{theta > 0} kappa(theta) / theta.

    Gaussian steps: mu + sqrt(2 V log m).  A point mass: its value (the
    ratio log m / theta + value falls to it).  Otherwise the infimum is
    found numerically; a two-point law whose ratio still falls at the
    end of the scan has its infimum at theta -> inf, the upper step.
    """
    disp = law["displacement"]
    if disp["kind"] == "gaussian":
        return disp["mean"] + math.sqrt(2.0 * disp["variance"] * math.log(law["mean"]))
    if disp["kind"] == "point":
        return float(disp["value"])
    _, value, at_top = _min_over_log_grid(lambda t: kappa(law, t) / t)
    return float(disp["high"]) if at_top else value


def _gaussian_ratio(law: dict):
    """kappa(t)/t and its minimizer sqrt(2 log m / V) for Gaussian steps."""
    d = law["displacement"]
    log_m, mu, v = math.log(law["mean"]), d["mean"], d["variance"]
    return (lambda t: log_m / t + mu + 0.5 * v * t), math.sqrt(2.0 * log_m / v)


def two_type_speed(nu: dict, eta: dict) -> float:
    """Terminal-class speed inf over 0 < s <= t of max(k_nu(s)/s, k_eta(t)/t).

    Gaussian steps only.  The inner minimum over s <= t is the nu ratio
    at min(t, its minimizer); the outer function, the maximum of a
    nonincreasing and a unimodal function, is unimodal in t.
    """
    r_nu, s_star = _gaussian_ratio(nu)
    r_eta, _ = _gaussian_ratio(eta)
    _, value, _ = _min_over_log_grid(lambda t: max(r_nu(min(t, s_star)), r_eta(t)))
    return value


def skeleton_speed(lam: float) -> float:
    """Anomalous speed (1 + lam) / sqrt(2 lam) of the skeleton at V = 1/lam."""
    return (1.0 + lam) / math.sqrt(2.0 * lam)


def expected_numbers_speed(nu: dict, eta: dict) -> float:
    """inf_t max(k_nu(t), k_eta(t)) / t: the crossing of the conjugate of the
    larger cumulant, which is the convex envelope of the two rate functions."""
    r_nu, _ = _gaussian_ratio(nu)
    r_eta, _ = _gaussian_ratio(eta)
    _, value, _ = _min_over_log_grid(lambda t: max(r_nu(t), r_eta(t)))
    return value


def envelope_violation(cv, f, g) -> float:
    """Largest amount by which cv exceeds min(f, g) (+inf entries never bind)."""
    m = np.minimum(f, g)
    fin = np.isfinite(m)
    return float(np.max(cv[fin] - m[fin])) if fin.any() else 0.0


def convexity_violation(ys) -> float:
    """Largest negative second difference of values on a uniform grid."""
    d2 = np.diff(np.asarray(ys, dtype=float), 2)
    return float(max(0.0, -d2.min())) if d2.size else 0.0


def binomial_z(p_hat: float, q: float, samples: int) -> float:
    """z-score of an empirical frequency against probability q."""
    se = math.sqrt(max(q * (1.0 - q), 1e-12) / samples)
    return (p_hat - q) / se


def census_mean_z(totals, mean: float, n: int) -> float:
    """z-score of the replicate mean of Z_n / m^n against its expectation 1.

    For geometric families of mean m the offspring variance is m (m - 1),
    so Var(Z_n / m^n) = sigma^2 (1 - m^-n) / (m (m - 1)) = 1 - m^-n.
    """
    w = np.asarray(totals, dtype=float) / mean ** n
    sd = math.sqrt(1.0 - mean ** -n)
    return float((w.mean() - 1.0) * math.sqrt(w.size) / sd)


def log_slope(curve, speed: float, lo: int, hi: int) -> float:
    """Least-squares slope of curve[n] - n * speed against log n over [lo, hi]."""
    n = np.arange(lo, hi + 1)
    y = np.asarray(curve, dtype=float)[lo:hi + 1] - n * speed
    return float(np.polyfit(np.log(n), y, 1)[0])
