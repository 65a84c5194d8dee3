"""Orlicz gauges, Luxemburg averages and the weak L(1+log+ L) average.

The two gauges in play are the Zygmund gauge t*(1+log+ t) and the
exponential gauge e^t - 1 (normalized so it vanishes at 0).  The gauge
integral of a step function is a finite closed-form sum per candidate
level, so the llog Luxemburg average is solved segment-exactly and only the
exp gauge bisects (to ``tol``); the weak average's inner supremum over t is
a finite exact maximum over the jump levels of the distribution function,
so it has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stepfn import Interval, StepFunction, average, combine

__all__ = [
    "OrliczGauge",
    "LLOG",
    "EXP",
    "log_plus",
    "gauge_average",
    "luxemburg_average",
    "weak_llog_average",
    "llog_functional",
    "holder_check",
    "orlicz_maximal",
]

_ABS_TOL = 1e-12
_MAX_BISECT = 200


def log_plus(t: float) -> float:
    """max(log t, 0); natural logarithm throughout."""
    return math.log(t) if t > 1.0 else 0.0


@dataclass(frozen=True)
class OrliczGauge:
    """Convex gauge with value 0 at 0; kinds: ``llog`` and ``exp``."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("llog", "exp"):
            raise ValueError(f"unknown gauge kind: {self.kind!r}")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("gauges are defined for t >= 0")
        if self.kind == "llog":
            return t * (1.0 + log_plus(t))
        return math.expm1(t)

    def apply(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "llog":
            return t * (1.0 + np.maximum(np.log(np.maximum(t, 1e-300)), 0.0))
        return np.expm1(t)


LLOG = OrliczGauge("llog")
EXP = OrliczGauge("exp")


def _clipped_cells(f: StepFunction, window: Interval) -> tuple[np.ndarray, np.ndarray]:
    """(length, |value|) arrays of the nonzero cells of f inside the window."""
    if f.is_zero:
        return np.empty(0), np.empty(0)
    b, w, _ = f._abs_arrays
    lens = np.minimum(b[1:], window.right) - np.maximum(b[:-1], window.left)
    mask = (lens > 0.0) & (w > 0.0)
    return lens[mask], w[mask]


def gauge_average(f: StepFunction, window: Interval, gauge: OrliczGauge, alpha: float) -> float:
    """Exact (1/|I|) * int_I gauge(|f| / alpha); the integrand is constant
    per cell, so the integral is a finite sum."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    lens, vals = _clipped_cells(f, window)
    if len(lens) == 0:
        return 0.0
    return float(np.sum(lens * gauge.apply(vals / alpha))) / window.length


def _luxemburg_bisection(
    lens: np.ndarray, vals: np.ndarray, area: float, gauge: OrliczGauge, tol: float
) -> float:
    """Reference bisection for inf{alpha : avg gauge(|f|/alpha) <= 1}.

    Bracket: the mean of |f| from below (gauge(t) >= t), and the essential
    sup from above for the llog gauge (gauge <= 1 on [0, 1]) or sup/ln 2
    for the exp gauge.
    """

    def g(alpha: float) -> float:
        return float(np.sum(lens * gauge.apply(vals / alpha))) / area

    mean = float(np.sum(lens * vals)) / area
    sup = float(np.max(vals))
    lo = max(mean, 1e-300)
    hi = sup if gauge.kind == "llog" else sup / math.log(2.0)
    if hi <= lo:
        hi = lo
    if g(hi) > 1.0:  # only at the degenerate boundary; widen defensively
        while g(hi) > 1.0:
            hi *= 2.0
    for _ in range(_MAX_BISECT):
        if hi - lo <= max(tol * hi, _ABS_TOL):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("luxemburg bisection failed to converge")


def _luxemburg_llog_exact(lens: np.ndarray, vals: np.ndarray, area: float) -> float:
    """Exact llog Luxemburg root via a segment scan.

    With cells sorted by value, on each segment between consecutive
    distinct values the constraint avg gauge(|f|/a) = 1 reads
    a * area = S + W - U * log a with constants S (total mass),
    U = sum of l*v over cells above the segment and W the matching
    sum of l*v*log v; the left side minus the right is increasing in a,
    so a guarded Newton step per segment is exact to rounding.
    """
    order = np.argsort(vals)[::-1]
    v = vals[order]
    lv = lens[order] * v
    s_total = float(np.sum(lv))
    cum_lv = np.concatenate(([0.0], np.cumsum(lv)))
    cum_lvlog = np.concatenate(([0.0], np.cumsum(lv * np.log(v))))
    # distinct-value boundaries: index k means cells 0..k-1 lie strictly above
    boundaries: list[tuple[float, int]] = []
    for i in range(len(v)):
        if i == 0 or v[i] != v[i - 1]:
            boundaries.append((float(v[i]), i))

    def residual(alpha: float, k: int) -> float:
        # alpha*area - (S + W_k - U_k log alpha); root where avg gauge = 1
        return alpha * area + cum_lv[k] * math.log(alpha) - (s_total + cum_lvlog[k])

    # find the segment containing the root (residual <= 0 iff avg gauge >= 1)
    root_seg_k = len(v)  # default: below the smallest value
    prev_boundary = math.inf
    for d, k in boundaries:
        if residual(d, k) <= 0.0:
            # root is at or above this boundary, inside the segment above it
            root_seg_k = k
            lo, hi = d, prev_boundary
            break
        prev_boundary = d
    else:
        lo, hi = 1e-300, boundaries[-1][0] if boundaries else 1.0
        root_seg_k = len(v)
    if not math.isfinite(hi):
        # above the largest value U = 0: alpha = mean exactly
        return s_total / area
    k = root_seg_k
    # guarded Newton on the increasing residual
    a = min(max(s_total / area, lo), hi)
    for _ in range(80):
        r = residual(a, k)
        d = area + cum_lv[k] / a
        step = r / d
        new = a - step
        if not (lo <= new <= hi):
            new = 0.5 * (lo + hi)
        if r > 0:
            hi = a
        else:
            lo = a
        if abs(new - a) <= 1e-16 * max(a, 1.0):
            return new
        a = new
    return a


def luxemburg_average(
    f: StepFunction, window: Interval, gauge: OrliczGauge = LLOG, tol: float = 1e-9
) -> float:
    """inf{alpha > 0 : gauge_average(f, I, gauge, alpha) <= 1}.

    The infimum is the root of the decreasing gauge-average constraint.
    For the llog gauge the root is solved segment-exactly (the constraint
    is closed-form between consecutive data values); the exp gauge falls
    back to bisection on the bracket [mean, sup/ln 2].  Returns 0 when f
    vanishes a.e. on the window; the result is within ``tol`` either way.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lens, vals = _clipped_cells(f, window)
    if len(lens) == 0:
        return 0.0
    area = window.length
    if gauge.kind == "llog":
        return _luxemburg_llog_exact(lens, vals, area)
    return _luxemburg_bisection(lens, vals, area, gauge, tol)


def _weak_level_data(f: StepFunction, window: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values v_k of |f| on the window with left-limit measures
    mu_k = |{|f| >= v_k} cap I|, the levels realizing the weak average's
    inner supremum."""
    lens, vals = _clipped_cells(f, window)
    if len(lens) == 0:
        return np.empty(0), np.empty(0)
    uniq, inv = np.unique(vals, return_inverse=True)
    sums = np.bincount(inv, weights=lens)
    levels = uniq[::-1]
    mus = np.cumsum(sums[::-1])
    return levels, mus


def weak_llog_average(f: StepFunction, window: Interval) -> float:
    """Weak L(1+log+ L) average: inf{alpha : S(alpha) <= 1} where S is the
    supremum over t of the superlevel fraction against (1/t)(1+log+(1/t)).

    For a step function the superlevel measure jumps only at t = v_k/alpha
    and the ratio increases between jumps, so S is the exact finite maximum
    over the jump levels with left-limit measures mu_k = |{|f| >= v_k} cap I|.
    Each term solves to 1 in closed form: with m = mu_k/|I| <= 1 the branch
    alpha <= v_k gives alpha = m v_k, and the branch alpha > v_k has no
    root (the left side drops below 1 while the right side exceeds it).  S
    is nonincreasing in alpha, so the infimum is the largest of those
    roots:  max_k v_k |{|f| >= v_k} cap I| / |I|, exact to rounding.
    """
    levels, mus = _weak_level_data(f, window)
    if len(levels) == 0:
        return 0.0
    return float(np.max(levels * mus)) / window.length


def llog_functional(f: StepFunction, window: Interval) -> float:
    """Exact (1/|I|) * int_I |f| (1 + log+(|f| / mean_I |f|)); 0 when f
    vanishes on the window."""
    lens, vals = _clipped_cells(f, window)
    if len(lens) == 0:
        return 0.0
    mean = float(np.sum(lens * vals)) / window.length
    terms = vals * (1.0 + np.maximum(np.log(vals / mean), 0.0))
    return float(np.sum(lens * terms)) / window.length


def holder_check(
    f: StepFunction, h: StepFunction, window: Interval, tol: float = 1e-10
) -> tuple[float, float]:
    """Two sides of the generalized Holder inequality on the window:
    mean |f h| against the product of the llog and exp Luxemburg averages.

    With Luxemburg gauges on both sides the sharp constant is 2, not 1:
    pairs concentrated on a small fraction theta of the window reach
    ratios log(1 + 1/theta) / (1 + log u(theta)) slightly above 1 (about
    1.16 at theta ~ 6e-4).  Generic pairs stay below 1; callers asserting
    the constant-1 form should do so on a fixed corpus and keep the
    factor-2 bound as the always-valid fallback.
    """
    prod = combine(f, h, lambda a, b: a * b)
    lhs = average(prod.abs(), window)
    rhs = luxemburg_average(f, window, LLOG, tol) * luxemburg_average(h, window, EXP, tol)
    return lhs, rhs


def orlicz_maximal(
    f: StepFunction,
    gauge: OrliczGauge,
    x: float,
    family,
    tol: float = 1e-9,
) -> float:
    """Family-restricted Orlicz maximal function: the best Luxemburg average
    over family intervals containing x (a lower bound of the full sup).

    ``family`` may be a FamilySpec (resolved against f) or an already
    resolved family.
    """
    if f.is_zero:
        return 0.0
    if not hasattr(family, "intervals_containing"):
        from .families import resolve_family

        family = resolve_family(family, f, extra_points=(x,))
    best = 0.0
    for q in family.intervals_containing(x):
        best = max(best, luxemburg_average(f, q, gauge, tol))
    return best
