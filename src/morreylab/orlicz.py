"""Orlicz gauges, Luxemburg averages and the weak L(1+log+ L) average.

The two gauges in play are the Zygmund gauge t*(1+log+ t) and the
exponential gauge e^t - 1 (normalized so it vanishes at 0).  The gauge
integral of a step function is a finite closed-form sum, so both
Luxemburg averages are roots of explicit functions, each reached by a
monotone Newton iteration that needs no bracket and no tolerance; the
weak average's inner supremum over t is a finite exact maximum over the
jump levels of the distribution function, so it has a closed form.

The llog root.  On a window Q let S = int_Q |f| and, for a > 0,
U(a) = sum of l_v v and W(a) = sum of l_v v log v over the values v > a
of |f|, with l_v = |{|f| = v} cap Q|.  Then avg_Q gauge(|f|/a) = 1 reads
R(a) = a |Q| + U log a - (S + W) = 0.  R is continuous and increasing,
and R(a) <= 0 iff the root is at least a, so the root lies in the segment
above the largest value v with R(v) <= 0 (below the smallest value if
there is none).  On that segment U and W are constant and R is concave,
so its tangent lies above it: a Newton step from below the root lands
below it again.  Started from max(segment floor, mean_Q |f|), both at
most the root as gauge(t) >= t, the iterates rise monotonically, and the
solve stops when they stop rising; no bracket or guard is needed.

The exp root.  With cells of length l_i and value v_i on Q, put s = 1/alpha
and G(s) = sum l_i expm1(v_i s) / |Q| - 1, which is convex and increasing;
the Luxemburg average is 1/s at the root of G.  Start from

    s0 = min(|Q| / int_Q |f|,  min_i log1p(|Q| / l_i) / v_i).

Each term alone forces G >= 0: at the first, sum l_i expm1(v_i s) >=
s int_Q |f| = |Q|; at the i-th of the second, cell i alone contributes
|Q|.  So s0 is at or above the root, and every exponent v_i s0 is at most
log1p(|Q| / l_i), so nothing overflows.  A Newton step from above a root
of a convex increasing function lands above it again, so the iterates
fall monotonically; the solve stops when they stop falling and returns
1/s.

Two llog solvers exist, chosen by call shape.  ``luxemburg_average`` solves
one window in scalar arithmetic over its cells.  ``_llog_rows`` solves a
whole interval family at once over the level sweep
(``stepfn.level_measures``), the same sweep folding in the llog
functional with threshold mean_Q.  On one window of a 12-cell input the
array form costs about three times the scalar one, so one-window callers
(the Holder suite, the oracles in the tests) keep the scalar solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import ResolvedFamily, resolve_family
from .stepfn import (Interval, StepFunction, average, combine, level_measures, superlevels, window_integrals,
                     window_split)

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


def _luxemburg_exp_exact(lens: np.ndarray, vals: np.ndarray, area: float) -> float:
    """Exp-gauge Luxemburg root of one window: Newton in s = 1/alpha,
    falling monotonically onto the root from an overflow-free start
    (module docstring)."""
    lv = lens * vals
    s = min(area / float(np.sum(lv)), float(np.min(np.log1p(area / lens) / vals)))
    while True:
        em = np.expm1(vals * s)
        new = s - (float(np.sum(lens * em)) - area) / float(np.sum(lv * (em + 1.0)))
        if not new < s:
            return 1.0 / s
        s = new


def _luxemburg_llog_exact(lens: np.ndarray, vals: np.ndarray, area: float) -> float:
    """Exact llog Luxemburg root of one window: a segment search, then
    Newton climbing monotonically to the root (module docstring)."""
    order = np.argsort(vals)[::-1]
    v = vals[order]
    lv = lens[order] * v
    s_total = float(np.sum(lv))
    cum_lv = np.concatenate(([0.0], np.cumsum(lv)))
    cum_lvlog = np.concatenate(([0.0], np.cumsum(lv * np.log(v))))
    # first cell of each distinct value: cells 0..k-1 lie strictly above v[k]
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    resid = v[starts] * area + cum_lv[starts] * np.log(v[starts]) - (s_total + cum_lvlog[starts])
    hit = np.flatnonzero(resid <= 0.0)
    k, floor = (int(starts[hit[0]]), float(v[starts[hit[0]]])) if len(hit) else (len(v), 0.0)
    u, c = float(cum_lv[k]), s_total + float(cum_lvlog[k])
    a = max(floor, s_total / area)
    while True:
        new = a - (a * area + u * math.log(a) - c) / (area + u / a)
        if not new > a:
            return a
        a = new


def _llog_rows(f: StepFunction, lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(llog Luxemburg average, llog functional) of f over every interval
    (l, r) at once, both folded over one level sweep (module docstring)."""
    lux, func = np.zeros(len(lefts)), np.zeros(len(lefts))
    b, w, prefix = f._abs_arrays
    mass = window_integrals(w, prefix, window_split(b, lefts, rights))
    live = np.flatnonzero(mass > 0.0)
    lefts, rights, mass = lefts[live], rights[live], mass[live]
    area = rights - lefts
    mean = mass / area
    acc, u_run, w_run, u, c, floor = (np.zeros(len(live)) for _ in range(6))
    found = np.zeros(len(live), dtype=bool)
    for v, meas in level_measures(f, lefts, rights):
        if v == 0.0:
            break
        lv, logv = meas * v, math.log(v)
        acc += lv * (1.0 + np.maximum(np.log(v / mean), 0.0))
        hit = ~found & (v * area + u_run * logv - (mass + w_run) <= 0.0)
        floor[hit], u[hit], c[hit] = v, u_run[hit], w_run[hit]
        found |= hit
        u_run += lv
        w_run += lv * logv
    u[~found], c[~found] = u_run[~found], w_run[~found]
    c += mass
    a = np.maximum(floor, mean)
    while True:
        new = a - (a * area + u * np.log(a) - c) / (area + u / a)
        up = new > a
        if not up.any():
            break
        a = np.where(up, new, a)
    lux[live], func[live] = a, acc / area
    return lux, func


def luxemburg_average(f: StepFunction, window: Interval, gauge: OrliczGauge = LLOG) -> float:
    """inf{alpha > 0 : gauge_average(f, I, gauge, alpha) <= 1}, the root of
    the decreasing gauge-average constraint, solved by a monotone Newton
    iteration with no bracket for either gauge: rising onto the llog root
    from below, falling onto the exp root in s = 1/alpha from a start
    where no exponent can overflow (module docstring).  Returns 0 when f
    vanishes a.e. on the window."""
    lens, vals = _clipped_cells(f, window)
    if len(lens) == 0:
        return 0.0
    area = window.length
    if gauge.kind == "llog":
        return _luxemburg_llog_exact(lens, vals, area)
    return _luxemburg_exp_exact(lens, vals, area)


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
    lens, vals = _clipped_cells(f, window)
    if len(lens) == 0:
        return 0.0
    levels, mus = superlevels(lens, vals)
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


def holder_check(f: StepFunction, h: StepFunction, window: Interval) -> tuple[float, float]:
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
    rhs = luxemburg_average(f, window, LLOG) * luxemburg_average(h, window, EXP)
    return lhs, rhs


def orlicz_maximal(f: StepFunction, x: float, family) -> float:
    """Family-restricted llog Orlicz maximal function: the best llog
    Luxemburg average over family intervals containing x (a lower bound of
    the full sup), from the level sweep over the endpoint arrays.

    ``family`` may be a FamilySpec (resolved against f) or an already
    resolved family.
    """
    if f.is_zero:
        return 0.0
    if not isinstance(family, ResolvedFamily):
        family = resolve_family(family, f, extra_points=(x,))
    on = (family.lefts <= x) & (x <= family.rights)
    return float(np.max(_llog_rows(f, family.lefts[on], family.rights[on])[0], initial=0.0))
