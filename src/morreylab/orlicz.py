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

Row form.  Every one-window quantity is computed for k (function, window)
pairs at once over padded (k, m) arrays: row i holds the cells of |f_i|
clipped to window i (``_window_rows``), and a single call serves one pair
or a whole suite.  A padded cell, a cell clipped out of its window and a
cell where f vanishes all get length 0 and repeat the largest value of
their row, so padding adds no level, no log or division sees 0, and no
exponent exceeds the row's own.  The Newton iterations run on all rows at
once, and each row keeps its last iterate once its step stops rising
(llog) or falling (exp); a stopped row's step is recomputed unchanged, so
it stays frozen exactly where the one-row iteration would return.  Both
roots, the llog functional and the weak average are positively homogeneous,
so each row is solved scaled by the power of two 2^-e that brings its
largest value into [1/2, 1) and the result is scaled back by 2^e: powers of
two are exact, and values near the ends of the float range neither
underflow nor overflow inside the solve.  The mean of |f h| over each
window merges both functions' breakpoints, clipped to the window, in one
sort; its cost is linear in the breakpoints, up to the sort.

``_llog_rows`` solves one function over a whole interval family instead,
by the level sweep (``stepfn.level_measures``), which holds O(family) memory
per level and folds in the llog functional with threshold mean_Q; it runs
unscaled and shares the Newton climb ``_llog_climb`` with the row form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from itertools import chain
from typing import Sequence

import numpy as np

from .families import ResolvedFamily, resolve_family
from .stepfn import Interval, StepFunction, level_measures, window_integrals, window_split

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


def _window_rows(fs: Sequence[StepFunction], lefts: np.ndarray,
                 rights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lens, vals, area): row i holds the cells of |f_i| clipped to the
    window (lefts[i], rights[i]), padded to the longest row, and area[i] is
    the window's length.  A padded, clipped-out or zero cell has length 0
    and repeats its row's largest value (0 on a row with no cell)."""
    m = max(max(len(f.values) for f in fs), 1)
    b = np.array([f.breakpoints + f.breakpoints[-1:] * (m - len(f.values)) for f in fs])
    w = np.abs(np.array([f.values + (0.0,) * (m - len(f.values)) for f in fs]))
    lens = np.minimum(b[:, 1:], rights[:, None]) - np.maximum(b[:, :-1], lefts[:, None])
    on = (lens > 0.0) & (w > 0.0)
    top = (w * on).max(axis=1)
    return np.where(on, lens, 0.0), np.where(on, w, top[:, None]), rights - lefts


def _one_window(f: StepFunction, window: Interval) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single row of f on the window."""
    return _window_rows([f], np.array([window.left]), np.array([window.right]))


def _scaled(solve):
    """The row form solve(lens, vals, area), positively homogeneous of degree
    one in vals, run on every row with a cell, each row scaled by 2^-e with e
    the binary exponent of its largest value and the result scaled back by
    2^e (module docstring); 0 on rows with no cell, whose values are all 0."""

    @wraps(solve)
    def rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray) -> np.ndarray:
        top = vals.max(axis=1)
        if not top.all():
            out, live = np.zeros(len(area)), top > 0.0
            if live.any():
                out[live] = rows(lens[live], vals[live], area[live])
            return out
        e = np.frexp(top)[1]
        vals = np.ldexp(vals, -e[:, None])
        gone = vals == 0.0  # over 2^1074 below the row's largest: negligible, so dropped like a zero cell
        if gone.any():
            lens, vals = np.where(gone, 0.0, lens), np.where(gone, vals.max(axis=1)[:, None], vals)
        return np.ldexp(solve(lens, vals, area), e)

    return rows


def _descending(lens: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (lens, vals) by value, largest first."""
    k, m = vals.shape
    at = vals.argsort(axis=1)[:, ::-1] + (np.arange(k) * m)[:, None]
    return lens.take(at), vals.take(at)


def _gauge_rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray, gauge: OrliczGauge,
                alpha: np.ndarray) -> np.ndarray:
    """gauge_average of every row at its own alpha > 0."""
    return (lens * gauge.apply(vals / alpha[:, None])).sum(axis=1) / area


def gauge_average(f: StepFunction, window: Interval, gauge: OrliczGauge, alpha: float) -> float:
    """Exact (1/|I|) * int_I gauge(|f| / alpha); the integrand is constant
    per cell, so the integral is a finite sum."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return float(_gauge_rows(*_one_window(f, window), gauge, np.array([alpha]))[0])


def _llog_climb(a: np.ndarray, area: np.ndarray, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Newton on R(a) = a area + u log a - c from a start at or below the
    root, rising monotonically onto it (module docstring); a row whose step
    stops rising keeps its last iterate, as fmax returns it there."""
    while True:
        new = a - (a * area + u * np.log(a) - c) / (area + u / a)
        if not np.count_nonzero(new > a):
            return a
        a = np.fmax(new, a)


@_scaled
def _llog_root_rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray) -> np.ndarray:
    """llog Luxemburg root of every row: the segment search over the row's
    distinct values, then the Newton climb (module docstring)."""
    lens, v = _descending(lens, vals)
    lv, logv = lens * v, np.log(v)
    k, m = v.shape
    # column m stands for the segment below every value: floor 0, all cells above
    cum_lv, cum_lvlog, floor = np.zeros((3, k, m + 1))
    floor[:, :m] = v
    np.add.accumulate(lv, axis=1, out=cum_lv[:, 1:])
    np.add.accumulate(lv * logv, axis=1, out=cum_lvlog[:, 1:])
    s_total = lv.sum(axis=1)
    hit = np.ones((k, m + 1), dtype=bool)
    resid = v * area[:, None] + cum_lv[:, :-1] * logv - (s_total[:, None] + cum_lvlog[:, :-1])
    np.less_equal(resid, 0.0, out=hit[:, :m])
    # only where a run of equal values starts at j do the cells before j lie strictly above v[j]
    hit[:, 1:m] &= v[:, 1:] != v[:, :-1]
    seg = hit.argmax(axis=1) + np.arange(k) * (m + 1)
    u, c = cum_lv.take(seg), s_total + cum_lvlog.take(seg)
    return _llog_climb(np.maximum(floor.take(seg), s_total / area), area, u, c)


@_scaled
def _exp_root_rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Exp-gauge Luxemburg root of every row: Newton in s = 1/alpha, falling
    monotonically onto the root from an overflow-free start (module
    docstring)."""
    lv = lens * vals
    ratio = np.full(lens.shape, np.inf)
    np.divide(area[:, None], lens, out=ratio, where=lens > 0.0)
    s = np.minimum(area / lv.sum(axis=1), (np.log1p(ratio) / vals).min(axis=1))
    while True:
        em = np.expm1(vals * s[:, None])
        new = s - ((lens * em).sum(axis=1) - area) / (lv * (em + 1.0)).sum(axis=1)
        if not np.count_nonzero(new < s):
            return 1.0 / s
        s = np.fmin(new, s)


def _luxemburg_rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray, gauge: OrliczGauge) -> np.ndarray:
    """luxemburg_average of every row."""
    return (_llog_root_rows if gauge.kind == "llog" else _exp_root_rows)(lens, vals, area)


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
    log_mean = np.log(mean)  # v / mean can overflow, where a window missing v would add 0 * inf
    acc, u_run, w_run, u, c, floor = (np.zeros(len(live)) for _ in range(6))
    found = np.zeros(len(live), dtype=bool)
    for v, meas in level_measures(f, lefts, rights):
        if v == 0.0:
            break
        lv, logv = meas * v, math.log(v)
        acc += lv * (1.0 + np.maximum(logv - log_mean, 0.0))
        hit = ~found & (v * area + u_run * logv - (mass + w_run) <= 0.0)
        floor[hit], u[hit], c[hit] = v, u_run[hit], w_run[hit]
        found |= hit
        u_run += lv
        w_run += lv * logv
    u[~found], c[~found] = u_run[~found], w_run[~found]
    c += mass
    lux[live], func[live] = _llog_climb(np.maximum(floor, mean), area, u, c), acc / area
    return lux, func


def luxemburg_average(f: StepFunction, window: Interval, gauge: OrliczGauge = LLOG) -> float:
    """inf{alpha > 0 : gauge_average(f, I, gauge, alpha) <= 1}, the root of
    the decreasing gauge-average constraint, solved by a monotone Newton
    iteration with no bracket for either gauge: rising onto the llog root
    from below, falling onto the exp root in s = 1/alpha from a start
    where no exponent can overflow (module docstring).  Returns 0 when f
    vanishes a.e. on the window."""
    return float(_luxemburg_rows(*_one_window(f, window), gauge)[0])


@_scaled
def _weak_llog_rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray) -> np.ndarray:
    """weak_llog_average of every row, max_k v_k |{|f| >= v_k}| / |I|: over
    the values in descending order, each value times the running length."""
    lens, v = _descending(lens, vals)
    return (v * np.add.accumulate(lens, axis=1)).max(axis=1) / area


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
    return float(_weak_llog_rows(*_one_window(f, window))[0])


@_scaled
def _llog_functional_rows(lens: np.ndarray, vals: np.ndarray, area: np.ndarray) -> np.ndarray:
    """llog_functional of every row."""
    mean = (lens * vals).sum(axis=1) / area
    terms = vals * (1.0 + np.maximum(np.log(vals / mean[:, None]), 0.0))
    return (lens * terms).sum(axis=1) / area


def llog_functional(f: StepFunction, window: Interval) -> float:
    """Exact (1/|I|) * int_I |f| (1 + log+(|f| / mean_I |f|)); 0 when f
    vanishes on the window."""
    return float(_llog_functional_rows(*_one_window(f, window))[0])


def _llog_summary_rows(fs: Sequence[StepFunction], lefts: np.ndarray,
                       rights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lux, resid, func, weak) of every (f_i, window i): the llog Luxemburg
    average, the llog gauge average at it minus 1, the llog functional and
    the weak llog average.  resid and func are 0 where lux is 0."""
    rows = _window_rows(fs, lefts, rights)
    lux = _luxemburg_rows(*rows, LLOG)
    on = lux > 0.0
    live = [r[on] for r in rows]
    resid, func = np.zeros(len(lux)), np.zeros(len(lux))
    resid[on] = _gauge_rows(*live, LLOG, lux[on]) - 1.0
    func[on] = _llog_functional_rows(*live)
    return lux, resid, func, _weak_llog_rows(*rows)


def _breakpoints(fs: Sequence[StepFunction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every breakpoint x of every f_i: its row i, x itself and the value
    of |f_i| from x on (0 from the last one)."""
    sizes = np.fromiter((len(f.breakpoints) for f in fs), int, len(fs))
    row = np.repeat(np.arange(len(fs)), sizes)
    x = np.fromiter(chain.from_iterable(f.breakpoints for f in fs), float, len(row))
    v = np.fromiter(chain.from_iterable(f.values + (0.0,) for f in fs), float, len(row))
    return row, x, np.abs(v)


def _mean_abs_product(fs: Sequence[StepFunction], hs: Sequence[StepFunction], lefts: np.ndarray,
                      rights: np.ndarray) -> np.ndarray:
    """mean of |f_i h_i| over every window (lefts[i], rights[i]).

    Each breakpoint sets the value of its own function from there on.  Per
    row, a sentinel at the window's left end sets both to 0; then all
    breakpoints, clipped to the window, are merged by one stable sort on
    (row, x), each function's value is carried forward from its own last
    breakpoint, and the products over the segments between consecutive
    points are summed per row.  Equal points of different functions may
    come in either order, as the segments between them have length 0; but
    the breakpoints of one function clipped to the left end share its x,
    and the last of them sets the value carried into the first segment, so
    the sort must be stable: the sentinel first, and each function's
    clipped breakpoints in their input order.  Memory and time are linear
    in the breakpoints, up to the sort."""
    k = len(fs)
    row_f, x_f, v_f = _breakpoints(fs)
    row_h, x_h, v_h = _breakpoints(hs)
    row = np.concatenate((np.arange(k), row_f, row_h))
    x = np.concatenate((lefts, x_f, x_h))
    val = np.concatenate((np.zeros(k), v_f, v_h))
    # kind 0 is the sentinel, 1 a breakpoint of f_i, 2 one of h_i
    kind = np.concatenate((np.zeros(k, dtype=np.int8), np.ones(len(row_f), dtype=np.int8),
                           np.full(len(row_h), 2, dtype=np.int8)))
    x = np.minimum(np.maximum(x, lefts[row]), rights[row])
    order = np.lexsort((x, row))
    row, x, val, kind = row[order], x[order], val[order], kind[order]
    at = np.arange(len(row))
    f_now = val[np.maximum.accumulate(np.where(kind != 2, at, 0))]
    h_now = val[np.maximum.accumulate(np.where(kind != 1, at, 0))]
    seg = np.where(row[1:] == row[:-1], x[1:] - x[:-1], 0.0)
    return np.bincount(row[:-1], weights=f_now[:-1] * h_now[:-1] * seg, minlength=k) / (rights - lefts)


def _holder_rows(fs: Sequence[StepFunction], hs: Sequence[StepFunction], lefts: np.ndarray,
                 rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """holder_check of every (f_i, h_i, window i)."""
    rhs = (_luxemburg_rows(*_window_rows(fs, lefts, rights), LLOG)
           * _luxemburg_rows(*_window_rows(hs, lefts, rights), EXP))
    return _mean_abs_product(fs, hs, lefts, rights), rhs


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
    lhs, rhs = _holder_rows([f], [h], np.array([window.left]), np.array([window.right]))
    return float(lhs[0]), float(rhs[0])


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
