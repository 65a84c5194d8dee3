"""Compactly supported piecewise-constant functions with exact arithmetic.

A :class:`StepFunction` is determined by a strictly increasing breakpoint
sequence ``x0 < x1 < ... < xm`` and one value per cell ``(x_i, x_{i+1})``;
the function vanishes outside ``[x0, xm]``.  Every operation here (integral,
measure, rearrangement) is a finite exact sum, so downstream operators can
be evaluated without discretization error.

Values at breakpoints are irrelevant to all integral/measure operations;
pointwise evaluation at a breakpoint returns the right cell's value by fiat.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Interval",
    "StepFunction",
    "EnvelopePair",
    "integrate",
    "average",
    "combine",
    "pos_neg_parts",
    "distribution",
    "rearrangement",
    "double_star",
    "default_hull",
]


@dataclass(frozen=True)
class Interval:
    """Nonempty open interval (the one-dimensional cube)."""

    left: float
    right: float

    def __post_init__(self) -> None:
        left, right = float(self.left), float(self.right)
        if not (math.isfinite(left) and math.isfinite(right)):
            raise ValueError("interval endpoints must be finite")
        if not left < right:
            raise ValueError(f"empty interval: ({left}, {right})")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def length(self) -> float:
        return self.right - self.left

    def expanded(self, margin: float) -> "Interval":
        return Interval(self.left - margin, self.right + margin)

    def as_tuple(self) -> tuple[float, float]:
        return (self.left, self.right)


def _canonical(breakpoints: list[float], values: list[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # merge adjacent cells sharing a value, then trim zero-valued boundary cells
    if values and values[0] != 0.0 and values[-1] != 0.0 and all(map(operator.ne, values, islice(values, 1, None))):
        return tuple(breakpoints), tuple(values)
    bp: list[float] = [breakpoints[0]]
    vals: list[float] = []
    for i, v in enumerate(values):
        if vals and v == vals[-1]:
            bp[-1] = breakpoints[i + 1]
        else:
            vals.append(v)
            bp.append(breakpoints[i + 1])
    while vals and vals[0] == 0.0:
        vals.pop(0)
        bp.pop(0)
    while vals and vals[-1] == 0.0:
        vals.pop()
        bp.pop()
    if not vals:
        return (0.0,), ()
    return tuple(bp), tuple(vals)


def _floats(a: Sequence[float]) -> list[float]:
    # an array converts in one C call; float() on each of its elements costs
    # about five times as much
    return np.asarray(a, dtype=float).tolist() if isinstance(a, np.ndarray) else list(map(float, a))


@dataclass(frozen=True, init=False)
class StepFunction:
    """Canonical piecewise-constant function; immutable and hashable.

    Canonical form: no two adjacent cells share a value and no boundary cell
    is zero.  The zero function is represented by a single breakpoint and no
    cells.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = _floats(breakpoints) or [0.0]
        vals = _floats(values)
        if len(vals) != len(bp) - 1:
            raise ValueError("values must have one entry per cell")
        if not all(map(math.isfinite, bp)):
            raise ValueError("breakpoints must be finite")
        if not all(map(math.isfinite, vals)):
            raise ValueError("values must be finite")
        if not all(map(operator.lt, bp, islice(bp, 1, None))):
            raise ValueError("breakpoints must be strictly increasing")
        cbp, cvals = _canonical(bp, vals)
        object.__setattr__(self, "breakpoints", cbp)
        object.__setattr__(self, "values", cvals)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls((0.0,), ())

    @classmethod
    def indicator(cls, left: float, right: float, height: float = 1.0) -> "StepFunction":
        return cls((left, right), (height,))

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.values

    @property
    def num_cells(self) -> int:
        return len(self.values)

    def support_hull(self) -> Interval | None:
        """Smallest interval containing the support; None for the zero function."""
        if self.is_zero:
            return None
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    def cells(self) -> Iterator[tuple[float, float, float]]:
        for i, v in enumerate(self.values):
            yield self.breakpoints[i], self.breakpoints[i + 1], v

    def __call__(self, x: float) -> float:
        i = bisect.bisect_right(self.breakpoints, x) - 1
        if i < 0 or i >= len(self.values):
            return 0.0
        return self.values[i]

    def sup_abs(self) -> float:
        return self._sup_abs

    @cached_property
    def _sup_abs(self) -> float:
        return float(self._abs_arrays[1].max()) if self.values else 0.0

    # -- derived functions --------------------------------------------

    def abs(self) -> "StepFunction":
        return StepFunction(self.breakpoints, tuple(abs(v) for v in self.values))

    def scale(self, c: float) -> "StepFunction":
        if c == 0.0 or self.is_zero:
            return StepFunction.zero()
        return StepFunction(self.breakpoints, tuple(c * v for v in self.values))

    def dilate(self, s: float) -> "StepFunction":
        """x -> f(x / s) for s > 0 (support stretches by s)."""
        if s <= 0:
            raise ValueError("dilation factor must be positive")
        if self.is_zero:
            return self
        return StepFunction(tuple(b * s for b in self.breakpoints), self.values)

    def translate(self, dx: float) -> "StepFunction":
        if self.is_zero:
            return self
        return StepFunction(tuple(b + dx for b in self.breakpoints), self.values)

    # -- cached numeric arrays (hot paths) -----------------------------

    @cached_property
    def _abs_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(breakpoints, |value| per cell, prefix integrals of |f|)."""
        b = np.asarray(self.breakpoints, dtype=float)
        w = np.abs(np.asarray(self.values, dtype=float))
        prefix = np.concatenate(([0.0], np.cumsum(w * np.diff(b)))) if len(w) else np.zeros(1)
        return b, w, prefix

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2n chord ends of :attr:`stepfn.StepFunction._hull_tree` and
        :attr:`stepfn.StepFunction._chord_table` as (xs, ys): nodes 0..n-1
        are the points (b, P), the breakpoints and prefix integrals of |f|,
        and nodes n..2n-1 the points (-b, -P) in reverse, so that each half
        runs left to right."""
        b, _, prefix = self._abs_arrays
        return np.concatenate((b, -b[::-1])), np.concatenate((prefix, -prefix[::-1]))

    @cached_property
    def _hull_tree(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
        """Suffix hulls of each half of the nodes (xs, ys) of
        :attr:`stepfn.StepFunction._nodes`, as (xs, ys, up, edge).  up[0][k]
        is the next vertex of the upper hull of k's suffix in its half (k
        itself at the half's last node), up[i] is up[0] applied 2**i
        times, for 2**len(up) > n - 1, and edge[k] is the slope from k to
        up[0][k] (-inf at a half's last node).  The hull of the suffix from
        k is the path k, up[0][k], ..., with falling edge slopes."""
        xs, ys = self._nodes
        n = len(xs) // 2
        x, y = xs.tolist(), ys.tolist()
        parent, edge = list(range(2 * n)), [-math.inf] * (2 * n)
        # the monotone chain, right to left: the path from k + 1 is the hull
        # of its suffix, and a vertex on or below the chord from k past it
        # leaves the path for good
        for k in (*range(n - 2, -1, -1), *range(2 * n - 2, n - 1, -1)):
            top = k + 1
            slope = (y[top] - y[k]) / (x[top] - x[k])
            while slope <= edge[top]:
                top = parent[top]
                slope = (y[top] - y[k]) / (x[top] - x[k])
            parent[k], edge[k] = top, slope
        up = [np.array(parent, dtype=np.int32)]
        while 1 << len(up) <= n - 1:
            up.append(up[-1][up[-1]])
        return xs, ys, up, np.array(edge)

    @cached_property
    def _chord_table(self) -> np.ndarray:
        """The chords of every extended cell e (-1..n-1, the cells and the
        two half-lines off the support) and side, over the half of the nodes
        (xs, ys) of :attr:`stepfn.StepFunction._nodes` that side scans.
        Column s (n + 1) + e + 1, for side s (0 right, 1 left), holds for
        each node v of half s its xs and K_v = ys[v] - ys[end] -
        c (xs[v] - xs[end]), with c the value of |f| on e (0 off the
        support) and end the node of e's end on that side: e + 1 on the
        right and 2n - 1 - e on the left, each kept inside the nodes.  The
        nodes up to end are no chord end of a point of e: their xs read +inf
        and their K 0.  Shape (2, n, 2 (n + 1)): [0] is xs, [1] is K, a node
        per row, so that a scan reduces across rows.  It takes O(n^2)
        memory, so only small functions build it."""
        b, w, _ = self._abs_arrays
        xs, ys = self._nodes
        n = len(b)
        cells = np.arange(-1, n)
        end = np.concatenate((np.minimum(cells + 1, n - 1), 2 * n - 1 - np.maximum(cells, 0)))
        c = np.tile(np.concatenate(([0.0], w, [0.0])), 2)
        # node v of column j is v + n * (j > n): hx[v, j] and hy[v, j]
        hx, hy = (np.repeat(a.reshape(2, n).T, n + 1, axis=1) for a in (xs, ys))
        kv = hy - ys[end] - c * (hx - xs[end])
        off = np.arange(n)[:, None] + n * (np.arange(2 * (n + 1)) > n) <= end
        return np.stack((np.where(off, np.inf, hx), np.where(off, 0.0, kv)))

    # -- interchange formats -------------------------------------------

    def to_json_obj(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StepFunction":
        bp = obj.get("breakpoints", [])
        vals = obj.get("values", [])
        if not bp and not vals:
            return cls.zero()
        return cls(bp, vals)

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        return cls.from_json_obj(json.loads(text))

    def to_csv_text(self) -> str:
        # one row per breakpoint; second column carries the following cell's
        # value, empty on the final row
        lines = []
        for i, b in enumerate(self.breakpoints):
            v = f"{self.values[i]:.17g}" if i < len(self.values) else ""
            lines.append(f"{b:.17g},{v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "StepFunction":
        bp: list[float] = []
        vals: list[float] = []
        rows = [ln for ln in text.splitlines() if ln.strip()]
        for lineno, ln in enumerate(rows, start=1):
            parts = ln.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'breakpoint,value', got {ln!r}")
            try:
                bp.append(float(parts[0]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad breakpoint {parts[0]!r}") from exc
            cell = parts[1].strip()
            if lineno < len(rows):
                try:
                    vals.append(float(cell))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad value {cell!r}") from exc
            elif cell:
                raise ValueError(f"line {lineno}: final row must leave the value empty")
        if not bp:
            return cls.zero()
        return cls(bp, vals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero:
            return "StepFunction.zero()"
        cells = " + ".join(f"{v:g}*chi[{l:g},{r:g}]" for l, r, v in self.cells())
        return f"StepFunction({cells})"


@dataclass(frozen=True)
class EnvelopePair:
    """Certified two-sided step-function bracket for a non-step function.

    ``lower <= upper`` holds pointwise (checked on the common breakpoint
    refinement; the two sides are stored canonically, so their breakpoint
    sequences may differ after merging of equal adjacent cells).
    ``depth_capped`` counts the cells a refinement accepted with the gap
    still above tolerance because no float lies strictly inside them; it is
    not serialized.
    """

    lower: StepFunction
    upper: StepFunction
    depth_capped: int = 0

    def __post_init__(self) -> None:
        pts = np.union1d(self.lower.breakpoints, self.upper.breakpoints)
        mids = 0.5 * (pts[:-1] + pts[1:])
        lo, hi = _values_at(self.lower, mids), _values_at(self.upper, mids)
        bad = np.flatnonzero(lo > hi + 1e-9 * np.maximum(1.0, np.abs(hi)))
        if bad.size:
            k = bad[0]
            raise ValueError(
                f"envelope order violated on ({float(pts[k])}, {float(pts[k + 1])}): "
                f"{float(lo[k])} > {float(hi[k])}"
            )

    def to_json_obj(self) -> dict:
        return {"lower": self.lower.to_json_obj(), "upper": self.upper.to_json_obj()}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EnvelopePair":
        return cls(
            StepFunction.from_json_obj(obj["lower"]),
            StepFunction.from_json_obj(obj["upper"]),
        )


# ---------------------------------------------------------------------------
# exact operations


def integrate(f: StepFunction, interval: Interval) -> float:
    """Exact integral of ``f`` over ``interval`` as a finite sum of overlaps."""
    parts = []
    for l, r, v in f.cells():
        lo, hi = max(l, interval.left), min(r, interval.right)
        if hi > lo:
            parts.append(v * (hi - lo))
    return math.fsum(parts)


def average(f: StepFunction, interval: Interval) -> float:
    """Mean value of ``f`` over ``interval``."""
    return integrate(f, interval) / interval.length


def combine(
    f: StepFunction, g: StepFunction, op: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> StepFunction:
    """Pointwise binary ``op`` of two step functions on the merged breakpoints.

    ``op`` is applied once, elementwise, to the arrays of f's and g's values
    on the merged cells, so it must be array-safe (arithmetic, ``abs`` and
    numpy ufuncs are).  ``op(0, 0)`` must be 0, otherwise the result is not
    compactly supported.
    """
    if op(0.0, 0.0) != 0.0:
        raise ValueError("op(0, 0) must be 0 for a compactly supported result")
    pts = np.union1d(f.breakpoints, g.breakpoints)
    if len(pts) < 2:
        return StepFunction.zero()
    return StepFunction(pts, op(_values_at(f, pts[:-1]), _values_at(g, pts[:-1])))


def pos_neg_parts(b: StepFunction) -> tuple[StepFunction, StepFunction]:
    """Splits b = b_plus - b_minus with both parts nonnegative."""
    plus = StepFunction(b.breakpoints, tuple(max(v, 0.0) for v in b.values))
    minus = StepFunction(b.breakpoints, tuple(max(-v, 0.0) for v in b.values))
    return plus, minus


def distribution(f: StepFunction, s: float) -> float:
    """Lebesgue measure of {x : |f(x)| > s} for s >= 0."""
    if s < 0:
        raise ValueError("distribution defined for s >= 0")
    return math.fsum((r - l) for l, r, v in f.cells() if abs(v) > s)


def rearrangement(f: StepFunction) -> StepFunction:
    """Nonincreasing rearrangement of |f| on [0, |supp f|]."""
    pieces = sorted(
        ((abs(v), r - l) for l, r, v in f.cells() if v != 0.0), reverse=True
    )
    if not pieces:
        return StepFunction.zero()
    bp = [0.0]
    vals = []
    for height, length in pieces:
        vals.append(height)
        bp.append(bp[-1] + length)
    return StepFunction(bp, vals)


def double_star(f: StepFunction, t: float) -> float:
    """Running average (1/t) * int_0^t f*(s) ds of the rearrangement."""
    if t <= 0:
        raise ValueError("double_star requires t > 0")
    fstar = rearrangement(f)
    return integrate(fstar, Interval(0.0, t)) / t


def default_hull(*fs: StepFunction) -> Interval:
    """Hull of the supports expanded by its own length (at least 1e-6) on
    each side; (-1, 1) when every input is zero."""
    live = [f.breakpoints for f in fs if not f.is_zero]
    if not live:
        return Interval(-1.0, 1.0)
    lo, hi = min(b[0] for b in live), max(b[-1] for b in live)
    return Interval(lo, hi).expanded(max(hi - lo, 1e-6))


# ---------------------------------------------------------------------------
# vectorized helpers shared by the operator modules

def _pair_max(
    lefts: np.ndarray, plefts: np.ndarray, rights: np.ndarray, prights: np.ndarray, e: float, p: float, top: float,
    floor: float = 0.0,
) -> tuple[float, Interval | None]:
    """Maximum of (r - l)**e (P(r) - P(l))**(1/p) above ``floor`` (e <= 0 <=
    e + 1/p) over the pairs of ascending left ends l and right ends r > l,
    P nondecreasing, with its interval, or (floor, None); ``top`` bounds the
    cell weights, so P(r) - P(l) <= top (r - l).

    Lemma: a hull vertex attains the maximum.  A pair is a point (L, M), and
    the objective is h**(1/p), h = M L**-b, b = -e p in [0, 1].  With t the
    maximum of h, the convex hypograph of t L**b holds every point and the
    origin, so it holds their upper hull.  On a line M = c + s L,
    L**(b+1) dh/dL = (1 - b) s L - b c: a stationary point needs c, s > 0
    and is a minimum, so on each hull edge h peaks at an end.

    The walk.  The oracle returns the pair maximizing M - a L, by one running
    minimum of P(l) - a l over the left ends below each right end.  The
    first chord joins the origin (supporting slope ``top``) to the oracle's
    pair at a = 0 (slope 0).  At a chord's slope, an oracle pair strictly
    above the chord is a vertex and splits it.  Points above a chord lie in
    the triangle under its supporting lines, on whose sides h peaks at a
    corner, so a chord is dropped when h at the apex cannot beat the best.

    Rounding.  Vertices are scored in scalar arithmetic, as the per-pair
    maximum is.  The oracle compares rounded sums, so it can miss a vertex
    within rounding of a chord, where h is at most its ends' best: the
    result then falls short by a rounding amount.  This shows on exact ties
    at b = 1, whose maximizers lie on one ray and only its far end is scored.
    """
    rights, prights = rights[rights > lefts[0]], prights[rights > lefts[0]]
    below = lefts.searchsorted(rights) - 1  # the last left end below each right end

    def vertex(a: float) -> tuple[float, float, int, int]:
        cost = plefts - a * lefts
        j = int((prights - a * rights - np.minimum.accumulate(cost)[below]).argmax())
        i = int(cost[: below[j] + 1].argmin())
        return float(rights[j] - lefts[i]), float(prights[j] - plefts[i]), i, j

    def objective(length: float, mass: float) -> float:
        return length**e * mass ** (1.0 / p) if mass > 0.0 else 0.0

    best, arg = floor, None
    chords = [((0.0, 0.0), top, vertex(0.0), 0.0)]
    while chords:
        u, su, v, sv = chords.pop()
        (lu, mu), (lv, mv) = u[:2], v[:2]
        if (score := objective(lv, mv)) > best:  # v, a pair, is scored again if it ends a later chord
            best, arg = score, v
        if not su > sv:
            continue
        t = min(max((mv - mu - sv * (lv - lu)) / (su - sv), 0.0), lv - lu)  # the apex, at L = lu + t
        if lu + t > 0.0 and objective(lu + t, mu + su * t) <= best:
            continue
        a = (mv - mu) / (lv - lu)
        w = vertex(a)
        if lu < w[0] < lv and w[1] - a * w[0] > max(mu - a * lu, mv - a * lv):
            chords += [(w, a, v, sv), (u, su, w, a)]
    return best, None if arg is None else Interval(lefts[arg[2]], rights[arg[3]])


def superlevels(lengths: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values v of cells with these lengths and values, in
    ascending order, and for each the measure |{f >= v}| of the cells at or
    above it, summed from the top value down."""
    levels, inv = np.unique(values, return_inverse=True)
    return levels, np.cumsum(np.bincount(inv, weights=lengths)[::-1])[::-1]


def _values_at(f: StepFunction, xs: np.ndarray) -> np.ndarray:
    """f at every point of xs (vectorized ``f(x)``: the right cell's value
    at a breakpoint, 0 off the support)."""
    return np.concatenate(([0.0], f.values, [0.0]))[np.searchsorted(f.breakpoints, xs, side="right")]


def _points(xs) -> tuple[np.ndarray, bool]:
    """The points of a pointwise operator as a 1-D float array, and whether
    they came as a scalar; a non-finite point raises ValueError."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"need a point or a 1-D array of points, got shape {arr.shape}")
    pts = arr.reshape(-1)
    bad = pts[~np.isfinite(pts)]
    if bad.size:
        raise ValueError(f"need a finite point, got x={bad[0]}")
    return pts, arr.ndim == 0


def _shaped(vals: np.ndarray, scalar: bool) -> float | np.ndarray:
    """An operator's values as :func:`_points` took its points: a float for
    a scalar, else the array."""
    return float(vals[0]) if scalar else vals


def prefix_at(b: np.ndarray, w: np.ndarray, prefix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Prefix integral of the weighted cells at arbitrary points (vectorized)."""
    x = np.asarray(x, dtype=float)
    if len(w) == 0:
        return np.zeros_like(x)
    # minimum/maximum rather than np.clip, whose overhead dominates short inputs
    idx = np.minimum(np.maximum(b.searchsorted(x, side="right") - 1, 0), len(w) - 1)
    return prefix[idx] + w[idx] * (np.minimum(np.maximum(x, b[0]), b[-1]) - b[idx])


def window_split(b: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every window (l, r), clipped to the support, split at the breakpoints
    b: its end cells il <= ir, the lengths it covers in them (0 in ir when
    il == ir) and jl = min(il + 1, ir); the cells jl .. ir - 1 lie whole inside."""
    lc, rc = (np.minimum(np.maximum(x, b[0]), b[-1]) for x in (lefts, rights))
    il, ir = (np.minimum(b.searchsorted(x, side="right") - 1, len(b) - 2) for x in (lc, rc))
    return il, np.minimum(b[il + 1], rc) - lc, np.minimum(il + 1, ir), ir, np.where(ir > il, rc - b[ir], 0.0)


def window_integrals(w: np.ndarray, prefix: np.ndarray, split: tuple[np.ndarray, ...]) -> np.ndarray:
    """Integral of the cell weights w over every window of ``window_split``:
    the end cells by their covered lengths, only the whole cells between by
    a prefix difference.  (prefix_at(r) - prefix_at(l) carries an absolute
    error of eps times the prefix, large for short windows far along.)"""
    il, left_len, jl, ir, right_len = split
    return w[il] * left_len + (prefix[ir] - prefix[jl]) + w[ir] * right_len


def level_measures(
    f: StepFunction, lefts: np.ndarray, rights: np.ndarray, signed: bool = False
) -> Iterator[tuple[float, np.ndarray]]:
    """The level sweep: for each distinct value v of |f| (of f when
    ``signed``), in decreasing order, yields v and |{f = v} cap (l, r)| for
    every pair of endpoints at once.  One prefix table of the level's
    indicator serves all N intervals, so each level costs O(m + N) time
    and memory; nothing of size N x levels is built.  The zero level counts
    only the zero cells inside the support."""
    b, w, _ = f._abs_arrays
    vals = np.asarray(f.values, dtype=float) if signed else w
    dx, split = np.diff(b), window_split(b, lefts, rights)
    for v in np.unique(vals)[::-1]:
        on = (vals == v).astype(float)
        yield float(v), window_integrals(on, np.concatenate(([0.0], np.cumsum(on * dx))), split)
