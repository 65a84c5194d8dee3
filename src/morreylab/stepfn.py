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
from dataclasses import dataclass
from functools import cached_property
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

    def contains(self, x: float) -> bool:
        """Closed containment; endpoint membership is measure-irrelevant."""
        return self.left <= x <= self.right

    def expanded(self, margin: float) -> "Interval":
        return Interval(self.left - margin, self.right + margin)

    def as_tuple(self) -> tuple[float, float]:
        return (self.left, self.right)


def _canonical(breakpoints: list[float], values: list[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # merge adjacent cells sharing a value, then trim zero-valued boundary cells
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
        bp = [float(b) for b in breakpoints]
        vals = [float(v) for v in values]
        if not bp:
            bp = [0.0]
        if len(vals) != len(bp) - 1:
            raise ValueError("values must have one entry per cell")
        for b in bp:
            if not math.isfinite(b):
                raise ValueError("breakpoints must be finite")
        for v in vals:
            if not math.isfinite(v):
                raise ValueError("values must be finite")
        for a, b in zip(bp, bp[1:]):
            if not a < b:
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
    ``depth_capped`` counts the cells a refinement accepted only because it
    reached its depth cap with the gap still above tolerance; it is not
    serialized.
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
    f: StepFunction, g: StepFunction, op: Callable[[float, float], float]
) -> StepFunction:
    """Pointwise binary ``op`` of two step functions on the merged breakpoints.

    ``op(0, 0)`` must be 0, otherwise the result is not compactly supported.
    """
    if op(0.0, 0.0) != 0.0:
        raise ValueError("op(0, 0) must be 0 for a compactly supported result")
    pts = sorted(set(f.breakpoints) | set(g.breakpoints))
    if len(pts) < 2:
        return StepFunction.zero()
    vals = [op(f(l), g(l)) for l in pts[:-1]]
    return StepFunction(pts, vals)


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

# float64 entries in any one temporary of the row-blocked passes
_BLOCK = 16_384


def _first_max(lengths: np.ndarray, masses: np.ndarray, e: float, p: float) -> tuple[float, int]:
    """First maximum of lengths**e * masses**(1/p), lengths > 0 and masses >= 0,
    among the positive masses, and its index (0.0 and -1 if there is none).

    numpy's array power can round an ulp away from the scalar one, so the
    arrays only preselect the near-maximal entries, and those are compared
    in scalar arithmetic: the result is the scalar per-interval maximum.
    """
    approx = lengths**e * masses ** (1.0 / p)
    best, arg = 0.0, -1
    top = approx.max(initial=0.0)
    if top > 0.0:
        for k in np.flatnonzero(approx >= top * (1.0 - 1e-12)):
            v = float(lengths[k] ** e * masses[k] ** (1.0 / p))
            if v > best:
                best, arg = v, int(k)
    return best, arg


def _pair_max(
    lefts: np.ndarray, plefts: np.ndarray, rights: np.ndarray, prights: np.ndarray, e: float, p: float, top: float,
    floor: float = 0.0,
) -> tuple[float, Interval | None]:
    """First maximum, in row-major order, of (r - l)**e (P(r) - P(l))**(1/p)
    above ``floor`` over the pairs of ascending left ends l and right ends
    r > l, P nondecreasing, with its interval, or (floor, None); ``top``
    bounds every cell's weight, so P(r) - P(l) <= top (r - l).

    A block of rows holds at most _BLOCK entries, over the columns from the
    first right end past its first left end; pairs with r <= l get mass 0
    (and length 1).  :func:`_first_max` runs over the flattened block, which
    wins only if strictly greater: the scalar per-pair maximum.

    Row bound: as r - l >= M / top for a pair of mass M, and e <= 0 <= e + 1/p,
    (r - l)**e M**(1/p) <= top**(-e) M**(e + 1/p) <= top**(-e) (P_end - P(l))**(e + 1/p)
    with P_end the last P(r).  It does not increase with l, so the scan stops at
    the first block whose first row cannot win; the factor 1 + 1e-12 absorbs
    the rounding where the bound is attained.
    """
    best, pair, s = floor, None, 0
    while s < len(lefts):
        j0 = int(rights.searchsorted(lefts[s], side="right"))
        cols = len(rights) - j0
        if cols == 0 or top**-e * max(prights[-1] - plefts[s], 0.0) ** (e + 1.0 / p) * (1.0 + 1e-12) <= best:
            break
        t = s + max(1, _BLOCK // cols)
        lengths = rights[None, j0:] - lefts[s:t, None]
        ahead = lengths > 0.0
        masses = np.where(ahead, prights[None, j0:] - plefts[s:t, None], 0.0)
        v, k = _first_max(np.where(ahead, lengths, 1.0).ravel(), masses.ravel(), e, p)
        if v > best:
            i, j = divmod(k, cols)
            best, pair = v, Interval(lefts[s + i], rights[j0 + j])
        s = t
    return best, pair


def _values_at(f: StepFunction, xs: np.ndarray) -> np.ndarray:
    """f at every point of xs (vectorized ``f(x)``: the right cell's value
    at a breakpoint, 0 off the support)."""
    return np.concatenate(([0.0], f.values, [0.0]))[np.searchsorted(f.breakpoints, xs, side="right")]


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
