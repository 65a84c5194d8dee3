"""Finite interval families discretizing "sup over all cubes".

A :class:`FamilySpec` describes how candidate intervals are enumerated:

- ``breakpoint_pairs``: all pairs drawn from the integrand's breakpoints
  plus the hull endpoints;
- ``dyadic``: the dyadic ladder over the hull (the cells of every level up
  to ``depth``, plus the two-cell "doubles" that make the ladder a covering
  family: any subinterval of the hull sits inside a double at most four
  times longer);
- ``dense``: all pairs from a uniform grid of ``resolution + 1`` points;
- ``auto`` (default): breakpoint pairs over a grid enriched with uniform
  points, union the dyadic ladder.

Exceeding ``cap`` raises; raise the cap or coarsen the depth rather than
subsample silently.  Enumeration order is deterministic (sorted by
endpoints), so reductions over a family are reproducible under any
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stepfn import Interval, StepFunction, default_hull

__all__ = ["FamilySpec", "ResolvedFamily", "resolve_family"]

_MODES = ("auto", "breakpoint_pairs", "dyadic", "dense")


@dataclass(frozen=True)
class FamilySpec:
    mode: str = "auto"
    depth: int = 12
    resolution: int = 256
    cap: int = 200_000
    hull: Interval | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown family mode {self.mode!r}; expected one of {_MODES}")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.depth < 0 or self.resolution < 1:
            raise ValueError("depth must be >= 0 and resolution >= 1")

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "depth": self.depth,
            "resolution": self.resolution,
            "cap": self.cap,
            "hull": None if self.hull is None else list(self.hull.as_tuple()),
        }


class ResolvedFamily:
    """A concrete enumerated family together with covering metadata."""

    def __init__(
        self,
        spec: FamilySpec,
        hull: Interval,
        intervals: list[Interval],
        grid_gap: float | None,
        ladder_sizes: tuple[float, ...],
    ):
        self.spec = spec
        self.hull = hull
        self.intervals = intervals
        self.grid_gap = grid_gap
        self.ladder_sizes = ladder_sizes

    def __len__(self) -> int:
        return len(self.intervals)

    def intervals_containing(self, x: float):
        return (q for q in self.intervals if q.contains(x))

    def cover_ratio_sup(self, delta: float) -> float:
        """sup over lengths l in [delta, |hull|] of |Q'| / l, where Q' is the
        shortest family interval guaranteed to contain an arbitrary length-l
        subinterval of the hull.

        Grid pairs cover with l + 2*gap; a dyadic double at level d >= 1
        covers any l <= s_d with length 2*s_d; the hull itself covers
        everything.  Each cover form is decreasing in l between ladder
        sizes, so the supremum is attained just above a ladder size or at
        delta; those anchors are enumerated exactly.
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        h = self.hull.length
        inner_sizes = [s for s in self.ladder_sizes if s < h]

        def ratio(length: float) -> float:
            best = h / length  # the hull is always enumerated
            if self.grid_gap is not None:
                best = min(best, (length + 2.0 * self.grid_gap) / length)
            bigger = [s for s in inner_sizes if s >= length]
            if bigger:
                best = min(best, 2.0 * min(bigger) / length)
            return max(best, 1.0)

        if delta >= h:
            return 1.0
        anchors = [delta] + [
            math.nextafter(s, math.inf) for s in inner_sizes if delta < s < h
        ]
        return max(ratio(a) for a in anchors if a <= h)


def resolve_family(
    spec: FamilySpec | None, f: StepFunction, extra_points: tuple[float, ...] = ()
) -> ResolvedFamily:
    spec = spec or FamilySpec()
    hull = spec.hull or default_hull(f)
    bps = [b for b in f.breakpoints if hull.left < b < hull.right]
    bps += [p for p in extra_points if hull.left < p < hull.right]
    base = sorted({hull.left, hull.right, *bps})

    grid: list[float] | None = None
    ladder: list[Interval] = []
    ladder_sizes: list[float] = []

    if spec.mode in ("auto", "breakpoint_pairs"):
        grid = list(base)
        if spec.mode == "auto":
            # enrich with uniform points; keep the pair count modest so the
            # dyadic ladder (about 3 * 2^depth intervals) carries the deep
            # scales and the cap stays available for dense user requests
            budget = min(spec.cap, 40_000)
            ladder_budget = 3 * (2**spec.depth)
            g = 0
            while g < min(spec.depth, 8):
                n_pts = len(base) + 2**(g + 1) + 1
                if n_pts * (n_pts - 1) // 2 + ladder_budget > budget:
                    break
                g += 1
            step = hull.length / (2**g)
            grid = sorted(set(grid) | {hull.left + j * step for j in range(2**g + 1)})
    if spec.mode == "dense":
        step = hull.length / spec.resolution
        grid = sorted(set(base) | {hull.left + j * step for j in range(spec.resolution + 1)})
    if spec.mode in ("auto", "dyadic"):
        for d in range(spec.depth + 1):
            s = hull.length / (2**d)
            ladder_sizes.append(s)
            for j in range(2**d):
                ladder.append(Interval(hull.left + j * s, hull.left + (j + 1) * s))
            for j in range(2**d - 1):
                ladder.append(Interval(hull.left + j * s, hull.left + (j + 2) * s))

    intervals: set[tuple[float, float]] = set()
    if grid is not None:
        garr = grid
        for i, a in enumerate(garr):
            for b in garr[i + 1 :]:
                intervals.add((a, b))
    for q in ladder:
        intervals.add(q.as_tuple())

    if len(intervals) > spec.cap:
        raise ValueError(
            f"family would enumerate {len(intervals)} intervals, over the cap "
            f"{spec.cap}; raise the cap or coarsen depth/resolution"
        )
    ordered = [Interval(a, b) for a, b in sorted(intervals)]
    gap = None
    if grid is not None and len(grid) > 1:
        gap = float(max(b - a for a, b in zip(grid, grid[1:])))
    return ResolvedFamily(spec, hull, ordered, gap, tuple(sorted(ladder_sizes)))
