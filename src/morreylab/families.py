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

Only the BMO seminorms and ``orlicz.orlicz_maximal`` use families; the
Morrey-type norms need none.  A resolved family is two endpoint arrays,
``lefts`` and ``rights``, sorted by (left, right) without repeats, so
reductions over a family are reproducible.  Objectives read the arrays
whole (the level sweep of ``stepfn.level_measures``); no per-interval
object is built.  Exceeding ``cap`` raises, before any pair is built when
the grid alone has too many; raise the cap or coarsen the depth rather
than subsample silently.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True, eq=False)
class ResolvedFamily:
    """A concrete family, as sorted endpoint arrays, with covering metadata."""

    spec: FamilySpec
    hull: Interval
    lefts: np.ndarray
    rights: np.ndarray
    grid_gap: float | None
    ladder_sizes: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.lefts)

    def cover_ratio_sup(self, delta: float) -> float:
        """sup over lengths l in [delta, |hull|] of |Q'| / l, Q' the shortest
        family interval sure to contain any length-l subinterval of the hull.

        Grid pairs cover with l + 2*gap, a dyadic double at level d >= 1
        covers any l <= s_d with length 2*s_d, and the hull covers all.  Each
        form decreases in l between ladder sizes, so the supremum is at delta
        or just above a ladder size s > delta.
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        h = self.hull.length
        inner = sorted(s for s in self.ladder_sizes if s < h)

        def ratio(length: float) -> float:
            best = h / length  # the hull is always enumerated
            if self.grid_gap is not None:
                best = min(best, (length + 2.0 * self.grid_gap) / length)
            k = bisect.bisect_left(inner, length)
            if k < len(inner):
                best = min(best, 2.0 * inner[k] / length)
            return max(best, 1.0)

        return max(ratio(x) for x in [delta] + [math.nextafter(s, math.inf) for s in inner if s > delta])


def _over_cap(count: int, spec: FamilySpec, at_least: str = "") -> None:
    if count > spec.cap:
        raise ValueError(f"family would enumerate {at_least}{count} intervals, over the cap "
                         f"{spec.cap}; raise the cap or coarsen depth/resolution")


def resolve_family(
    spec: FamilySpec | None, f: StepFunction, extra_points: tuple[float, ...] = ()
) -> ResolvedFamily:
    spec = spec or FamilySpec()
    hull = spec.hull or default_hull(f)
    pts = np.array([*f.breakpoints, *extra_points], dtype=float)
    base = np.unique(np.concatenate(([hull.left, hull.right], pts[(hull.left < pts) & (pts < hull.right)])))

    grid: np.ndarray | None = None
    if spec.mode == "breakpoint_pairs":
        grid = base
    elif spec.mode == "auto":
        # enrich with uniform points; keep the pair count modest so the
        # dyadic ladder (about 3 * 2^depth intervals) carries the deep
        # scales and the cap stays available for dense user requests
        budget = min(spec.cap, 40_000)
        g = 0
        while g < min(spec.depth, 8):
            n_pts = len(base) + 2**(g + 1) + 1
            if n_pts * (n_pts - 1) // 2 + 3 * 2**spec.depth > budget:
                break
            g += 1
        grid = np.unique(np.concatenate((base, hull.left + np.arange(2**g + 1) * (hull.length / 2**g))))
    elif spec.mode == "dense":
        step = hull.length / spec.resolution
        grid = np.unique(np.concatenate((base, hull.left + np.arange(spec.resolution + 1) * step)))
    ladder = spec.mode in ("auto", "dyadic")

    # members known distinct: the grid pairs, the finest ladder level
    n = 0 if grid is None else len(grid)
    _over_cap(max(n * (n - 1) // 2, 2 ** (spec.depth + 1) - 1 if ladder else 0), spec, "at least ")

    lefts, rights, ladder_sizes = [], [], []
    if grid is not None:
        i, j = np.triu_indices(n, 1)
        lefts.append(grid[i])
        rights.append(grid[j])
    if ladder:
        for d in range(spec.depth + 1):
            s = hull.length / (2**d)
            ladder_sizes.append(s)
            j = np.arange(2**d)
            lefts += [hull.left + j * s, hull.left + j[:-1] * s]
            rights += [hull.left + (j + 1) * s, hull.left + (j[:-1] + 2) * s]
    order = np.lexsort((np.concatenate(rights), np.concatenate(lefts)))
    lefts, rights = np.concatenate(lefts)[order], np.concatenate(rights)[order]
    new = np.concatenate(([True], (lefts[1:] != lefts[:-1]) | (rights[1:] != rights[:-1])))
    lefts, rights = lefts[new], rights[new]
    _over_cap(len(lefts), spec)
    gap = float(np.max(np.diff(grid))) if grid is not None and len(grid) > 1 else None
    return ResolvedFamily(spec, hull, lefts, rights, gap, tuple(sorted(ladder_sizes)))
