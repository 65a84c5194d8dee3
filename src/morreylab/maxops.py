"""Exact pointwise evaluation of maximal-type operators on step functions.

Candidate-endpoint lemma
------------------------
Fix x and scan the average of |f| over [u, v] with u <= x <= v.  Extending
one endpoint into a cell where |f| has the constant value c changes the
average to (A + c*d) / (L + d) with A, L fixed and d the penetration depth;
its derivative in d is (c*L - A) / (L + d)^2, whose sign does not depend on
d.  The sup over each cell segment is therefore attained at a segment end,
so the global supremum is attained with both endpoints in
{breakpoints of f} union {x}.  Maximizing over those pairs evaluates Mf(x)
exactly; intervals reaching past the support hull only lengthen without
adding mass, so they never win.

Searching the candidates
------------------------
With P(t) = int_{-inf}^t |f|, the average over [u, v] is the slope of the
chord of P from u to v, so Mf(x) is the steepest chord from a left
candidate u <= x to a right candidate v >= x: the maximum-density-segment
problem (Chung & Lu, SIAM J. Comput. 34, 2004).  The pairs are searched,
not enumerated.  For a trial slope lam the excess
(P(v) - lam*v) + (lam*u - P(u)) of a pair over lam separates into one term
per endpoint, so one O(m) argmax per side finds the pair that beats lam by
the most, and that pair's slope becomes the next trial (Dinkelbach's
iteration for fractional programs, Management Sci. 13, 1967).  The trial
slope starts at an attained value and rises strictly, each time to the
slope of an actual pair, of which there are finitely many, so the loop
stops.  It stops only when no pair has positive excess, i.e. when no pair
is steeper than the trial slope, so the result is the exact maximum and
is attained.  Few steps are needed: over 7,500 random points with
m <= 1000 the loop made at most 8 passes, 3.8 on average, the last of
which only confirms the maximum.

The same scan for the fractional variant |Q|^(a-1) * int_Q |f| gives the
derivative sign (a-1)(A + c*d) + c(L + d), which is nondecreasing in d
(a, c >= 0), so any interior critical point is a minimum along the scan
direction and endpoint enumeration is again exact.  Its objective does not
separate into one term per endpoint, so the pairs go to the pair kernel
``stepfn._pair_max``, in blocks of rows, pruned by an exact row bound.

The per-cell split
------------------
Take a cell [l, r] of f where |f| = c (or a half-line off the support, with
c = 0) and x in it.  The candidate pairs for Mf(x) fall into three groups:
- u <= l and v >= r, both breakpoints: the chords spanning the cell, whose
  best slope C does not depend on x (C = 0 off the support);
- u = x and v >= r: since P(v) - P(x) = P(v) - P(r) + c(r - x), the average
  is c + K_v / (v - x) with K_v = P(v) - P(r) - c(v - r), and
  R(x) = c + max(0, max_v K_v / (v - x)), the 0 standing for v = r, where
  K_r = 0, and for the shrinking interval at x;
- v = x and u <= l: the mirror image L(x) = c + max(0, max_u K_u / (x - u))
  with K_u = P(l) - P(u) - c(l - u).
So Mf = max(C, R, L) on the cell.  R is nondecreasing: the 0 is constant,
and each K_v / (v - x) with K_v > 0 rises as x moves toward v (terms with
K_v <= 0 never exceed the 0).  L is nonincreasing by the mirror argument.
Hence on a sub-cell [a, b] the maximum of Mf is max(C, R(b), L(a)), which
max(Mf(a), Mf(b)) attains.  The intervals containing all of [a, b] have
u <= l or u = a, and v >= r or v = b: the pairs spanning the cell give C,
u = a gives R(a) (with v = b averaging c), and v = b gives L(b).  So
max(C, R(a), L(b)) is the spanning-chord floor of the sub-cell, and it
bounds Mf from below at each of its points.

No quantity here depends on the sub-cell's width.  K_v is a difference of
prefix sums at two breakpoints, less c times their distance; x enters only
through v - x >= v - r.  The direct chord (P(v) - P(x)) / (v - x) instead
interpolates P(x), whose rounding error of about an ulp of max P swamps
the mass of a short sub-cell next to r.  The rounding of K itself, a few
ulps of max P, is charged on the lower side.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .stepfn import (
    _BLOCK,
    _pair_max,
    _values_at,
    EnvelopePair,
    Interval,
    StepFunction,
    combine,
    default_hull,
    integrate,
    prefix_at,
)

__all__ = [
    "RefinePolicy",
    "RadialProfile",
    "maximal",
    "fractional_maximal",
    "maximal_commutator",
    "commutator",
    "brute_force_maximal",
    "maximal_envelope",
    "iterated_maximal",
    "commutator_envelope",
    "hardy",
]


@dataclass(frozen=True)
class RefinePolicy:
    """Adaptive bisection policy for envelope construction.

    Cells are split until (upper - lower) <= tol * upper or the per-cell
    depth cap is reached.
    """

    tol: float = 1e-3
    max_depth: int = 24


@dataclass(frozen=True)
class RadialProfile:
    """Radial step profile f(x) = profile(|x|) in dimension ``dimension``."""

    profile: StepFunction
    dimension: int = 1
    nonincreasing: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.dimension != int(self.dimension):
            raise ValueError("dimension must be a positive integer")
        if not self.profile.is_zero and self.profile.breakpoints[0] < 0:
            raise ValueError("profile breakpoints must be >= 0")
        if self.nonincreasing and not self.profile.is_zero:
            vals = self.profile.values
            if any(a < b for a, b in zip(vals, vals[1:])):
                raise ValueError("profile marked nonincreasing has increasing values")
            if any(v < 0 for v in vals):
                raise ValueError("nonincreasing profiles must be nonnegative")
            if self.profile.breakpoints[0] != 0.0:
                raise ValueError("nonincreasing profiles must start at radius 0")

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "profile": self.profile.to_json_obj(),
            "nonincreasing": self.nonincreasing,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RadialProfile":
        return cls(
            StepFunction.from_json_obj(obj["profile"]),
            int(obj.get("dimension", 1)),
            bool(obj.get("nonincreasing", False)),
        )


def _candidate_arrays(f: StepFunction, left: float, right: float):
    """Endpoint candidates ``ts`` and their |f| prefix integrals ``ps``, and
    the count ``k`` of left candidates: ``ts`` holds the breakpoints below
    ``left``, then ``left`` (the first k), then ``right`` and the breakpoints
    above it (the right candidates), in increasing order."""
    b, w, prefix = f._abs_arrays
    k = bisect.bisect_left(f.breakpoints, left)
    j = bisect.bisect_right(f.breakpoints, right)
    ts = np.concatenate((b[:k], [left, right], b[j:]))
    ps = np.concatenate((prefix[:k], prefix_at(b, w, prefix, ts[k : k + 2]), prefix[j:]))
    return ts, ps, k + 1


def _max_chord(ts: np.ndarray, ps: np.ndarray, nu: int, jv: int, lam: float) -> float:
    """Steepest chord (ps[j] - ps[i]) / (ts[j] - ts[i]) from a left candidate
    i < nu to a right candidate j >= jv with ts[j] > ts[i], or ``lam`` when
    no such chord is steeper.

    Dinkelbach's iteration (see the module docstring): the left candidate
    maximizes e = lam*t - P(t) and the right one minimizes it, both O(m);
    ``lam`` only ever rises strictly to the slope of a pair.  A zero-length
    argmax pair has zero excess, so no pair beats ``lam``.
    """
    while True:
        e = lam * ts - ps
        # the ndarray methods skip np.argmax's dispatch, as costly as the scan
        i = e[:nu].argmax()
        j = jv + e[jv:].argmin()
        length = ts[j] - ts[i]
        if not length > 0.0:
            return lam
        slope = float((ps[j] - ps[i]) / length)
        if not slope > lam:
            return lam
        lam = slope


def maximal(f: StepFunction, x: float) -> float:
    """Exact Hardy-Littlewood maximal function of a step function at x."""
    x = float(x)
    if f.is_zero:
        return 0.0
    ts, ps, k = _candidate_arrays(f, x, x)
    # averages of |f| never exceed sup |f|; the clamp also guards the
    # cancellation noise of prefix differences over near-degenerate pairs
    return min(_max_chord(ts, ps, k, k, abs(f(x))), f.sup_abs())


def fractional_maximal(f: StepFunction, alpha: float, x: float) -> float:
    """Exact fractional maximal function sup |Q|^(alpha-1) * int_Q |f|."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if alpha == 0.0:
        return maximal(f, x)
    x = float(x)
    if f.is_zero:
        return 0.0
    ts, ps, k = _candidate_arrays(f, x, x)
    return _pair_max(ts[:k], ps[:k], ts[k:], ps[k:], alpha - 1.0, 1.0, f.sup_abs())[0]


def maximal_commutator(b: StepFunction, f: StepFunction, x: float) -> float:
    """Exact C_b(f)(x) = sup over Q containing x of avg |b(x) - b(.)| |f(.)|.

    For fixed x the integrand is itself a step function, so the
    candidate-endpoint lemma applies verbatim.
    """
    x = float(x)
    bx = b(x)
    g = combine(b, f, lambda bv, fv: abs(bx - bv) * abs(fv))
    return maximal(g, x)


def commutator(b: StepFunction, f: StepFunction, x: float) -> float:
    """Exact commutator [M, b]f(x) = M(bf)(x) - b(x) * Mf(x)."""
    x = float(x)
    bf = combine(b, f, lambda bv, fv: bv * fv)
    return maximal(bf, x) - b(x) * maximal(f, x)


def brute_force_maximal(
    f: StepFunction,
    x: float,
    samples: int = 10_000,
    seed: int = 0,
    zoom_rounds: int = 1,
) -> float:
    """Monte-Carlo lower estimate of Mf(x), independent of the exact path.

    Draws random intervals [u, v] containing x inside a generous hull.  With
    ``zoom_rounds > 1`` the sample budget is spread over coarse-to-fine
    rounds: most draws concentrate in a shrinking box around the incumbent
    while a fixed share keeps exploring the full hull.  Plain uniform
    sampling stalls at grid resolution near isolated optima; the zoom
    schedule converges geometrically instead.
    """
    x = float(x)
    if f.is_zero:
        return 0.0
    rng = np.random.default_rng(seed)
    b0, bm = f.breakpoints[0], f.breakpoints[-1]
    span = max(bm - b0, 1e-9)
    ulo0, uhi0 = min(b0, x) - span, x
    vlo0, vhi0 = x, max(bm, x) + span
    best = abs(f(x))
    bu, bv = x, x
    box = (ulo0, uhi0, vlo0, vhi0)
    per_round = max(1, samples // max(zoom_rounds, 1))
    for rnd in range(max(zoom_rounds, 1)):
        n_explore = per_round if rnd == 0 else per_round // 4
        n_zoom = per_round - n_explore
        u = rng.uniform(ulo0, uhi0, n_explore)
        v = rng.uniform(vlo0, vhi0, n_explore)
        if n_zoom:
            u = np.concatenate((u, rng.uniform(box[0], box[1], n_zoom)))
            v = np.concatenate((v, rng.uniform(box[2], box[3], n_zoom)))
        lengths = v - u
        ok = lengths > 0
        if ok.any():
            bnp, w, prefix = f._abs_arrays
            masses = prefix_at(bnp, w, prefix, v[ok]) - prefix_at(bnp, w, prefix, u[ok])
            ratios = masses / lengths[ok]
            k = int(np.argmax(ratios))
            if ratios[k] > best:
                best = float(ratios[k])
                bu, bv = float(u[ok][k]), float(v[ok][k])
        wu = max((box[1] - box[0]) / 6.0, 1e-15)
        wv = max((box[3] - box[2]) / 6.0, 1e-15)
        box = (
            max(ulo0, bu - wu),
            min(uhi0, bu + wu),
            max(vlo0, bv - wv),
            min(vhi0, bv + wv),
        )
    return best


# ---------------------------------------------------------------------------
# envelopes


def _charge(prefix: np.ndarray) -> float:
    """What the envelope floors take off every chord's mass: four ulps of
    max P, the rounding of the prefix sums and of the few cell sums between
    the chord's ends."""
    return 4.0 * math.ulp(prefix[-1])


def _max_chords(
    ts: np.ndarray, ps: np.ndarray, nu: np.ndarray, jv: np.ndarray, lam: np.ndarray, charge: float = 0.0
) -> np.ndarray:
    """:func:`_max_chord` row by row over the shared ``ts``/``ps``: row r
    takes left candidates i < nu[r] and right candidates j >= jv[r], with
    0 < nu[r] <= jv[r] < len(ts), and starts at lam[r]; ``charge`` is taken
    off every chord's mass.  Rows run in blocks of at most _BLOCK entries
    until no row of the block rises.

    :func:`maximal` keeps the scalar form.  Searched as one row of a row
    form like this one, a point cost about three times as much, in 2-D
    temporaries and index arrays, and ``maxfn --op M`` on 1000-cell inputs
    fell from about 290 to 210 tasks/s on a 2-core host.
    """
    lam = np.array(lam, dtype=float)
    cols = np.arange(len(ts))
    step = max(1, _BLOCK // len(ts))
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, len(lam), step):
            rows, left, right = lam[s : s + step], nu[s : s + step, None], jv[s : s + step, None]
            while True:
                e = rows[:, None] * ts - ps
                i = np.where(cols < left, e, -np.inf).argmax(axis=1)
                j = np.where(cols >= right, e, np.inf).argmin(axis=1)
                length = ts[j] - ts[i]
                slope = (ps[j] - ps[i] - charge) / length
                up = (length > 0.0) & (slope > rows)
                if not up.any():
                    break
                rows[up] = slope[up]
    return lam


def _cell_floor(f: StepFunction, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C, the steepest chord of P spanning the whole cell, for the extended
    cells ``cells`` of f (module docstring); it is the least value of Mf on
    the cell.  Returns two arrays with extended cell i at index i + 1: C
    with every chord's mass charged (:func:`_charge`), a certified floor,
    and C as computed, for the upper side, whose search starts from the
    charged value.  Entries of cells off the support, and of cells not
    asked for, are 0.
    """
    b, w, prefix = f._abs_arrays
    own = np.unique(cells[(cells >= 0) & (cells < len(w))]) + 1
    lo, hi = np.zeros(len(w) + 2), np.zeros(len(w) + 2)
    # the cell's own value starts the search: a pair of breakpoints, exact
    lo[own] = _max_chords(b, prefix, own, own, w[own - 1], _charge(prefix))
    hi[own] = _max_chords(b, prefix, own, own, np.maximum(w[own - 1], lo[own]))
    return lo, hi


def _side_chords(f: StepFunction, xs: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """R and L (module docstring) at each point x of xs in the closed
    extended cell ``cells`` of f: R(x) = c + max(0, max_v K_v / (v - x))
    over the breakpoints v > x at or right of the cell, L its mirror, with c
    the cell's value and K measured from the cell's end on that side.
    Returns R and R charged, L and L charged, each chord's mass charged by
    :func:`_charge`.  Points run in blocks of at most _BLOCK entries."""
    b, w, prefix = f._abs_arrays
    c = np.concatenate(([0.0], w, [0.0]))[cells + 1]
    n, k = len(b), len(xs)
    xs2, cs = np.tile(xs, 2), np.tile(c, 2)
    # R from the cell's right end, over v in [j0, n); L from its left end,
    # over u in [0, j1); a cell end at x itself is no chord
    ends = np.minimum(np.maximum(np.concatenate((cells + 1, cells)), 0), n - 1)
    j0 = np.concatenate((cells + 1 + (b[np.minimum(cells + 1, n - 1)] == xs), np.zeros(k, int)))
    j1 = np.concatenate((np.full(k, n), cells + 1 - (b[np.maximum(cells, 0)] == xs)))
    # the charge lowers a chord's mass: K on the right, -K on the left
    charges = np.repeat([_charge(prefix), -_charge(prefix)], k)
    hi, lo = np.zeros(2 * k), np.zeros(2 * k)
    live = np.flatnonzero(j0 < j1)
    step = max(1, _BLOCK // n)
    for s in range(0, live.size, step):
        r = live[s : s + step]
        a, z = j0[r].min(), j1[r].max()
        cols = np.arange(a, z)
        inside = (cols >= j0[r, None]) & (cols < j1[r, None])
        den = np.where(inside, b[a:z] - xs2[r, None], 1.0)
        excess = prefix[a:z] - prefix[ends[r], None] - cs[r, None] * (b[a:z] - b[ends[r], None])
        hi[r] = np.where(inside, excess / den, 0.0).max(axis=1)
        lo[r] = np.where(inside, (excess - charges[r, None]) / den, 0.0).max(axis=1)
    hi, lo = cs + hi, cs + lo
    return hi[:k], lo[:k], hi[k:], lo[k:]


_MAX_ENVELOPE_CELLS = 200_000


def maximal_envelope(
    f: StepFunction,
    refine: RefinePolicy | None = None,
    hull: Interval | None = None,
    upper_floor: float = 0.0,
) -> EnvelopePair:
    """Certified step-function bracket of Mf on ``hull``.

    The grid starts at the hull ends and the breakpoints of f inside it, so
    every grid cell lies in one cell of f, or in a half-line off the
    support, and Mf there is that cell's split max(C, R, L) (module
    docstring).  A sub-cell [a, b] gets the upper value max(Mf(a), Mf(b)),
    exact because R rises and L falls, and the lower value
    max(C, R(a), L(b)) with every chord's mass charged, the best average
    over the intervals containing it.  C comes once per cell of f that
    meets the hull, R and L once per grid point; no cell runs a search of
    its own.  Cells are
    bisected level by level until (upper - lower) <= tol * upper or the
    depth cap; ``depth_capped`` on the result counts the cells accepted at
    the cap with the gap still open.  The lower envelope is a valid global
    lower bound (it vanishes off the hull, and Mf >= 0); the upper envelope
    bounds Mf on the hull only.  ``upper_floor`` is max-ed into every upper
    cell; iterated application uses it to absorb tail mass of truncated
    inputs.
    """
    refine = refine or RefinePolicy()
    if f.is_zero and upper_floor == 0.0:
        z = StepFunction.zero()
        return EnvelopePair(z, z)
    hull = hull or default_hull(f)
    b = f._abs_arrays[0]
    sup = f.sup_abs()
    pts = np.concatenate(([hull.left], b[(b > hull.left) & (b < hull.right)], [hull.right]))
    left, right = pts[:-1], pts[1:]
    # refinement never leaves these cells, so C is needed on them alone
    cells = b.searchsorted(left, side="right") - 1
    c_lo, c_hi = _cell_floor(f, cells)

    def split(xs: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Mf, and R and L charged, at points xs of the extended cells ``at``
        r_hi, r_lo, l_hi, l_lo = _side_chords(f, xs, at)
        return np.minimum(np.maximum.reduce([c_hi[at + 1], r_hi, l_hi]), sup), r_lo, l_lo

    # a breakpoint on the grid ends two cells of f: R and L come from each,
    # Mf from the cell on its right, so both cells see one value
    mf, r_lo, l_lo = split(np.concatenate((left, right)), np.tile(cells, 2))
    k = len(left)
    mf = np.append(mf[:k], mf[-1])
    mf_l, mf_r, r_lo, l_lo = mf[:-1], mf[1:], r_lo[:k], l_lo[k:]

    def halves(a: np.ndarray, z: np.ndarray) -> np.ndarray:
        # the children (left, mid) and (mid, right) of each divided cell, in order
        return np.stack((a, z), axis=1).reshape(-1)

    done: list[tuple[np.ndarray, ...]] = []
    kept = capped = 0
    for depth in range(max(refine.max_depth, 0) + 1):
        hi_ends = np.maximum(mf_l, mf_r)
        hi = np.maximum(hi_ends, upper_floor)
        lo = np.minimum(np.maximum.reduce([c_lo[cells + 1], r_lo, l_lo]), sup)
        open_ = ~((hi - lo <= refine.tol * hi) | (hi <= 0.0) | (upper_floor >= hi_ends))
        mid = 0.5 * (left + right)
        divide = open_ & (left < mid) & (mid < right)
        if depth >= refine.max_depth:
            capped = int(np.count_nonzero(open_))
            divide[:] = False
        done.append((left[~divide], right[~divide], lo[~divide], hi[~divide]))
        kept += len(done[-1][0])
        if not divide.any():
            break
        if kept + 2 * np.count_nonzero(divide) > _MAX_ENVELOPE_CELLS:
            raise RuntimeError(
                "envelope refinement exceeded the cell budget; loosen tol or max_depth"
            )
        xm, cells = mid[divide], cells[divide]
        mf_m, r_m, l_m = split(xm, cells)
        left, right = halves(left[divide], xm), halves(xm, right[divide])
        mf_l, mf_r = halves(mf_l[divide], mf_m), halves(mf_m, mf_r[divide])
        r_lo, l_lo = halves(r_lo[divide], r_m), halves(l_m, l_lo[divide])
        cells = np.repeat(cells, 2)
    lefts, rights, lows, highs = (np.concatenate(col) for col in zip(*done))
    order = np.argsort(lefts)
    bps = np.append(lefts[order], rights[order[-1]])
    return EnvelopePair(
        StepFunction(bps, lows[order]), StepFunction(bps, highs[order]), depth_capped=capped
    )


def iterated_maximal(
    f: StepFunction,
    refine: RefinePolicy | None = None,
    hull: Interval | None = None,
) -> EnvelopePair:
    """Certified bracket of the iterated maximal function M(Mf) on ``hull``.

    The upper side evaluates M on the (truncated) upper envelope of Mf, built
    on a hull expanded once more; mass of Mf beyond that outer hull is
    dominated by A / dist(t, supp f) with A = int |f|, and any interval
    poking outside contributes at most the constant A / margin by the
    mediant inequality, which is folded in as ``upper_floor``.  The lower
    side applies the certified envelope machinery to the lower envelope of
    Mf, a genuine global minorant, and is capped pointwise by the upper side.
    ``depth_capped`` sums the counts of the three envelopes, both levels.
    """
    refine = refine or RefinePolicy()
    if f.is_zero:
        z = StepFunction.zero()
        return EnvelopePair(z, z)
    inner_hull = hull or default_hull(f)
    outer_hull = inner_hull.expanded(inner_hull.length)
    env1 = maximal_envelope(f, refine, outer_hull)
    env2_lo = maximal_envelope(env1.lower, refine, inner_hull)
    supp = f.support_hull()
    assert supp is not None
    mass = integrate(f.abs(), supp)
    tail = max(
        mass / (outer_hull.right - supp.right),
        mass / (supp.left - outer_hull.left),
    )
    env2_hi = maximal_envelope(env1.upper, refine, inner_hull, upper_floor=tail)
    upper2 = env2_hi.upper
    # the two sides are rounded separately and can cross by an ulp where
    # they close on a plateau; lowering a lower bound keeps it certified
    capped = env1.depth_capped + env2_lo.depth_capped + env2_hi.depth_capped
    return EnvelopePair(combine(env2_lo.lower, upper2, min), upper2, depth_capped=capped)


def commutator_envelope(
    b: StepFunction,
    f: StepFunction,
    refine: RefinePolicy | None = None,
    hull: Interval | None = None,
) -> EnvelopePair:
    """Certified bracket of C_b(f) on ``hull``.

    On each cell of b's partition the symbol value beta is constant, so
    C_b(f) coincides there with the maximal function of the fixed step
    function |beta - b(.)| |f(.)|; the pieces are bracketed independently
    and concatenated, and ``depth_capped`` sums their counts.
    """
    refine = refine or RefinePolicy()
    if f.is_zero:
        z = StepFunction.zero()
        return EnvelopePair(z, z)
    hull = hull or default_hull(f, b)
    pts = sorted(
        {hull.left, hull.right} | {p for p in b.breakpoints if hull.left < p < hull.right}
    )
    lo_bp, lo_vals, hi_vals, capped = [pts[:1]], [], [], 0
    for left, right in zip(pts[:-1], pts[1:]):
        beta = b(left)
        g = combine(b, f, lambda bv, fv: abs(beta - bv) * abs(fv))
        piece = maximal_envelope(g, refine, Interval(left, right))
        capped += piece.depth_capped
        grid = np.union1d(piece.lower.breakpoints, piece.upper.breakpoints)
        grid = np.concatenate(([left], grid[(grid > left) & (grid < right)], [right]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        lo_bp.append(grid[1:])
        lo_vals.append(_values_at(piece.lower, mids))
        hi_vals.append(_values_at(piece.upper, mids))
    lo, hi = (StepFunction(np.concatenate(lo_bp), np.concatenate(v)) for v in (lo_vals, hi_vals))
    return EnvelopePair(lo, hi, depth_capped=capped)


# ---------------------------------------------------------------------------
# Hardy operator on radial profiles


class HardyOriginWarning(UserWarning):
    """Raised when the Hardy operator is evaluated at the removable point 0."""


def hardy(p: RadialProfile, x: float) -> float:
    """Exact n-dimensional Hardy operator H f(x), the solid average of |f|
    over the ball of radius |x|.

    For a radial step profile the value is (n / r^n) * int_0^r |phi| s^(n-1) ds,
    a finite sum of monomial antiderivatives.  x = 0 is a removable limit;
    the first-cell value is returned under a warning to keep pipelines total.
    """
    n = p.dimension
    r = abs(float(x))
    if r == 0.0:
        warnings.warn(
            "Hardy operator at x = 0 returns the limit value |phi(0+)|",
            HardyOriginWarning,
            stacklevel=2,
        )
        if p.profile.is_zero:
            return 0.0
        return abs(p.profile(p.profile.breakpoints[0])) if p.profile.breakpoints[0] == 0.0 else 0.0
    total = 0.0
    for l, rr, v in p.profile.cells():
        lo, hi = max(l, 0.0), min(rr, r)
        if hi > lo:
            total += abs(v) * (hi**n - lo**n)
    return total / r**n
