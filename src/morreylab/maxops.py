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

The one-sided lemma
-------------------
With P(t) = int_{-inf}^t |f|, the average over [u, v] is the slope of the
chord of P from u to v.  A chord with u <= x <= v splits at x into [u, x]
and [x, v], and its average is their length-weighted mean (the mediant
inequality), so one of them averages at least as much.  Mf(x) is therefore
the larger one-sided maximum (Sawyer, Trans. AMS 297, 1986), each one pass
over the breakpoints on its side: no pair is searched.

The same scan for the fractional variant |Q|^(a-1) * int_Q |f| gives the
derivative sign (a-1)(A + c*d) + c(L + d), which is nondecreasing in d
(a, c >= 0), so any interior critical point is a minimum along the scan
direction and endpoint enumeration is again exact.  Its weight favours long
intervals, so the split fails for it: see the hull walk ``stepfn._pair_max``.

The per-cell split
------------------
Take a cell [l, r] of f where |f| = c (or a half-line off the support, with
c = 0) and x in it.  For a breakpoint v >= r, P(v) - P(x) equals
P(v) - P(r) + c(r - x), so the average over [x, v] is c + K_v / (v - x)
with K_v = P(v) - P(r) - c(v - r), and the right maximum is
R(x) = c + max(0, max_v K_v / (v - x)), the 0 standing for v = r, where
K_r = 0, and for the shrinking interval at x.  The left one is the mirror
L(x) = c + max(0, max_u K_u / (x - u)) over breakpoints u <= l, with
K_u = P(l) - P(u) - c(l - u).  So Mf = max(R, L).  R is nondecreasing: each
K_v / (v - x) with K_v > 0 rises as x moves toward v (terms with K_v <= 0
never exceed the 0).  L is nonincreasing by the mirror argument.  On a
sub-cell [a, b] the maximum of Mf is therefore max(Mf(a), Mf(b)), and its
minimum is max(R(a), L(b)) unless [a, b] holds the crossing x* of R and L.

The floor of a sub-cell adds a bridge: the average over [u_b, v_a], with v_a
the breakpoint where R(a) is attained and u_b the one where L(b) is (the
cell's end when the 0 wins).  That interval contains [a, b], so the floor
max(R(a), L(b), bridge), every chord's mass charged, is below Mf on the
sub-cell.  At x* the averages over [u*, x*] and [x*, v*] are equal, so the
one over [u*, v*] is their common value, the minimum of Mf on the cell:
once refinement has narrowed a sub-cell to the crossing's pair of argmaxes,
the bridge is exact.  On a wide sub-cell that holds x* with other argmaxes
the floor can be inexact: on one whole cell each of 3,000 random functions
of up to 20 cells it was low on 29, by up to 26 %, and halving toward x*
closed the gap within 6 halvings, as R(a) and L(b) both tend to the value
at x*.  Off the support one side is 0 and there is no bridge.

No quantity here depends on the sub-cell's width.  K_v is a difference of
prefix sums at two breakpoints, less c times their distance; x enters only
through v - x >= v - r.  The direct chord (P(v) - P(x)) / (v - x) instead
interpolates P(x), whose rounding error of about an ulp of max P swamps
the mass of a short sub-cell next to r.  The rounding of K and of the
bridge's prefix difference, a few ulps of max P, is charged on the lower
side.

The tangent query
-----------------
K_v / (v - x) + c = (P(v) - P(x)) / (v - x) is the slope from the point
(x, P(x)) to (v, P(v)), so R(x) - c is the largest such slope over the
breakpoints v >= r, less c.  The largest slope from a point left of a set
touches the upper hull of the set, and along the hull's vertices, left to
right, the slope from the point rises while the next hull edge is steeper
than it, then falls.  So a step to the next vertex gains exactly while
K_v / (v - x) + c is below the edge's slope, a test that holds on a prefix
of the path.  The hulls of all suffixes form one tree, each breakpoint's
parent the next vertex of its suffix's hull; binary lifting over it finds
the last vertex that gains in O(log n) per point.  L is the same query on
the mirror (-b, -P), whose negation is exact, so both sides score in the
same floats.  The charged value is the query from (x, P(x) + charge).  The
climb only picks the vertex: the value is K_v / (v - x) in the form above.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .stepfn import (
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
    "maximal",
    "fractional_maximal",
    "maximal_commutator",
    "commutator",
    "brute_force_maximal",
    "maximal_envelope",
    "iterated_maximal",
    "iterated_maximal_at",
    "commutator_envelope",
]

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


def maximal(f: StepFunction, x: float) -> float:
    """Exact Hardy-Littlewood maximal function of a step function at x: the
    larger of R(x) and L(x) (module docstring), one pass over each side."""
    x = float(x)
    if f.is_zero:
        return 0.0
    b, w, prefix = f._abs_arrays
    # x lies in [b[j - 1], b[j]), where |f| = c, and the first i breakpoints are below it
    j = int(b.searchsorted(x, side="right"))
    i = j - 1 if j and b[j - 1] == x else j
    c = float(w[j - 1]) if 0 < j < len(b) else 0.0
    r = ((prefix[j:] - prefix[j] - c * (b[j:] - b[j])) / (b[j:] - x)).max() if j < len(b) else 0.0
    l = ((prefix[j - 1] - prefix[:i] - c * (b[j - 1] - b[:i])) / (x - b[:i])).max() if i else 0.0
    # averages of |f| never exceed sup |f|; the clamp also guards the
    # cancellation noise of prefix differences over near-degenerate pairs
    return min(float(c + max(r, l, 0.0)), f.sup_abs())


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


def _side_chords(f: StepFunction, xs: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """R and L (module docstring) at each point x of xs in the closed
    extended cell ``cells`` of f: R(x) = c + max(0, max_v K_v / (v - x))
    over the breakpoints v > x at or right of the cell, L its mirror, with c
    the cell's value and K measured from the cell's end on that side.
    Returns Mf = max(R, L), clamped to sup |f|, then R with every chord's
    mass charged by :func:`_charge` and the index of the breakpoint where it
    is attained (the cell's end when the 0 attains it), then the same two
    for L.  All of them come from one tangent query (module docstring) per
    point, side and charge, on :attr:`stepfn.StepFunction._hull_tree`."""
    b, w, prefix = f._abs_arrays
    hx, hy, up, edge = f._hull_tree
    n, k = len(b), len(xs)
    c = np.concatenate(([0.0], w, [0.0]))[np.concatenate((cells, cells)) + 1]
    # R from the cell's right end over the breakpoints from j0 on; L from
    # its left end over those below j1, which is R of the mirror from node
    # 2n - j1 on; a cell end at x itself is no chord
    end_r, end_l = np.minimum(cells + 1, n - 1), np.maximum(cells, 0)
    j0 = cells + 1 + (b[end_r] == xs)
    j1 = cells + 1 - (b[end_l] == xs)
    start = np.concatenate((j0, 2 * n - j1))
    end = np.concatenate((end_r, 2 * n - 1 - end_l))
    live = np.flatnonzero(np.concatenate((j0 < n, j1 > 0)))
    m = len(live)
    # rows: the live R and L queries, then the same with every chord's mass charged
    v, e, x, cl = (np.concatenate((a[live], a[live])) for a in (start, end, np.concatenate((xs, -xs)), c))
    charge = np.repeat([0.0, _charge(prefix)], m)
    xe, ye = hx[e], hy[e]

    def score(v: np.ndarray) -> np.ndarray:
        # K_v / (v - x), charged: x enters only through v - x
        return (hy[v] - ye - cl * (hx[v] - xe) - charge) / (hx[v] - x)

    # along the hull path from the first chord end the slope from the query
    # point rises, then falls: climb to the last vertex that its successor
    # beats, then rescore it and the next two, as a rounded comparison can
    # stop the climb a vertex early or late
    for table in reversed(up):
        nxt = table[v]
        v = np.where(score(nxt) + cl < edge[nxt], nxt, v)
    cand = np.stack((v, up[0][v], up[0][up[0][v]]))
    scores = np.stack([score(u) for u in cand])
    pick = scores.argmax(axis=0)
    top, node = scores[pick, np.arange(2 * m)], cand[pick, np.arange(2 * m)]
    hi, lo, at = c.copy(), c.copy(), end.copy()
    hi[live] += np.maximum(top[:m], 0.0)
    lo[live] += np.maximum(top[m:], 0.0)
    at[live] = np.where(top[m:] > 0.0, node[m:], end[live])
    at[k:] = 2 * n - 1 - at[k:]
    return np.minimum(np.maximum(hi[:k], hi[k:]), f.sup_abs()), lo[:k], at[:k], lo[k:], at[k:]


def _cell_floor(
    f: StepFunction, cells: np.ndarray, r: np.ndarray, v: np.ndarray, l: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """max(R(a), L(b), bridge) (module docstring) on sub-cells [a, b] of the
    extended cells ``cells`` of f, from R(a) and L(b) charged and their
    breakpoints v and u, as :func:`_side_chords` returns them.  The bridge,
    the average over [b[u], b[v]] charged by :func:`_charge`, exists on the
    support only."""
    b, w, prefix = f._abs_arrays
    on = (cells >= 0) & (cells < len(w))
    v, u = v[on], u[on]
    bridge = np.zeros(len(cells))
    bridge[on] = (prefix[v] - prefix[u] - _charge(prefix)) / (b[v] - b[u])
    return np.minimum(np.maximum.reduce([r, l, bridge]), f.sup_abs())


_MAX_ENVELOPE_CELLS = 200_000


def maximal_envelope(
    f: StepFunction,
    tol: float = 1e-3,
    hull: Interval | None = None,
    upper_floor: float = 0.0,
) -> EnvelopePair:
    """Certified step-function bracket of Mf on ``hull``.

    The grid starts at the hull ends and the breakpoints of f inside it, so
    every grid cell lies in one cell of f, or in a half-line off the
    support, and Mf there is max(R, L) (module docstring).  A sub-cell
    [a, b] gets the upper value max(Mf(a), Mf(b)), exact because R rises
    and L falls, and the lower value :func:`_cell_floor`.  R and L come once
    per grid point, with the breakpoints that attain them, and the floor is
    O(1) per sub-cell; no cell runs a search of its own.

    Cells are bisected level by level until no open cell can be split.  A
    cell closes when (upper - lower) <= tol * upper, when its upper value is
    0 or at most ``upper_floor``, or when no float lies strictly inside it
    (its midpoint rounds to an end).  The float grid is the only depth cap:
    ``depth_capped`` on the result counts the cells accepted open at float
    resolution, and a tol that needs more than _MAX_ENVELOPE_CELLS cells
    raises ValueError.  ``tol`` must be finite and positive, also for the
    zero function.  The lower envelope is a valid global lower bound
    (it vanishes off the hull, and Mf >= 0); the upper envelope bounds Mf
    on the hull only.  ``upper_floor`` is max-ed into every upper cell;
    iterated application uses it to absorb tail mass of truncated inputs.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"need a finite tol > 0, got tol={tol}")
    if f.is_zero and upper_floor == 0.0:
        z = StepFunction.zero()
        return EnvelopePair(z, z)
    hull = hull or default_hull(f)
    b = f._abs_arrays[0]
    pts = np.concatenate(([hull.left], b[(b > hull.left) & (b < hull.right)], [hull.right]))
    left, right = pts[:-1], pts[1:]
    cells = b.searchsorted(left, side="right") - 1
    # a breakpoint on the grid ends two cells of f: R and L come from each,
    # Mf from the cell on its right, so both cells see one value
    mf, r_lo, v, l_lo, u = _side_chords(f, np.concatenate((left, right)), np.tile(cells, 2))
    k = len(left)
    mf = np.append(mf[:k], mf[-1])
    mf_l, mf_r, r_lo, v, l_lo, u = mf[:-1], mf[1:], r_lo[:k], v[:k], l_lo[k:], u[k:]

    def halves(a: np.ndarray, z: np.ndarray) -> np.ndarray:
        # the children (left, mid) and (mid, right) of each divided cell, in order
        return np.stack((a, z), axis=1).reshape(-1)

    done: list[tuple[np.ndarray, ...]] = []
    kept = capped = 0
    while True:
        hi_ends = np.maximum(mf_l, mf_r)
        hi = np.maximum(hi_ends, upper_floor)
        lo = _cell_floor(f, cells, r_lo, v, l_lo, u)
        open_ = ~((hi - lo <= tol * hi) | (hi <= 0.0) | (upper_floor >= hi_ends))
        mid = 0.5 * (left + right)
        divide = open_ & (left < mid) & (mid < right)
        capped += int(np.count_nonzero(open_ & ~divide))
        done.append((left[~divide], right[~divide], lo[~divide], hi[~divide]))
        kept += len(done[-1][0])
        if not divide.any():
            break
        if kept + 2 * np.count_nonzero(divide) > _MAX_ENVELOPE_CELLS:
            raise ValueError(f"envelope refinement exceeded its {_MAX_ENVELOPE_CELLS}-cell budget; loosen tol")
        xm, cells = mid[divide], cells[divide]
        mf_m, r_m, v_m, l_m, u_m = _side_chords(f, xm, cells)
        left, right = halves(left[divide], xm), halves(xm, right[divide])
        mf_l, mf_r = halves(mf_l[divide], mf_m), halves(mf_m, mf_r[divide])
        r_lo, v = halves(r_lo[divide], r_m), halves(v[divide], v_m)
        l_lo, u = halves(l_m, l_lo[divide]), halves(u_m, u[divide])
        cells = np.repeat(cells, 2)
    lefts, rights, lows, highs = (np.concatenate(col) for col in zip(*done))
    order = np.argsort(lefts)
    bps = np.append(lefts[order], rights[order[-1]])
    return EnvelopePair(
        StepFunction(bps, lows[order]), StepFunction(bps, highs[order]), depth_capped=capped
    )


def _first_level(f: StepFunction, tol: float, hull: Interval) -> tuple[EnvelopePair, float]:
    """The first level of M(Mf) for points of ``hull``: the envelope of Mf
    on the outer hull, ``hull`` expanded by its length on each side, and the
    tail, a bound of Mf past the outer hull.

    The tail: with A = int |f|, an interval that reaches a point t right of
    the support has |Q| >= t - sup(supp f) wherever it holds mass, so
    Mf(t) <= A / dist(t, supp f).  When the support lies inside the outer
    hull, that is at most ``tail``, the larger of A / dist over the outer
    hull's two ends, at every t past it; otherwise ``tail`` is sup |f|,
    which bounds Mf everywhere.  So for x in ``hull`` and an interval Q
    containing x, the mediant inequality splits Q into its part in the
    outer hull, which holds x and where Mf is below the first envelope's
    upper side, and at most two parts past it, where Mf is below the tail:
    the average of Mf over Q is at most the larger of M(upper side)(x) and
    the tail.
    """
    outer_hull = hull.expanded(hull.length)
    env1 = maximal_envelope(f, tol, outer_hull)
    supp = f.support_hull()
    assert supp is not None
    if not (outer_hull.left < supp.left and supp.right < outer_hull.right):
        return env1, f.sup_abs()
    mass = integrate(f.abs(), supp)
    tail = max(
        mass / (outer_hull.right - supp.right),
        mass / (supp.left - outer_hull.left),
    )
    return env1, tail


def iterated_maximal(
    f: StepFunction,
    tol: float = 1e-3,
    hull: Interval | None = None,
) -> EnvelopePair:
    """Certified bracket of the iterated maximal function M(Mf) on ``hull``.

    The upper side evaluates M on the upper side of the first envelope, the
    envelope of Mf on an outer hull, with the tail of :func:`_first_level`
    folded in as ``upper_floor``.  The lower side applies the certified
    envelope machinery to the first envelope's lower side, a genuine global
    minorant of Mf, and is capped pointwise by the upper side.  Each of the
    three envelopes, both levels, bisects its cells until every cell has
    (upper - lower) <= tol * upper, an upper value of 0 or at most its
    ``upper_floor``, or no float strictly inside it: the float grid is the
    only depth cap.  ``depth_capped`` sums the three counts of cells
    accepted open at float resolution.

    tol bounds each envelope, not the composed bracket, which can be wider:
    on the 16 ten-cell functions of the ``m2-bracket`` benchmark at its 17
    points, 79 of the 272 brackets exceed tol 0.05, and 90 exceed tol 1e-3.
    Where M(Mf) is needed at given points, :func:`iterated_maximal_at` gives
    a bracket within tol from the first envelope alone; this function stays
    for the callers that need the whole bracket, such as the distribution of
    its lower side.

    In the n cells of the first envelope, the second level costs one O(n)
    hull pass and O(log n) per grid point (the tangent query of the module
    docstring).  At the default tol on a 200-cell input whose first
    envelope has 51,152 cells, each of the two second-level envelopes took
    0.5-0.7 s of CPU on a 2-vCPU host, 1.6 s for the whole bracket.
    """
    if f.is_zero:  # the zero pair, once tol is checked
        return maximal_envelope(f, tol)
    inner_hull = hull or default_hull(f)
    env1, tail = _first_level(f, tol, inner_hull)
    env2_lo = maximal_envelope(env1.lower, tol, inner_hull)
    env2_hi = maximal_envelope(env1.upper, tol, inner_hull, upper_floor=tail)
    upper2 = env2_hi.upper
    # the two sides are rounded separately and can cross by an ulp where
    # they close on a plateau; lowering a lower bound keeps it certified
    capped = env1.depth_capped + env2_lo.depth_capped + env2_hi.depth_capped
    return EnvelopePair(combine(env2_lo.lower, upper2, min), upper2, depth_capped=capped)


def iterated_maximal_at(
    f: StepFunction,
    xs: np.ndarray | list[float],
    tol: float = 1e-3,
    hull: Interval | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Certified bracket of M(Mf) at each point of xs in ``hull``: the
    arrays ``lower`` and ``upper`` over xs, and the first envelope's
    ``depth_capped``.  A point outside ``hull`` raises ValueError, as does a
    tol that is not finite and positive (also for the zero function, whose
    bracket is 0).

    Only the first envelope is built, as in :func:`iterated_maximal`: the
    envelope of Mf on the outer hull, refined to tol, with lower side g and
    upper side h.  Then one :func:`_side_chords` query per side of it gives
    the one-sided maxima of g and of h at every point of xs.  ``upper`` is
    max(Mh(x), tail); ``lower`` is the larger of g's charged R(x) and L(x),
    clamped to sup g and capped by ``upper``.

    Why the bracket holds.  g <= Mf everywhere, since the first envelope's
    lower side vanishes off its hull, and M is monotone, so
    Mg(x) <= M(Mf)(x); the charged R and L are at most the one-sided maxima
    of g, whose larger one is Mg(x) by the mediant inequality (module
    docstring).  On the outer hull Mf <= h, and past it Mf <= tail, so the
    split of :func:`_first_level` at x gives M(Mf)(x) <= max(Mh(x), tail).

    Why the gap is at most tol.  Every cell of the first envelope that is
    not depth-capped has g >= (1 - tol) h: it closed on the gap, or on an
    upper value of 0.  M is monotone and positively homogeneous, so
    Mg >= (1 - tol) Mh when ``depth_capped`` is 0.  When ``hull`` holds
    the support of f, as the default hull does, the tail never binds: the
    outer hull reaches at least |hull| past the support on each side, so
    tail <= int |f| / |hull| <= Mf(x) <= h(x) <= Mh(x) for x in ``hull``.
    So upper - lower <= tol * upper, up to the rounding of the floats and
    the charge.
    """
    xs = np.asarray(xs, dtype=float)
    inner_hull = hull or default_hull(f)
    if not np.all((inner_hull.left <= xs) & (xs <= inner_hull.right)):
        raise ValueError(f"points must lie in the hull {inner_hull.as_tuple()}")
    if f.is_zero:  # zeros, once tol is checked
        maximal_envelope(f, tol)
        return np.zeros(len(xs)), np.zeros(len(xs)), 0
    env1, tail = _first_level(f, tol, inner_hull)

    def sides(g: StepFunction) -> tuple[np.ndarray, ...]:
        cells = g._abs_arrays[0].searchsorted(xs, side="right") - 1
        return _side_chords(g, xs, cells)

    upper = np.maximum(sides(env1.upper)[0], tail)
    _, r, _, l, _ = sides(env1.lower)
    lower = np.minimum(np.minimum(np.maximum(r, l), env1.lower.sup_abs()), upper)
    return lower, upper, env1.depth_capped


def commutator_envelope(
    b: StepFunction,
    f: StepFunction,
    tol: float = 1e-3,
    hull: Interval | None = None,
) -> EnvelopePair:
    """Certified bracket of C_b(f) on ``hull``.

    On each cell of b's partition the symbol value beta is constant, so
    C_b(f) coincides there with the maximal function of the fixed step
    function |beta - b(.)| |f(.)|; the pieces are bracketed independently
    and concatenated, and ``depth_capped`` sums their counts.
    """
    if f.is_zero:  # the zero pair, once tol is checked
        return maximal_envelope(f, tol)
    hull = hull or default_hull(f, b)
    pts = sorted(
        {hull.left, hull.right} | {p for p in b.breakpoints if hull.left < p < hull.right}
    )
    lo_bp, lo_vals, hi_vals, capped = [pts[:1]], [], [], 0
    for left, right in zip(pts[:-1], pts[1:]):
        beta = b(left)
        g = combine(b, f, lambda bv, fv: abs(beta - bv) * abs(fv))
        piece = maximal_envelope(g, tol, Interval(left, right))
        capped += piece.depth_capped
        grid = np.union1d(piece.lower.breakpoints, piece.upper.breakpoints)
        grid = np.concatenate(([left], grid[(grid > left) & (grid < right)], [right]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        lo_bp.append(grid[1:])
        lo_vals.append(_values_at(piece.lower, mids))
        hi_vals.append(_values_at(piece.upper, mids))
    lo, hi = (StepFunction(np.concatenate(lo_bp), np.concatenate(v)) for v in (lo_vals, hi_vals))
    return EnvelopePair(lo, hi, depth_capped=capped)
