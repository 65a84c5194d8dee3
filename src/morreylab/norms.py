"""Supremum-type norms over all intervals, exact or with certified brackets.

Every norm returns a :class:`NormEstimate`: ``value`` is attained at
``argmax_interval`` and ``upper_bound`` holds for every interval.  The
Morrey and weak Zygmund-Morrey norms are exact; the Zygmund-Morrey norm
and the characterization functional are bracketed by the anchored search
below; only the BMO seminorms read a family.  Batches of intervals are
scored by the level sweep (``stepfn.level_measures``), folded into the
Luxemburg root, the llog functional and the p-oscillation
(``orlicz._llog_rows``, ``_oscillation_rows``).

Exact norms
-----------
For the Morrey objective |Q|^((lam-1)/p) * (int_Q |f|^p)^(1/p) the
one-endpoint scan has derivative sign (lam-1)(A + c d) + c (L + d), which
is nondecreasing in the penetration depth, so the supremum over all
intervals is attained at breakpoint pairs of f: see ``stepfn._pair_max``.

The weak L(1+log+ L) average over Q is max_k v_k |E_k cap Q| / |Q| with
E_k = {|f| >= v_k} over the distinct values v_k of |f|
(``orlicz.weak_llog_average``).  Exchanging the two maxima, the weak norm
is max_k v_k ||1_{E_k}||_{M_{1,lam}}: one p = 1 Morrey norm per superlevel
set, walked by the same kernel over the component ends of E_k
(lengthening Q into E_k or shortening it out of the complement raises
|Q|^(lam-1) |E_k cap Q|).  As ||1_E||_{M_{1,lam}} <= |E|^lam, levels are
scanned in decreasing order of v_k |E_k|^lam until that cannot win, each
walk starting from the best of the levels before.

The anchored search
-------------------
For obj(Q) = |Q|^lam t_Q, t_Q the llog Luxemburg average of f over Q, four
lemmas follow from convexity and 1 + log+(ab) <= (1 + log+ a)(1 + log+ b):

- sliding: for Q of length L, G(a) = int_a^(a+L) Phi(|f|/t_Q) is piecewise
  linear in a, with kinks only where a or a + L is a breakpoint, and 0 far
  out; so some kink a' has G(a') >= G(a) = L, and t_Q' >= t_Q for
  Q' = (a', a' + L).  The supremum is thus over intervals with one end,
  the anchor, at a breakpoint;
- containment: Q inside Q' gives obj(Q) <= obj(Q') (|Q'|/|Q|)^(1-lam);
- one cell: inside the anchor's first cell t_Q is its |value|, so obj rises
  with |Q|;
- tail: let Q run from an anchor a past the far end of the support, which
  lies at distance D_a from a.  f vanishes on the rest of Q, so
  int_Q Phi(|f|/t) does not depend on where Q ends.  Over the suffix (the
  support beyond a) let S be the mass of |f| and, for the values v > t of
  |f|, U and W the sums of l v and l v log v, l the measure of {|f| = v};
  put C = S + W and s = -log t.  As Phi(v/t) is (v/t)(1 + log v - log t)
  for v > t and v/t below, the integral is e^s (C + U s), so t_Q solves
  |Q| = e^s (C + U s), and log obj = -(1-lam) s + lam log(C + U s).  |Q| rises
  with s, and |Q| >= D_a is s >= s_D.  Between consecutive levels of |f|, U
  and C are constant, and log obj is concave in s (its second derivative is
  -lam U^2 / (C + U s)^2), stationary at s* = lam/(1-lam) - C/U.  So the
  tail's supremum is the larger of obj at |Q| = D_a and the values at each
  piece's s*, clipped to the piece, where those lie past s_D.

At most half.  U (1 - s) - C = sum_{v>t} l v (log t - log v) - sum_{v<=t} l v
<= 0, so U <= C + U s and d(log obj)/ds = -(1-lam) + lam U / (C + U s) <= 2 lam
- 1.  For lam <= 1/2 log obj never rises in s, so no tail beats |Q| = D_a.

A region is an anchor, a side and a range (lo, d] of the free end's
distance, scored at d and bounded by score (d/lo)^(1-lam).  First cells
are scored once, and each anchor and side then has the region (first cell,
D].  For lam > 1/2 one level sweep over the suffixes gives every anchor's
tail supremum, kept in logs so that it has no float-range limit (one past
float range raises OverflowError), and its maximizing Q, scored with every
other interval.  That Q's length is capped where one window could not be
scored in floats: a +- |Q| finite, max|f| |Q| and the mass over |Q| normal.
The cap limits only which interval attains ``value``, never the upper side.
Regions bounded above (1 + 1e-3) times the best score are cut into eight
geometric pieces until none is.  A last batch scores the breakpoints inside
every region still bounded above the best, and 63 evenly spaced points
inside the 64 highest of them.  ``upper_bound`` is the largest of the
bounds left and the tails' suprema.  A batch costs its intervals times the
distinct levels of |f|, and the tails the 2m anchors times the levels; one
that would take the total past ``_SEARCH_BUDGET`` raises first.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .families import FamilySpec, ResolvedFamily, resolve_family
from .orlicz import _llog_rows
from .stepfn import (EnvelopePair, Interval, StepFunction, _pair_max, level_measures, superlevels, window_integrals,
                     window_split)

__all__ = [
    "NormEstimate",
    "FamilySpec",
    "morrey_norm",
    "zygmund_morrey_norm",
    "weak_zygmund_morrey_norm",
    "bmo_seminorm",
    "bmo_p_seminorm",
    "characterization_functional",
    "weak_type_morrey_check",
]


@dataclass(frozen=True)
class NormEstimate:
    """Supremum with a certified two-sided bracket: ``upper_bound`` holds for
    every interval, and ``value`` is attained at ``argmax_interval``: the
    maximum over ``family`` (BMO), the exact supremum (Morrey, weak), or, with
    no family, the best interval the anchored search found (module docstring)."""

    value: float
    upper_bound: float
    argmax_interval: Interval | None
    family: FamilySpec | None

    def __post_init__(self) -> None:
        if self.value > self.upper_bound * (1 + 1e-12) + 1e-300:
            raise ValueError("norm bracket is inverted")

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "upper_bound": self.upper_bound,
            "argmax": None
            if self.argmax_interval is None
            else list(self.argmax_interval.as_tuple()),
            "family": None if self.family is None else self.family.to_json_obj(),
        }


# ---------------------------------------------------------------------------
# the anchored search (module docstring)


_SEARCH_BUDGET = 2e8  # intervals scored times distinct levels of |f|
_LOG_MAX, _LOG_TINY = math.log(sys.float_info.max), math.log(sys.float_info.min)


def _tails(f: StepFunction, lam: float, E: np.ndarray, far: np.ndarray) -> tuple[float, np.ndarray]:
    """The tail lemma (module docstring) for every anchor E looking toward
    far, the far end of the support: the supremum over the Q that run from an
    anchor past far, and each anchor's free end of its maximizing Q (far
    itself where no Q past far beats it), capped so that its window is scored
    in floats.  Kept in logs, the supremum has no float-range limit short of
    its own."""
    b, w, prefix = f._abs_arrays
    lefts, rights = np.minimum(E, far), np.maximum(E, far)
    mass = window_integrals(w, prefix, window_split(b, lefts, rights))
    log_d, u, c = np.log(rights - lefts), np.zeros(len(E)), mass.copy()
    best, at = np.full(len(E), -np.inf), log_d.copy()
    levels = np.unique(w)[::-1]
    sig = -np.log(levels[levels > 0])  # the pieces' ends in s; the sweep's zero level comes last, unpaired
    for (v, meas), lo, hi in zip(level_measures(f, lefts, rights), sig, np.append(sig[1:], np.inf)):
        u += meas * v
        c += meas * v * math.log(v)
        with np.errstate(divide="ignore", over="ignore"):
            ratio = c / u  # inf where u = 0, c being the mass then, or u is below c by the float range
        flat = np.isinf(ratio)  # there s* = -inf and c + u s is c to rounding
        s = np.clip(lam / (1.0 - lam) - ratio, lo, hi)  # the concave piece's maximum
        inner = np.log(np.where(flat, c, u)) + np.log(np.where(flat, 1.0, ratio + s))  # log(c + u s)
        g, length = lam * inner - (1.0 - lam) * s, s + inner
        hit = (length > log_d) & (g > best)
        best[hit], at[hit] = g[hit], length[hit]
    top = float(best.max())
    if top >= _LOG_MAX:
        raise OverflowError(f"the Zygmund-Morrey upper side e^{top:.6g} exceeds float range")
    # max|f| |Q| and mass / |Q| stay normal and E +- |Q| finite, each with a factor 4 to spare,
    # as the llog Newton step adds to |Q| a term at most |Q|
    cap = np.minimum.reduce((np.full(len(E), _LOG_MAX - math.log(w.max())), np.log(mass) - _LOG_TINY,
                             np.log(sys.float_info.max - np.abs(E)))) - math.log(4.0)
    return math.exp(top), E + np.copysign(np.exp(np.minimum(at, cap)), far - E)


def _anchored_search(f: StepFunction, lam: float) -> tuple[NormEstimate, NormEstimate]:
    """The brackets of the Zygmund-Morrey norm and of the characterization
    functional (module docstring)."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, None), NormEstimate(0.0, 0.0, None, None)
    b, w, _ = f._abs_arrays
    levels, charged, found = len(np.unique(w)), 0, [(0.0, None), (0.0, None)]

    def charge(intervals: int) -> None:
        nonlocal charged
        charged += intervals * levels
        if charged > _SEARCH_BUDGET:
            raise ValueError(f"the anchored search would score {charged:.3g} interval-levels, "
                             f"over its budget of {_SEARCH_BUDGET:.3g}")

    def score(e: np.ndarray, v: np.ndarray) -> np.ndarray:
        charge(len(e))
        lefts, rights = np.minimum(e, v), np.maximum(e, v)
        rows = [(rights - lefts) ** lam * r for r in _llog_rows(f, lefts, rights)]
        for k, row in enumerate(rows):
            i = int(np.argmax(row))
            if row[i] > found[k][0]:
                found[k] = (float(row[i]), Interval(lefts[i], rights[i]))
        return rows[0]

    # anchors b[:-1] look right, b[1:] left: first cells end at near, the support at far
    m = len(w)
    E, near, far = np.concatenate((b[:-1], b[1:])), np.concatenate((b[1:], b[:-1])), np.repeat(b[[-1, 0]], m)
    S = score(np.concatenate((E, E)), np.concatenate((near, far)))[m * 2:]  # one-cell lemma: first cells done
    tail = 0.0  # the tails past far; for lam <= 1/2 none beats the score at far (module docstring)
    if lam > 0.5:
        charge(2 * m)
        tail, free = _tails(f, lam, E, far)
        score(E, free)
    LO, HI = near, far  # regions (near, far], scored at far
    while True:
        bound = S * (np.abs(HI - E) / np.abs(LO - E)) ** (1.0 - lam)
        cut = bound > (1.0 + 1e-3) * found[0][0]
        if not cut.any():
            break
        e, lo, hi = E[cut], LO[cut], HI[cut]
        steps = (np.abs(hi - e) / np.abs(lo - e))[:, None] ** (np.arange(1, 8) / 8.0)
        ends = np.column_stack((lo, e[:, None] + (lo - e)[:, None] * steps, hi))
        e, lo, hi = np.repeat(e, 8), ends[:, :-1].ravel(), ends[:, 1:].ravel()
        E, LO, HI = (np.concatenate((x[~cut], y)) for x, y in ((E, e), (LO, lo), (HI, hi)))
        S = np.concatenate((S[~cut], score(e, hi)))
    hot = bound > found[0][0]  # polish: the breakpoints inside each, 63 points in the 64 highest (one at least)
    start = b.searchsorted(np.minimum(LO[hot], HI[hot]), side="right")
    count = b.searchsorted(np.maximum(LO[hot], HI[hot])) - start
    at, top = np.repeat(np.arange(len(count)), count), np.argsort(-bound, kind="stable")[:min(count.size, 64) or 1]
    grid = LO[top, None] + (HI - LO)[top, None] * np.linspace(0.0, 1.0, 65)[1:-1]
    score(np.concatenate((E[hot][at], np.repeat(E[top], 63))),
          np.concatenate((b[np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count) + start[at]], grid.ravel())))
    upper = max(found[0][0], float(bound.max(initial=0.0)), tail)
    (value, arg), (func, func_arg) = found
    return NormEstimate(value, upper, arg, None), NormEstimate(func, max(func, 2.0 * upper), func_arg, None)


# ---------------------------------------------------------------------------
# Morrey norm (exact)


def morrey_norm(f: StepFunction, p: float, lam: float) -> NormEstimate:
    """Morrey norm sup_Q |Q|^((lam-1)/p) (int_Q |f|^p)^(1/p), n = 1, exact
    by the hull walk over breakpoint pairs (module docstring)."""
    if p < 1 or not math.isfinite(p):
        raise ValueError("p must satisfy 1 <= p < inf")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, None)
    b = np.asarray(f.breakpoints)
    w = np.abs(np.asarray(f.values)) ** p
    prefix = np.concatenate(([0.0], np.cumsum(w * np.diff(b))))
    e = (lam - 1.0) / p
    exact, pair = _pair_max(b[:-1], prefix[:-1], b[1:], prefix[1:], e, p, float(w.max()))
    return NormEstimate(exact, exact, pair, None)


# ---------------------------------------------------------------------------
# Zygmund-Morrey scale


def zygmund_morrey_norm(f: StepFunction, lam: float) -> NormEstimate:
    """sup_Q |Q|^lam * (Luxemburg llog average of f over Q), n = 1, bracketed
    by the anchored search (module docstring)."""
    return _anchored_search(f, lam)[0]


def _superlevel_max(g: StepFunction, lam: float, strict: bool = False) -> tuple[float, Interval | None]:
    """max over the distinct levels t of |g| of t * ||1_E||_{M_{1,lam}} with
    E = {|g| >= t}, or {|g| > t} when ``strict``, and the attaining interval;
    each Morrey norm is the hull walk over E's component ends (module
    docstring)."""
    best, arg = 0.0, None
    b, w, _ = g._abs_arrays
    dx = np.diff(b)
    levels, meas = superlevels(dx, w)
    coef, cut = levels, np.arange(len(levels))
    if strict:  # {|g| > levels[k]} = {|g| >= levels[k + 1]}
        coef, cut = levels[:-1], cut[1:]
    bound = coef * meas[cut] ** lam
    for k in np.argsort(-bound, kind="stable"):
        if not bound[k] > best:
            break
        inside = (w >= levels[cut[k]]).astype(float)
        prefix = np.concatenate(([0.0], np.cumsum(inside * dx)))
        edge = np.diff(inside, prepend=0.0, append=0.0)
        starts, ends = np.flatnonzero(edge > 0), np.flatnonzero(edge < 0)
        # the floor sits 1e-12 below best / coef: no pair with coef * v > best is left out
        floor = best / coef[k] * (1.0 - 1e-12)
        v, q = _pair_max(b[starts], prefix[starts], b[ends], prefix[ends], lam - 1.0, 1.0, 1.0, floor)
        if coef[k] * v > best:
            best, arg = float(coef[k] * v), q
    return best, arg


def weak_zygmund_morrey_norm(f: StepFunction, lam: float) -> NormEstimate:
    """sup_Q |Q|^lam * (weak L(1+log+ L) average of f over Q), n = 1, exact
    by the superlevel reduction (module docstring)."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, None)
    exact, pair = _superlevel_max(f, lam)
    return NormEstimate(exact, exact, pair, None)


def characterization_functional(f: StepFunction, lam: float) -> NormEstimate:
    """sup_Q |Q|^lam * (1/|Q|) int_Q |f| (1 + log+(|f| / mean_Q |f|)).

    Per interval the functional sits between the Luxemburg average and
    twice it, so its value is the best over the intervals the anchored
    search scores and its upper bound twice the Zygmund-Morrey one.
    """
    return _anchored_search(f, lam)[1]


# ---------------------------------------------------------------------------
# BMO


def _oscillation_rows(b: StepFunction, lefts: np.ndarray, rights: np.ndarray, p: float) -> np.ndarray:
    """p-mean oscillation of b over every interval (l, r) at once: the level
    sweep's sum of |v - mean_Q|^p |{b = v} cap Q|, plus the zero slack
    outside the support."""
    bp = np.asarray(b.breakpoints)
    vals = np.asarray(b.values)
    prefix = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
    area = rights - lefts
    mean = window_integrals(vals, prefix, window_split(bp, lefts, rights)) / area
    outside = np.maximum(np.minimum(rights, bp[0]) - lefts, 0.0)
    outside += np.maximum(rights - np.maximum(lefts, bp[-1]), 0.0)
    total = np.abs(mean) ** p * outside
    for v, meas in level_measures(b, lefts, rights, signed=True):
        total += np.abs(v - mean) ** p * meas
    return (total / area) ** (1.0 / p)


def _two_level_oscillation_sup(jump: float, p: float) -> float:
    """sup over split fractions a of the p-oscillation of a two-valued cell,
    jump * sup g^(1/p) with g(a) = a (1-a)^p + (1-a) a^p on [0, 1].

    Each of the four terms of g'(a) is at most 1 or p in size, so
    |g'| <= 2(p+1); every a lies within 1/4000 of the 2001-point grid, so
    sup g <= max over the grid of g + (p+1)/2000, a proved bound.
    """
    a = np.linspace(0.0, 1.0, 2001)
    g = a * (1 - a) ** p + (1 - a) * a**p
    return float(jump * (np.max(g) + (p + 1.0) / 2000.0) ** (1.0 / p))


def _bmo_upper(value: float, b: StepFunction, p: float, fam: ResolvedFamily) -> float:
    vals = (0.0,) + b.values + (0.0,)
    max_jump = max(abs(x - y) for x, y in zip(vals, vals[1:]))
    jump_term = _two_level_oscillation_sup(max_jump, p)
    gaps = [r - l for l, r, _ in b.cells()]
    delta = min(gaps)
    shift = 2.0 * value * fam.cover_ratio_sup(delta) ** (1.0 / p)
    supp = b.support_hull()
    assert supp is not None
    margin = min(supp.left - fam.hull.left, fam.hull.right - supp.right)
    mass_p = math.fsum((r - l) * abs(v) ** p for l, r, v in b.cells())
    outside = 2.0 * (mass_p / margin) ** (1.0 / p) if margin > 0 else math.inf
    return max(value, jump_term, shift, outside)


def bmo_seminorm(b: StepFunction, family: FamilySpec | None = None) -> NormEstimate:
    """Mean-oscillation seminorm sup_Q (1/|Q|) int_Q |b - mean_Q b|."""
    return bmo_p_seminorm(b, 1.0, family)


def bmo_p_seminorm(
    b: StepFunction, p: float, family: FamilySpec | None = None
) -> NormEstimate:
    """p-mean oscillation sup_Q ((1/|Q|) int_Q |b - mean_Q b|^p)^(1/p)."""
    if p < 1 or not math.isfinite(p):
        raise ValueError("p must satisfy 1 <= p < inf")
    if b.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    fam = resolve_family(family, b)
    osc = _oscillation_rows(b, fam.lefts, fam.rights, p)
    k = int(np.argmax(osc))
    value, arg = (float(osc[k]), Interval(fam.lefts[k], fam.rights[k])) if osc[k] > 0.0 else (0.0, None)
    upper = _bmo_upper(value, b, p, fam)
    return NormEstimate(value, upper, arg, fam.spec)


# ---------------------------------------------------------------------------
# weak-type Morrey constant (reported)


def weak_type_morrey_check(f: StepFunction, lam: float, envelope: EnvelopePair) -> float:
    """Empirical constant of the weak-type Morrey inequality for M:
    sup over intervals B and jump levels t of the lower envelope of
    t |{Mf > t} cap B| / (|B|^(1-lam) ||f||_{M_{1,lam}}).

    The sup over B is the Morrey norm of the superlevel indicator, scanned
    exactly, so the constant is attained by the lower envelope: a certified
    lower bound on the best constant; reported, never asserted.
    """
    if f.is_zero or envelope.lower.is_zero:
        return 0.0
    norm = morrey_norm(f, 1.0, lam).upper_bound
    if norm <= 0.0:
        return 0.0
    return _superlevel_max(envelope.lower, lam, strict=True)[0] / norm
