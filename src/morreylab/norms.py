"""Supremum-type norms over all intervals, exact or with certified brackets.

Every norm returns a :class:`NormEstimate`: ``value`` is attained at
``argmax_interval`` and ``upper_bound`` holds for every interval.  The
Morrey and weak Zygmund-Morrey norms are exact: without a family,
``value == upper_bound``; an explicit family makes ``value`` the family
maximum and leaves ``upper_bound`` exact.  The other norms read a
family's endpoint arrays whole: per distinct value v of f, the level sweep
(``stepfn.level_measures``) gives |{f = v} cap Q| on every member Q, and
the Luxemburg root, the llog functional and the p-oscillation are folds
over it (``orlicz._llog_rows``, ``_oscillation_rows``).

Exact norms
-----------
For the Morrey objective |Q|^((lam-1)/p) * (int_Q |f|^p)^(1/p) the
one-endpoint scan has derivative sign (lam-1)(A + c d) + c (L + d), which
is nondecreasing in the penetration depth, so the supremum over all
intervals is attained at breakpoint pairs of f.  The pair kernel
``stepfn._pair_max`` scans them in blocks of rows, ascending in the left
end, until an exact row bound shows that no later row can win.

The weak L(1+log+ L) average over Q is max_k v_k |E_k cap Q| / |Q| with
E_k = {|f| >= v_k} over the distinct values v_k of |f|
(``orlicz.weak_llog_average``).  Exchanging the two maxima, the weak norm
is max_k v_k ||1_{E_k}||_{M_{1,lam}}: one p = 1 Morrey norm per superlevel
set, scanned by the same pair kernel over the component ends of E_k
(lengthening Q into E_k or shortening it out of the complement raises
|Q|^(lam-1) |E_k cap Q|).  As ||1_E||_{M_{1,lam}} <= |E|^lam, levels are
scanned in decreasing order of v_k |E_k|^lam until that cannot win, each
pair scan starting from the best of the levels before.  Over an explicit
family, |E_k cap Q| is the running sum of the level sweep's measures from
the top level down.

Certified upper bounds
----------------------
The Luxemburg-based objectives |Q|^lam * avg(f, Q) need three lemmas, each
a consequence of convexity and the submultiplicative bound
1 + log+(ab) <= (1 + log+ a)(1 + log+ b):

- containment: Q inside Q' gives obj(Q) <= obj(Q') * (|Q'|/|Q|)^(1-lam);
- small intervals: obj(Q) <= sup|f| * |Q|^lam;
- mass-preserving extension: if Q1 is the interval hull of (Q cap supp f)
  then obj(Q) <= obj(Q1) * psi(|Q|/|Q1|) with psi(c) = c^lam / k(c),
  k(1 + log k) = c, bounded by :func:`_psi_max`.  This reduces every
  interval, however large or far, to one inside the support hull, which
  the family covers up to the covering ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import FamilySpec, ResolvedFamily, resolve_family
from .orlicz import _llog_rows
from .stepfn import (EnvelopePair, Interval, StepFunction, _first_max, _pair_max, level_measures, window_integrals,
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
    """Supremum with a certified two-sided bracket.

    ``value`` is the maximum over ``family`` (attained at
    ``argmax_interval``), or the exact supremum when ``family`` is None;
    ``upper_bound`` holds for every interval.
    """

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


def _family_max(objective: np.ndarray, fam: ResolvedFamily) -> tuple[float, Interval | None]:
    """First maximum of a per-member objective and its interval, or (0.0, None)."""
    k = int(np.argmax(objective))
    if not objective[k] > 0.0:
        return 0.0, None
    return float(objective[k]), Interval(fam.lefts[k], fam.rights[k])


# ---------------------------------------------------------------------------
# psi factor for the mass-preserving extension lemma


def _psi_max(lam: float) -> float:
    """sup over c >= 1 of c^lam / k(c) with k (1 + log k) = c.

    In s = 1 + log k >= 1 the ratio is e^((lam-1)(s-1)) s^lam, log-concave
    with its stationary point at s = lam/(1-lam), which lies in s >= 1 iff
    lam >= 1/2.  So the supremum is 1 (at c = 1) for lam <= 1/2 and
    e^(1-2 lam) (lam/(1-lam))^lam above.
    """
    if lam <= 0.5:
        return 1.0
    return math.exp(1.0 - 2.0 * lam) * (lam / (1.0 - lam)) ** lam


def _certified_upper_scale_invariant(
    value: float, f: StepFunction, lam: float, fam: ResolvedFamily
) -> float:
    """Certified upper bound for |Q|^lam * (average over Q) objectives that
    obey the three lemmas in the module docstring.

    The reduction of far/large intervals lands inside the support hull, so
    the family hull must contain the support strictly; otherwise no finite
    certificate is available and inf is returned.
    """
    if value <= 0.0:
        return 0.0
    supp = f.support_hull()
    if not (fam.hull.left < supp.left and supp.right < fam.hull.right):
        return math.inf
    supnorm = f.sup_abs()
    h = fam.hull.length
    deltas = np.exp(np.linspace(math.log(h * 1e-9), math.log(h), 60))
    best = math.inf
    for d in deltas:
        small = supnorm * d**lam
        shift = value * fam.cover_ratio_sup(float(d)) ** (1.0 - lam)
        best = min(best, max(small, shift))
    return max(value, _psi_max(lam) * best)


# ---------------------------------------------------------------------------
# Morrey norm (exact)


def morrey_norm(
    f: StepFunction,
    p: float,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """Morrey norm sup_Q |Q|^((lam-1)/p) (int_Q |f|^p)^(1/p), n = 1, exact
    by the breakpoint-pair scan (module docstring); a family only changes
    ``value``, which is tight whenever it contains the breakpoint pairs."""
    if p < 1 or not math.isfinite(p):
        raise ValueError("p must satisfy 1 <= p < inf")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    b = np.asarray(f.breakpoints)
    w = np.abs(np.asarray(f.values)) ** p
    prefix = np.concatenate(([0.0], np.cumsum(w * np.diff(b))))
    e = (lam - 1.0) / p
    exact, pair = _pair_max(b[:-1], prefix[:-1], b[1:], prefix[1:], e, p, float(w.max()))
    if family is None:
        return NormEstimate(exact, exact, pair, None)
    fam = resolve_family(family, f)
    masses = window_integrals(w, prefix, window_split(b, fam.lefts, fam.rights))
    value, k = _first_max(fam.rights - fam.lefts, masses, e, p)
    arg = Interval(fam.lefts[k], fam.rights[k]) if k >= 0 else None
    return NormEstimate(value, max(value, exact), arg, fam.spec)


# ---------------------------------------------------------------------------
# Zygmund-Morrey scale


def zygmund_morrey_norm(
    f: StepFunction,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """sup_Q |Q|^lam * (Luxemburg llog average of f over Q), n = 1."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    fam = resolve_family(family, f)
    lux = _llog_rows(f, fam.lefts, fam.rights)[0]
    value, arg = _family_max((fam.rights - fam.lefts) ** lam * lux, fam)
    upper = _certified_upper_scale_invariant(value, f, lam, fam)
    return NormEstimate(value, upper, arg, fam.spec)


def _superlevel_max(
    g: StepFunction, lam: float, strict: bool = False, fam: ResolvedFamily | None = None
) -> tuple[float, Interval | None]:
    """max over the distinct levels t of |g| of t * ||1_E||_{M_{1,lam}} with
    E = {|g| >= t}, or {|g| > t} when ``strict``, and the attaining interval;
    each Morrey norm is the pair scan over E's component ends, or the
    maximum over ``fam`` when one is given (module docstring)."""
    best, arg = 0.0, None
    if fam is not None:
        lengths, above = fam.rights - fam.lefts, np.zeros(len(fam))  # |{|g| > t} cap Q|
        for t, meas in level_measures(g, fam.lefts, fam.rights):
            v, i = _first_max(lengths, above if strict else above + meas, lam - 1.0, 1.0)
            if t * v > best:
                best, arg = float(t * v), Interval(fam.lefts[i], fam.rights[i])
            above += meas
        return best, arg
    b, w, _ = g._abs_arrays
    dx = np.diff(b)
    levels, inv = np.unique(w, return_inverse=True)
    meas = np.cumsum(np.bincount(inv, weights=dx)[::-1])[::-1]  # |{|g| >= level}|
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


def weak_zygmund_morrey_norm(
    f: StepFunction,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """sup_Q |Q|^lam * (weak L(1+log+ L) average of f over Q), n = 1, exact
    by the superlevel reduction (module docstring); a family only changes
    ``value``."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    exact, pair = _superlevel_max(f, lam)
    if family is None:
        return NormEstimate(exact, exact, pair, None)
    fam = resolve_family(family, f)
    value, arg = _superlevel_max(f, lam, fam=fam)
    return NormEstimate(value, max(value, exact), arg, fam.spec)


def characterization_functional(
    f: StepFunction,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """sup_Q |Q|^lam * (1/|Q|) int_Q |f| (1 + log+(|f| / mean_Q |f|)).

    Per interval the functional sits between the Luxemburg average and
    twice it, so the certified upper bound is twice the Zygmund-Morrey one,
    whose family maximum comes from the same level sweep.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    fam = resolve_family(family, f)
    lux, func = _llog_rows(f, fam.lefts, fam.rights)
    scale = (fam.rights - fam.lefts) ** lam
    value, arg = _family_max(scale * func, fam)
    lux_value = float(np.max(scale * lux))
    upper = 2.0 * _certified_upper_scale_invariant(lux_value, f, lam, fam)
    return NormEstimate(value, max(value, upper), arg, fam.spec)


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
    if p < 1:
        raise ValueError("p must be >= 1")
    if b.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    fam = resolve_family(family, b)
    value, arg = _family_max(_oscillation_rows(b, fam.lefts, fam.rights, p), fam)
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
