"""Supremum-type norms over interval families, with certified brackets.

Every norm returns a :class:`NormEstimate`: ``value`` is the exact maximum
of the objective over the enumerated family (a certified lower bound of
the true supremum over all intervals, attained at ``argmax_interval``) and
``upper_bound`` certifies the other side.  The Morrey norm needs no family:
given none, it returns the exact supremum, scanned over breakpoint pairs.

Upper-bound machinery
---------------------
For the Morrey objective |Q|^((lam-1)/p) * (int_Q |f|^p)^(1/p) the
one-endpoint scan has derivative sign (lam-1)(A + c d) + c (L + d), which
is nondecreasing in the penetration depth, so the global supremum over all
intervals is attained at breakpoint pairs of f and the bracket is exact;
the pairs are scanned one left endpoint at a time, vectorized over the
right ones, in O(m) memory.

The Luxemburg-based objectives |Q|^lam * avg(f, Q) need three lemmas, each
a consequence of convexity and the submultiplicative bound
1 + log+(ab) <= (1 + log+ a)(1 + log+ b):

- containment: Q inside Q' gives obj(Q) <= obj(Q') * (|Q'|/|Q|)^(1-lam);
- small intervals: obj(Q) <= sup|f| * |Q|^lam;
- mass-preserving extension: if Q1 is the interval hull of (Q cap supp f)
  then obj(Q) <= obj(Q1) * psi(|Q|/|Q1|) with
  psi(c) = c^lam / k(c), k(1 + log k) = c; psi <= 1 for lam <= 1/2 and
  stays within a small computable constant otherwise.  This reduces every
  interval, however large or far, to one inside the support hull, which
  the family covers up to the covering ratio.

The same three lemmas hold for the weak average (the superlevel-measure
analogue of each step is elementary), so one assembly routine serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import FamilySpec, ResolvedFamily, resolve_family
from .orlicz import LLOG, llog_functional, luxemburg_average, weak_llog_average
from .stepfn import EnvelopePair, Interval, StepFunction, prefix_at

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


def _maximize(objective, fam: ResolvedFamily) -> tuple[float, Interval | None]:
    best = 0.0
    arg: Interval | None = None
    for q in fam.intervals:
        v = objective(q)
        if v > best:
            best, arg = v, q
    return best, arg


# ---------------------------------------------------------------------------
# psi factor for the mass-preserving extension lemma


@lru_cache(maxsize=64)
def _psi_max(lam: float) -> float:
    """sup over c >= 1 of c^lam / k(c) with k (1 + log k) = c.

    Equals 1 for lam <= 1/2 (since sqrt(c) (1 + log sqrt(c)) <= c); for
    lam > 1/2 the smooth ratio is maximized numerically on a log grid and
    padded.
    """
    if lam <= 0.5:
        return 1.0
    cs = np.exp(np.linspace(0.0, 60.0, 4001))
    ks = np.ones_like(cs)
    for _ in range(60):  # Newton on k(1+log k) - c = 0, well conditioned
        fk = ks * (1.0 + np.log(ks)) - cs
        dk = 2.0 + np.log(ks)
        ks = np.maximum(ks - fk / dk, 1.0)
    psi = cs**lam / ks
    return float(np.max(psi)) * (1.0 + 1e-9)


def _hull_margins_positive(f: StepFunction, fam: ResolvedFamily) -> bool:
    supp = f.support_hull()
    if supp is None:
        return True
    return fam.hull.left < supp.left and supp.right < fam.hull.right


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
    if not _hull_margins_positive(f, fam):
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


def _first_max(lengths: np.ndarray, masses: np.ndarray, e: float, p: float) -> tuple[float, int]:
    """First maximum of lengths**e * masses**(1/p) over the positive masses
    and its index (0.0 and -1 if there is none).

    numpy's array power can round an ulp away from the scalar one, so the
    arrays only preselect the near-maximal entries, and those are compared
    in scalar arithmetic: the result is the scalar per-interval maximum.
    """
    pos = masses > 0.0
    approx = np.zeros(len(masses))
    approx[pos] = lengths[pos] ** e * masses[pos] ** (1.0 / p)
    best, arg = 0.0, -1
    top = approx.max(initial=0.0)
    if top > 0.0:
        for k in np.flatnonzero(approx >= top * (1.0 - 1e-12)):
            v = float(lengths[k] ** e * masses[k] ** (1.0 / p))
            if v > best:
                best, arg = v, int(k)
    return best, arg


def morrey_norm(
    f: StepFunction,
    p: float,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """Morrey norm sup_Q |Q|^((lam-1)/p) (int_Q |f|^p)^(1/p), n = 1.

    The supremum is attained at a breakpoint pair of f (endpoint scan, see
    module docstring).  Without a family the result is that exact
    supremum, ``value == upper_bound``, attained at ``argmax_interval``.
    With a family ``value`` is the family maximum and ``upper_bound`` the
    exact supremum, so the bracket is tight whenever the family contains
    the breakpoint pairs.
    """
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
    exact, pair = 0.0, None
    for i in range(len(b) - 1):
        v, j = _first_max(b[i + 1 :] - b[i], prefix[i + 1 :] - prefix[i], e, p)
        if v > exact:
            exact, pair = v, Interval(b[i], b[i + 1 + j])
    if family is None:
        return NormEstimate(exact, exact, pair, None)
    fam = resolve_family(family, f)
    lefts = np.array([q.left for q in fam.intervals])
    rights = np.array([q.right for q in fam.intervals])
    masses = prefix_at(b, w, prefix, rights) - prefix_at(b, w, prefix, lefts)
    value, k = _first_max(rights - lefts, masses, e, p)
    arg = fam.intervals[k] if k >= 0 else None
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

    def objective(q: Interval) -> float:
        return q.length**lam * luxemburg_average(f, q, LLOG)

    value, arg = _maximize(objective, fam)
    upper = _certified_upper_scale_invariant(value, f, lam, fam)
    return NormEstimate(value, upper, arg, fam.spec)


def weak_zygmund_morrey_norm(
    f: StepFunction,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """sup_Q |Q|^lam * (weak L(1+log+ L) average of f over Q), n = 1."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    fam = resolve_family(family, f)

    def objective(q: Interval) -> float:
        return q.length**lam * weak_llog_average(f, q)

    value, arg = _maximize(objective, fam)
    upper = _certified_upper_scale_invariant(value, f, lam, fam)
    return NormEstimate(value, upper, arg, fam.spec)


def characterization_functional(
    f: StepFunction,
    lam: float,
    family: FamilySpec | None = None,
) -> NormEstimate:
    """sup_Q |Q|^lam * (1/|Q|) int_Q |f| (1 + log+(|f| / mean_Q |f|)).

    Per interval the functional sits between the Luxemburg average and
    twice it, so the certified upper bound is twice the Zygmund-Morrey one.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if f.is_zero:
        return NormEstimate(0.0, 0.0, None, family)
    fam = resolve_family(family, f)

    def objective(q: Interval) -> float:
        return q.length**lam * llog_functional(f, q)

    value, arg = _maximize(objective, fam)

    def lux_objective(q: Interval) -> float:
        return q.length**lam * luxemburg_average(f, q, LLOG)

    lux_value, _ = _maximize(lux_objective, fam)
    upper = 2.0 * _certified_upper_scale_invariant(lux_value, f, lam, fam)
    return NormEstimate(value, max(value, upper), arg, fam.spec)


# ---------------------------------------------------------------------------
# BMO


def _oscillation_p(b: StepFunction, q: Interval, p: float) -> float:
    lens = []
    vals = []
    for l, r, v in b.cells():
        lo, hi = max(l, q.left), min(r, q.right)
        if hi > lo:
            lens.append(hi - lo)
            vals.append(v)
    covered = math.fsum(lens)
    slack = q.length - covered
    if slack > 0:
        lens.append(slack)
        vals.append(0.0)
    mean = math.fsum(le * v for le, v in zip(lens, vals)) / q.length
    if p == 1.0:
        return math.fsum(le * abs(v - mean) for le, v in zip(lens, vals)) / q.length
    s = math.fsum(le * abs(v - mean) ** p for le, v in zip(lens, vals)) / q.length
    return s ** (1.0 / p)


def _two_level_oscillation_sup(jump: float, p: float) -> float:
    """sup over split fractions of the p-oscillation of a two-valued cell."""
    a = np.linspace(0.0, 1.0, 2001)
    osc = (a * (1 - a) ** p + (1 - a) * a**p) ** (1.0 / p)
    return float(jump * np.max(osc)) * (1.0 + 1e-9)


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
    value, arg = _maximize(lambda q: _oscillation_p(b, q, p), fam)
    upper = _bmo_upper(value, b, p, fam)
    return NormEstimate(value, upper, arg, fam.spec)


# ---------------------------------------------------------------------------
# weak-type Morrey constant (reported)


def weak_type_morrey_check(
    f: StepFunction,
    lam: float,
    envelope: EnvelopePair,
    family: FamilySpec | None = None,
) -> float:
    """Empirical constant of the weak-type Morrey inequality for M:
    sup over family intervals B and superlevel jumps t of the lower
    envelope of t |{Mf > t} cap B| / (|B|^(1-lam) ||f||_{M_{1,lam}}).

    Uses the lower envelope, so the reported constant is a certified lower
    bound on the best constant; reported, never asserted.
    """
    if f.is_zero:
        return 0.0
    norm = morrey_norm(f, 1.0, lam).upper_bound
    if norm <= 0.0:
        return 0.0
    if family is None:
        family = FamilySpec(mode="breakpoint_pairs")
    fam = resolve_family(family, f)
    lower = envelope.lower
    distinct = sorted({v for v in lower.values if v > 0.0})
    if len(distinct) > 12:  # thin to quantile-spaced levels; reported quantity
        idx = np.linspace(0, len(distinct) - 1, 12).astype(int)
        distinct = [distinct[i] for i in idx]
    if not distinct:
        return 0.0
    ls = np.asarray([c[0] for c in lower.cells()])
    rs = np.asarray([c[1] for c in lower.cells()])
    vs = np.asarray([c[2] for c in lower.cells()])
    best = 0.0
    for q in fam.intervals:
        overlap = np.maximum(np.minimum(rs, q.right) - np.maximum(ls, q.left), 0.0)
        for t in distinct:
            meas = float(np.sum(overlap[vs > t]))
            if meas > 0.0:
                best = max(best, t * meas / (q.length ** (1.0 - lam) * norm))
    return best
