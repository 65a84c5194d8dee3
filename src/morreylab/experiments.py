"""Desk-scale verification experiments: the log-gap counterexample, the
locked constants, pointwise dominations, and the indicator lower bound for
the maximal commutator.

The divergence demonstration is split into two certified halves: the norm
of the bump family stays inside a bracket computed by the norms module,
while the lower-bound chain for the iterated maximal function is an exact
finite expression (every step is an honest inequality for step functions),
so the growing ratio needs no trust in envelope quality on huge domains.

The ten regression-locked constants are the records of ``CONSTANTS``.  A
ratio is certified when it is a certified lower side of the inequality's
left side over a certified upper side of its right side; the corpus maximum
then bounds the best constant from below.  Certified: ``weak_type_M2``,
``weak_type_Cb`` and ``weak_type_MbCommutator`` (lower envelopes of T f
against the exact integral of Phi(|f|/t), whose scale is 1 for C_b, not
normalized by ||b||_*, and c0 (1 + log+ c0) with the BMO upper side for
[M, b]), ``weak_morrey_M2`` and ``morrey_weak_type_chi``.  Observed, with no
bound claimed: ``commutator_vs_bmo_m2`` divides by the ``value`` of ||b||_*,
a lower side; ``orlicz_vs_m2_band_lo`` and ``orlicz_vs_m2_band_hi`` are the
extremes of the family-restricted Orlicz maximal function, a lower side,
over both sides of M^2 f's bracket; ``radial_vs_interval_band_lo`` and
``radial_vs_interval_band_hi`` those of the interval Zygmund-Morrey norm
over the radial functional, two ``value`` sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .maxops import (
    commutator,
    commutator_envelope,
    iterated_maximal,
    iterated_maximal_at,
    maximal,
    maximal_commutator,
    maximal_envelope,
)
from .families import resolve_family
from .norms import (
    FamilySpec,
    _oscillation_rows,
    bmo_seminorm,
    weak_type_morrey_check,
    weak_zygmund_morrey_norm,
    zygmund_morrey_norm,
)
from .orlicz import LLOG, _holder_rows, _llog_summary_rows, log_plus, orlicz_maximal
from .radial import RadialProfile, hardy, hardy_reduction_rows, zm_radial_functional
from .stepfn import (Interval, StepFunction, _values_at, combine, default_hull, distribution, pos_neg_parts,
                     superlevels)

__all__ = [
    "CounterexampleSpec",
    "ConstantReport",
    "DominationResult",
    "LockedConstant",
    "CONSTANTS",
    "random_step_function",
    "corpus",
    "build_counterexample",
    "m2_lower_bound",
    "counterexample_mf_window_deviation",
    "pointwise_domination_suite",
    "cb_chi_lower_check",
    "standard_constant_reports",
    "reevaluate_constant",
]

LOOSE = 0.05


# ---------------------------------------------------------------------------
# seeded corpora


def random_step_function(rng: np.random.Generator, max_cells: int = 24, signed: bool = False) -> StepFunction:
    """Deterministic pseudo-random step function: up to ``max_cells`` cells,
    breakpoints uniform in (0, 1), values log-uniform in [2^-8, 2^8],
    optionally with random signs."""
    n = int(rng.integers(1, max_cells + 1))
    bp = sorted(rng.uniform(0.0, 1.0, n + 1).tolist())
    while not all(a < b for a, b in zip(bp, bp[1:])):  # pragma: no cover - measure zero
        bp = sorted(rng.uniform(0.0, 1.0, n + 1).tolist())
    vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), n))
    if signed:
        vals = vals * rng.choice([-1.0, 1.0], n)
    return StepFunction(bp, vals.tolist())


def corpus(
    seed: int, size: int, max_cells: int = 24, signed: bool = False
) -> list[StepFunction]:
    rng = np.random.default_rng(seed)
    return [random_step_function(rng, max_cells, signed) for _ in range(size)]


def random_even_decreasing(
    rng: np.random.Generator, max_cells: int = 6, max_radius: float = 2.0
) -> tuple[RadialProfile, StepFunction]:
    """A random nonincreasing radial profile together with its even
    extension to the line (dimension 1)."""
    k = int(rng.integers(1, max_cells + 1))
    radii = np.sort(rng.uniform(0.1, max_radius, k))
    vals = np.sort(np.exp(rng.uniform(-2.0, 2.0, k)))[::-1]
    profile = StepFunction(np.concatenate(([0.0], radii)), vals)
    p = RadialProfile(profile, 1, nonincreasing=True)
    bp = np.concatenate((-radii[::-1], radii))
    vv = np.concatenate((vals[::-1], vals[1:]))
    return p, StepFunction(bp, vv)


# ---------------------------------------------------------------------------
# the unit-bump family with quadratically log-spaced gaps


@dataclass(frozen=True)
class CounterexampleSpec:
    """K unit bumps at positions k^2 ln^2(k+e), evenly mirrored."""

    num_humps: int

    def __post_init__(self) -> None:
        if self.num_humps < 1:
            raise ValueError("need at least one hump")

    def hump_start(self, k: int) -> float:
        return k * k * math.log(k + math.e) ** 2

    def half_gap(self, k: int) -> float:
        return (self.hump_start(k + 1) - self.hump_start(k) - 1.0) / 2.0

    def validate(self) -> None:
        prev = -1.0
        for k in range(self.num_humps):
            a = self.hump_start(k)
            if a <= prev:
                raise ValueError("hump starts must increase")
            if self.half_gap(k) <= 0.0:
                raise ValueError("humps must be disjoint")
            prev = a


def build_counterexample(K: int) -> StepFunction:
    """Even step function with K unit bumps on each side of the origin;
    the k = 0 bumps merge into a single cell on [-1, 1]."""
    spec = CounterexampleSpec(K)
    spec.validate()
    starts = [spec.hump_start(k) for k in range(K)]
    humps = (
        [(-a - 1.0, -a) for a in reversed(starts[1:])]
        + [(-1.0, 1.0)]
        + [(a, a + 1.0) for a in starts[1:]]
    )
    bp: list[float] = [humps[0][0]]
    vals: list[float] = []
    for l, r in humps:
        if l > bp[-1]:
            vals.append(0.0)
            bp.append(l)
        vals.append(1.0)
        bp.append(r)
    return StepFunction(bp, vals)


def m2_lower_bound(K: int, lam: float = 0.5) -> float:
    """Exact finite lower-bound chain for the log-average Morrey norm of the
    iterated maximal function of the K-bump family.

    For x in the gap after bump k, averaging 1/(t - a_k) from a_k + 1 gives
    M^2 f(x) >= ln(x - a_k)/(x - a_k) there, so integrating over
    [a_j + e, a_j + m_j] contributes (ln^2 m_j - 1)/2 exactly, and testing
    the plain Morrey norm of M^2 f on [0, a_k] yields
    sup_k a_k^(lam-1) * sum_{j<k} (ln^2 m_j - 1)/2.  Every step is an exact
    inequality; the unspecified equivalence constants linking this quantity
    to the log-average norm are reported alongside, not folded in.
    """
    if K < 2:
        raise ValueError("need K >= 2 for a nonempty chain")
    spec = CounterexampleSpec(K)
    spec.validate()
    best = 0.0
    acc = 0.0
    # test interval [0, a_k] contains the gap windows of bumps j < k; the
    # j = 0 window is shorter than e and contributes nothing
    for k in range(1, K + 1):
        m_prev = spec.half_gap(k - 1)
        if m_prev > math.e:
            acc += (math.log(m_prev) ** 2 - 1.0) / 2.0
        a_k = spec.hump_start(k)
        best = max(best, a_k ** (lam - 1.0) * acc)
    return best


def counterexample_mf_window_deviation(K: int, ks: tuple[int, ...] = (1, 2, 3)) -> float:
    """Max deviation of Mf(x) * (x - a_k) from 1 on safe sample windows.

    Just right of bump k >= 1 the maximal function equals 1/(x - a_k)
    exactly as long as reaching back over earlier bumps (on either side,
    including the doubled center bump) cannot do better; sampling is
    confined to half the provably safe window.  The k = 0 window is
    excluded: the even extension doubles the center bump, so the exact
    value there is 2/(x + 1).
    """
    spec = CounterexampleSpec(K)
    f = build_counterexample(K)
    starts: list[float] = []
    xs: list[float] = []
    for k in ks:
        if k >= K or k < 1:
            continue
        a_k = spec.hump_start(k)
        # s = x - a_k; reaching back over j earlier bumps wins only when
        # s*j > a_k - a_{k-j} (one-sided), s*(k+1) > a_k + 1 (through the
        # doubled center), or s*(k+j+1) > a_k + a_j + 1 (mirror side)
        caps = [1.0 + spec.half_gap(k), a_k / k, (a_k + 1.0) / (k + 1.0)]
        for j in range(1, K):
            caps.append((a_k + spec.hump_start(j) + 1.0) / (k + j + 1.0))
        s_max = min(caps)
        if s_max <= 1.0:
            continue
        for frac in (0.2, 0.5, 0.9):
            starts.append(a_k)
            xs.append(a_k + (1.0 + 0.5 * frac * (s_max - 1.0)))
    return float(np.max(np.abs(maximal(f, xs) * (np.array(xs) - starts) - 1.0), initial=0.0))


# ---------------------------------------------------------------------------
# the locked constants: one record each, scored item by item


@dataclass(frozen=True)
class ConstantReport:
    inequality: str
    corpus: dict
    constant: float
    witness: dict


def _zygmund_integral(f: StepFunction, t):
    """int |f|/t * (1 + log+(|f|/t)), exact cellwise, at t or at each level of an array t."""
    b, w, _ = f._abs_arrays
    mask = w > 0
    return np.sum(np.diff(b)[mask] * LLOG.apply(w[mask] / np.asarray(t, dtype=float)[..., None]), axis=-1)


def _best_level_ratio(lower: StepFunction, f: StepFunction, scale: float) -> tuple[float, float]:
    """First max over the positive levels t of lower, ascending, of
    |{lower > t}| / (scale * rhs(t)), and its level; every |{lower > t}|
    comes from one sort and a reversed cumulative sum."""
    b, w, _ = lower._abs_arrays
    levels, at_least = superlevels(np.diff(b), w)
    meas = np.append(at_least[1:], 0.0)[levels > 0.0]
    levels = levels[levels > 0.0]
    rhs = scale * _zygmund_integral(f, levels)
    ratio = np.divide(meas, rhs, out=np.zeros_like(meas), where=rhs > 0.0)
    if not np.any(ratio > 0.0):
        return 0.0, 0.0
    k = int(np.argmax(ratio))
    return float(ratio[k]), float(levels[k])


def _abs_commutator_lower(b: StepFunction, f: StepFunction) -> StepFunction:
    """Certified lower envelope of |[M, b] f| on a default window, refined
    to the tolerance ``LOOSE``.

    On each cell of b's partition the symbol is the constant beta, so
    [M, b]f = M(bf) - beta * Mf there and interval arithmetic on the two
    maximal-function envelopes brackets it; the absolute value of a bracket
    takes the distance to zero from below.
    """
    bf = combine(b, f, lambda x, y: x * y)
    window = default_hull(f, b)
    env_bf = maximal_envelope(bf, LOOSE, window)
    env_f = maximal_envelope(f, LOOSE, window)
    inner = [p for p in b.breakpoints if window.left < p < window.right]
    envelopes = (env_bf.lower, env_bf.upper, env_f.lower, env_f.upper)
    pts = np.unique(np.concatenate([inner] + [g.breakpoints for g in envelopes]))
    mid = 0.5 * (pts[:-1] + pts[1:])
    beta = _values_at(b, mid)
    lo_a, hi_a = _values_at(env_bf.lower, mid), _values_at(env_bf.upper, mid)
    lo_b, hi_b = _values_at(env_f.lower, mid), _values_at(env_f.upper, mid)
    up = beta >= 0
    cell_lo = lo_a - beta * np.where(up, hi_b, lo_b)
    cell_hi = hi_a - beta * np.where(up, lo_b, hi_b)
    return StepFunction(pts, np.maximum(np.maximum(cell_lo, -cell_hi), 0.0))


def _witness_lower(op_id: str, f: StepFunction, b: StepFunction | None) -> tuple[StepFunction, float]:
    """Certified lower envelope, refined to the tolerance ``LOOSE``, of
    the operator ``op_id`` applied to f (with symbol b for the commutators)
    and the scale of the inequality's right side: 1, or c0 (1 + log+ c0)
    for [M, b], which is 0 when b vanishes."""
    if op_id == "M2":
        return iterated_maximal(f, LOOSE).lower, 1.0
    if op_id == "Cb":
        return commutator_envelope(b, f, LOOSE).lower, 1.0
    if op_id == "MbCommutator":
        plus, minus = pos_neg_parts(b)
        c0 = bmo_seminorm(plus).upper_bound + minus.sup_abs()
        return _abs_commutator_lower(b, f), c0 * (1.0 + log_plus(c0))
    raise ValueError(f"unknown operator id {op_id!r}")


@dataclass(frozen=True)
class LockedConstant:
    """One regression-locked constant: ``draw(corpus)`` gives the items its
    descriptor names and ``score(item)`` an item's ratio and witness.
    ``kind`` is "certified" or "observed", or "low" or "high" for the sides
    of an observed band, whose items score a (low, high) pair.
    ``witness_key`` keys the witnessed item's index; None records no
    witness."""

    inequality: str
    corpus: dict
    draw: Callable[[dict], list]
    score: Callable[[Any], tuple[Any, dict]]
    kind: str
    witness_key: str | None

    def report(self, scores: list[tuple[Any, dict]]) -> ConstantReport:
        """The corpus extreme of the items' ``scores``: the first maximum
        above 0, or for a band's low side the first minimum below inf."""
        low = self.kind == "low"
        best, at = (math.inf if low else 0.0), None
        for i, (ratio, _) in enumerate(scores):
            ratio = ratio[self.kind == "high"] if self.kind in ("low", "high") else ratio
            if (ratio < best) if low else (ratio > best):
                best, at = ratio, i
        witness = {} if self.witness_key is None or at is None else {self.witness_key: at, **scores[at][1]}
        return ConstantReport(self.inequality, self.corpus, best, witness)


def _draw_weak_type(c: dict) -> list[tuple[StepFunction, StepFunction | None]]:
    """(f, b): each function with its symbol, or with None when no symbols are named."""
    fs = corpus(**c["functions"])
    bs = corpus(**c["symbols"]) if "symbols" in c else [None] * len(fs)
    if len(bs) != len(fs):
        raise ValueError("symbol corpus must match the function corpus")
    return list(zip(fs, bs))


def _score_weak_type(op_id: str, item: tuple[StepFunction, StepFunction | None]) -> tuple[float, dict]:
    lower, scale = _witness_lower(op_id, *item)
    ratio, level = _best_level_ratio(lower, item[0], scale)  # 0 when scale is 0
    return ratio, {"level": level}


def _score_weak_morrey(item: tuple[StepFunction, float]) -> tuple[float, dict]:
    f, lam = item
    num = weak_zygmund_morrey_norm(iterated_maximal(f, LOOSE).lower, lam).value
    den = zygmund_morrey_norm(f, lam).upper_bound
    return (num / den if den > 0.0 else 0.0), {}


def _draw_cb_pairs(c: dict) -> list[tuple[StepFunction, StepFunction, list]]:
    rng = np.random.default_rng(c["seed"])
    return [
        (random_step_function(rng, 6, True), random_step_function(rng, 8, False), list(rng.uniform(-0.5, 1.5, 12)))
        for _ in range(c["pairs"])
    ]


def _score_cb_bmo(item: tuple[StepFunction, StepFunction, list]) -> tuple[float, dict]:
    res = pointwise_domination_suite(*item)
    return (0.0 if res.c16 is None else res.c16), res.c16_witness


def _score_morrey_chi(lam: float) -> tuple[float, dict]:
    chi = StepFunction.indicator(0.0, 1.0)
    return weak_type_morrey_check(chi, lam, maximal_envelope(chi, 0.02)), {}


def _score_orlicz_band(f: StepFunction) -> tuple[tuple[float, float], dict]:
    """The lowest ratio of the family-restricted Orlicz maximal function to
    the upper side of M^2 f's bracket, and the highest to its lower side, at
    five points across the hull."""
    env = iterated_maximal(f, LOOSE)
    fam = resolve_family(FamilySpec(mode="breakpoint_pairs"), f)
    hull = f.support_hull()
    lo_band, hi_band = math.inf, 0.0
    for x in np.linspace(hull.left + 0.05, hull.right - 0.05, 5):
        m_orl = orlicz_maximal(f, float(x), fam)
        up, lo = env.upper(float(x)), env.lower(float(x))
        if m_orl > 0.0 and lo > 0.0:
            lo_band = min(lo_band, m_orl / up)
            hi_band = max(hi_band, m_orl / lo)
    return (lo_band, hi_band), {}


def _draw_even_decreasing(c: dict) -> list[tuple[RadialProfile, StepFunction]]:
    rng = np.random.default_rng(c["seed"])
    return [random_even_decreasing(rng) for _ in range(c["size"])]


def _score_radial_band(item: tuple[RadialProfile, StepFunction]) -> tuple[tuple[float, float], dict]:
    ratio = zygmund_morrey_norm(item[1], 0.5).value / zm_radial_functional(item[0], 0.5).value
    return (ratio, ratio), {}


CONSTANTS = {
    "weak_type_M2": LockedConstant(
        "weak_type_M2", {"functions": {"seed": 11, "size": 10, "max_cells": 10, "signed": False}},
        _draw_weak_type, partial(_score_weak_type, "M2"), "certified", "index"),
    "weak_type_Cb": LockedConstant(
        "weak_type_Cb", {"functions": {"seed": 17, "size": 8, "max_cells": 8, "signed": False},
                         "symbols": {"seed": 13, "size": 8, "max_cells": 6, "signed": True}},
        _draw_weak_type, partial(_score_weak_type, "Cb"), "certified", "index"),
    "weak_type_MbCommutator": LockedConstant(
        "weak_type_MbCommutator", {"functions": {"seed": 23, "size": 8, "max_cells": 8, "signed": False},
                                   "symbols": {"seed": 19, "size": 8, "max_cells": 6, "signed": True}},
        _draw_weak_type, partial(_score_weak_type, "MbCommutator"), "certified", "index"),
    "weak_morrey_M2": LockedConstant(
        "weak_morrey_M2", {"functions": {"seed": 29, "size": 6, "max_cells": 8, "signed": False}, "lambda": 0.5},
        lambda c: [(f, c["lambda"]) for f in corpus(**c["functions"])], _score_weak_morrey, "certified", "index"),
    "commutator_vs_bmo_m2": LockedConstant(
        "pointwise_cb_bmo_m2", {"seed": 31, "pairs": 8},
        _draw_cb_pairs, _score_cb_bmo, "observed", "pair"),
    "morrey_weak_type_chi": LockedConstant(
        "morrey_weak_type", {"input": "chi01", "lambda": 0.5},
        lambda c: [c["lambda"]], _score_morrey_chi, "certified", None),
    "orlicz_vs_m2_band_lo": LockedConstant(
        "orlicz_vs_m2_band_lo", {"seed": 37, "size": 5},
        lambda c: corpus(**c, max_cells=8), _score_orlicz_band, "low", None),
    "orlicz_vs_m2_band_hi": LockedConstant(
        "orlicz_vs_m2_band_hi", {"seed": 37, "size": 5},
        lambda c: corpus(**c, max_cells=8), _score_orlicz_band, "high", None),
    "radial_vs_interval_band_lo": LockedConstant(
        "radial_vs_interval_band_lo", {"seed": 41, "size": 5},
        _draw_even_decreasing, _score_radial_band, "low", None),
    "radial_vs_interval_band_hi": LockedConstant(
        "radial_vs_interval_band_hi", {"seed": 41, "size": 5},
        _draw_even_decreasing, _score_radial_band, "high", None),
}


def _reports(records: dict[str, LockedConstant]) -> dict[str, ConstantReport]:
    """The records' reports, each corpus drawn and scored once: a band's
    two sides read one pass."""
    scored: dict = {}
    reports = {}
    for name, c in records.items():
        key = (c.score, repr(c.corpus))
        if key not in scored:
            scored[key] = [c.score(item) for item in c.draw(c.corpus)]
        reports[name] = c.report(scored[key])
    return reports


def standard_constant_reports() -> dict[str, ConstantReport]:
    """The regression-locked constants, one per record of ``CONSTANTS``."""
    return _reports(CONSTANTS)


def _level_ratio(op_id: str, f: StepFunction, b: StepFunction | None, t: float) -> float:
    """|{T f > t}| of the lower envelope over the scaled right side at the level t."""
    lower, scale = _witness_lower(op_id, f, b)
    return distribution(lower, t) / (scale * _zygmund_integral(f, t))


# ---------------------------------------------------------------------------
# pointwise dominations


@dataclass
class DominationResult:
    violations: list[dict]
    c16: float | None
    c16_witness: dict

    @property
    def ok(self) -> bool:
        return not self.violations


def pointwise_domination_suite(
    b: StepFunction,
    f: StepFunction,
    points: list[float],
    with_c16: bool = True,
) -> DominationResult:
    """Checks the exact pointwise dominations of the commutator by the
    maximal commutator at each point: |[M,b]f| <= C_b f + 2 b^- Mf always,
    strengthened to |[M,b]f| <= C_b f when b is nonnegative.  Also records
    the best observed constant of C_b f <= c ||b||_* M^2 f over the points
    in ``default_hull(f)``, with the ``LOOSE`` upper side of
    ``iterated_maximal_at`` on the right (a valid sufficient witness)."""
    _, minus = pos_neg_parts(b)
    nonneg = minus.is_zero
    xs = np.asarray(points, dtype=float)
    cb = maximal_commutator(b, f, xs)
    mb = np.abs(commutator(b, f, xs))
    slack = cb + 2.0 * _values_at(minus, xs) * maximal(f, xs)
    general = mb > slack + 1e-12 * np.maximum(np.maximum(1.0, mb), slack)
    signed = mb > cb + 1e-12 * np.maximum(np.maximum(1.0, mb), cb)
    violations: list[dict] = []
    for i in np.flatnonzero(general | (nonneg & signed)).tolist():
        if general[i]:
            violations.append({"x": points[i], "kind": "general", "lhs": float(mb[i]), "rhs": float(slack[i])})
        if nonneg and signed[i]:
            violations.append({"x": points[i], "kind": "nonnegative", "lhs": float(mb[i]), "rhs": float(cb[i])})
    c16 = None
    c16_witness: dict = {}
    if with_c16:
        bmo = bmo_seminorm(b).value
        if bmo > 0.0 and not f.is_zero:
            hull = default_hull(f)
            inside = np.flatnonzero((hull.left <= xs) & (xs <= hull.right))
            ups = iterated_maximal_at(f, xs[inside], LOOSE, hull)[1]
            for i, up in zip(inside.tolist(), ups):
                denom = bmo * float(up)
                if denom > 0.0 and (c16 is None or cb[i] / denom > c16):
                    c16, c16_witness = float(cb[i] / denom), {"x": points[i]}
    return DominationResult(violations, c16, c16_witness)


def cb_chi_lower_check(b: StepFunction, q0: Interval) -> tuple[float, float]:
    """(lhs, rhs) of the indicator lower bound for the maximal commutator:
    the smallest C_b(chi_Q0) value at the midpoints of Q0's nine equal
    parts against half the mean oscillation of the symbol over Q0."""
    chi = StepFunction.indicator(q0.left, q0.right)
    xs = q0.left + (np.arange(9) + 0.5) * q0.length / 9
    lhs = float(maximal_commutator(b, chi, xs).min())
    rhs = 0.5 * float(_oscillation_rows(b, np.array([q0.left]), np.array([q0.right]), 1.0)[0])
    return lhs, rhs


# ---------------------------------------------------------------------------
# verification suites (the CLI's verify command dispatches here)


def _check(name: str, ok: bool, **detail) -> dict:
    return {"name": name, "ok": bool(ok), **detail}


def suite_pointwise(seed: int = 7, pairs: int = 20, points: int = 20) -> dict:
    """Pointwise dominations of the commutator plus the indicator lower
    bound for the maximal commutator, on a seeded corpus."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    worst_c16 = 0.0
    for i in range(pairs):
        b = random_step_function(rng, 6, signed=True)
        f = random_step_function(rng, 8, signed=False)
        pts = list(rng.uniform(-0.5, 1.5, points))
        res = pointwise_domination_suite(b, f, pts, with_c16=(i < 5))
        checks.append(
            _check(
                f"domination_pair_{i}",
                res.ok,
                violations=len(res.violations),
            )
        )
        if res.c16 is not None:
            worst_c16 = max(worst_c16, res.c16)
    margin = math.inf
    for i in range(pairs):
        b = random_step_function(rng, 8, signed=True)
        left = float(rng.uniform(0.0, 0.5))
        q0 = Interval(left, left + float(rng.uniform(0.2, 0.5)))
        lhs, rhs = cb_chi_lower_check(b, q0)
        margin = min(margin, lhs - rhs)
        checks.append(_check(f"cb_chi_lower_{i}", lhs >= rhs - 1e-9, lhs=lhs, rhs=rhs))
    return {
        "suite": "pointwise",
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "constants": {"cb_bmo_m2": worst_c16, "cb_chi_min_margin": margin},
    }


def suite_holder(seed: int = 7, n_pairs: int = 200) -> dict:
    """Generalized Holder inequality, the Luxemburg fixed point, the
    submultiplicative log bound, and the functional sandwich.  Every pair
    and window is drawn first; each quantity is then one row-form call."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    fs, hs, lefts, rights = [], [], [], []
    for _ in range(n_pairs):
        fs.append(random_step_function(rng, 12, signed=False))
        hs.append(random_step_function(rng, 12, signed=False))
        a = float(rng.uniform(-1.0, 0.9))
        lefts.append(a)
        rights.append(a + float(rng.uniform(0.1, 2.5)))
    lhs, rhs = _holder_rows(fs, hs, np.array(lefts), np.array(rights))
    worst_ratio = float(np.max(lhs[rhs > 0.0] / rhs[rhs > 0.0], initial=0.0))
    # constant 1 holds on generic corpora but is not a theorem for this
    # gauge pairing (see holder_check); the factor-2 form is always valid
    checks.append(_check("holder_all_pairs", worst_ratio <= 1.0 + 1e-8, worst_ratio=worst_ratio))
    checks.append(_check("holder_classical_bound", worst_ratio <= 2.0 + 1e-8, worst_ratio=worst_ratio))
    fs, lefts, rights = [], [], []
    for _ in range(60):
        fs.append(random_step_function(rng, 10, signed=False))
        a = float(rng.uniform(-0.5, 0.5))
        lefts.append(a)
        rights.append(a + float(rng.uniform(0.2, 1.5)))
    lux, resid, func, weak = _llog_summary_rows(fs, np.array(lefts), np.array(rights))
    on = lux > 0.0
    strong, func = lux[on], func[on]
    worst_resid = float(np.max(np.abs(resid[on]), initial=0.0))
    worst_sandwich = float(np.max(np.maximum(strong / func, func / (2.0 * strong)), initial=0.0))
    for i in np.flatnonzero(weak > lux * (1.0 + 1e-6)):
        checks.append(_check("weak_leq_strong", False, weak=float(weak[i]), strong=float(lux[i])))
    checks.append(_check("luxemburg_fixed_point", worst_resid <= 1e-7, residual=worst_resid))
    checks.append(_check("llog_sandwich", worst_sandwich <= 1.0 + 1e-7, worst=worst_sandwich))
    a = np.exp(rng.uniform(-6, 6, 500))
    bb = np.exp(rng.uniform(-6, 6, 500))

    def one_log(t: np.ndarray) -> np.ndarray:  # 1 + log_plus(t), elementwise
        return 1.0 + np.log(np.maximum(t, 1.0))

    sub_ok = bool((one_log(a * bb) <= one_log(a) * one_log(bb) + 1e-12).all())
    checks.append(_check("submultiplicative_log", sub_ok))
    return {
        "suite": "holder",
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "constants": {"holder_worst_ratio": worst_ratio},
    }


# suite_weaktype's records, on smaller corpora: the check's name and
# whether a constant of 0 fails it
_WEAKTYPE_CHECKS = (
    ("weak_type_M2", {"functions": {"seed": 11, "size": 6, "max_cells": 8, "signed": False}},
     "m2_constant_finite", True),
    ("weak_type_Cb", {"functions": {"seed": 17, "size": 5, "max_cells": 6, "signed": False},
                      "symbols": {"seed": 13, "size": 5, "max_cells": 5, "signed": True}},
     "cb_constant_finite", False),
    ("weak_type_MbCommutator", {"functions": {"seed": 23, "size": 5, "max_cells": 6, "signed": False},
                                "symbols": {"seed": 19, "size": 5, "max_cells": 5, "signed": True}},
     "mb_constant_finite", False),
    ("weak_morrey_M2", {"functions": {"seed": 29, "size": 4, "max_cells": 6, "signed": False}, "lambda": 0.5},
     "weak_morrey_finite", True),
    ("morrey_weak_type_chi", {"input": "chi01", "lambda": 0.5}, "morrey_weak_type_finite", True),
)


def suite_weaktype(seed: int = 7) -> dict:
    """Weak-type constants are finite and dilation invariant."""
    checks: list[dict] = []
    constants: dict[str, float] = {}
    for name, small, check, positive in _WEAKTYPE_CHECKS:
        rep = _reports({name: replace(CONSTANTS[name], corpus=small)})[name]
        value = constants[name] = rep.constant
        checks.append(_check(check, (0.0 < value if positive else 0.0 <= value) and value < math.inf, constant=value))
        if name == "weak_type_M2":
            # dilation invariance: scale the witnessed function by 4 and recompute
            base_ratio = reevaluate_constant(rep)
            f = corpus(**small["functions"])[rep.witness["index"]]
            ratio_g = _level_ratio("M2", f.dilate(4.0), None, rep.witness["level"])
            ok = abs(ratio_g - base_ratio) <= 1e-9 * max(1.0, base_ratio)
            checks.append(_check("m2_dilation_invariant", ok, original=base_ratio, dilated=ratio_g))
    return {
        "suite": "weaktype",
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "constants": constants,
    }


def suite_radial(seed: int = 7, count: int = 100) -> dict:
    """Hardy-reduction inequality with its explicit constant on random
    nonincreasing profiles, the closed-form calibration, and the factor-2
    comparison of the maximal and Hardy operators on even inputs."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    combos = [(n, frac * n) for n in (1, 2, 3) for frac in (0.25, 0.5, 0.75)]
    profiles, lams = [], []
    for done in range(count):
        n, lam = combos[done % len(combos)]
        k = int(rng.integers(1, 7))
        radii = np.sort(rng.uniform(0.05, 3.0, k))
        vals = np.sort(np.exp(rng.uniform(-2.0, 2.0, k)))[::-1]
        profiles.append(RadialProfile(StepFunction(np.concatenate(([0.0], radii)), vals), n, nonincreasing=True))
        lams.append(lam)
    lhs, _, bound = hardy_reduction_rows(profiles, lams)
    worst_excess = float(np.max(lhs - bound * (1.0 + 1e-9)))
    checks.append(_check("hardy_reduction", worst_excess <= 0.0, worst_excess=worst_excess))
    chi = StepFunction.indicator(0.0, 1.0)
    got = zm_radial_functional(RadialProfile(chi, 1), 0.5).value
    want = 2.0 * math.exp(-0.5)
    checks.append(_check("radial_closed_form", abs(got - want) <= 1e-6, got=got, want=want))
    worst_band = 0.0
    for _ in range(8):
        p, f = random_even_decreasing(rng)
        xs = rng.uniform(0.05, 3.0, 8)
        for x, mf, hf in zip(xs.tolist(), maximal(f, xs).tolist(), hardy(p, xs).tolist()):
            if hf > mf + 1e-12 or mf > 2.0 * hf + 1e-12:
                worst_band = max(worst_band, mf / hf if hf else math.inf)
                checks.append(_check("hardy_factor_two", False, x=float(x), mf=mf, hf=hf))
    checks.append(_check("hardy_factor_two_all", worst_band == 0.0))
    return {
        "suite": "radial",
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "constants": {},
    }


def suite_counterexample(ks: tuple[int, ...] = (8, 16, 32, 64), lam: float = 0.5) -> dict:
    """Bounded input norms against a growing lower bound for the iterated
    maximal function: the desk-scale unboundedness contrast."""
    rows = []
    for K in ks:
        est = zygmund_morrey_norm(build_counterexample(K), lam)
        lower = m2_lower_bound(K, lam)
        rows.append(
            {
                "K": K,
                "f_norm_lo": est.value,
                "f_norm_hi": est.upper_bound,
                "Mf_lower_bound": lower,
                "ratio": lower / est.upper_bound,
            }
        )
    checks: list[dict] = []
    # certified: every input norm lies in [min f_norm_lo, max f_norm_hi]
    spread = max(r["f_norm_hi"] for r in rows) / min(r["f_norm_lo"] for r in rows)
    checks.append(_check("input_norms_stable", spread <= 1.5, spread=spread))
    lowers = [r["Mf_lower_bound"] for r in rows]
    checks.append(
        _check(
            "lower_bound_grows",
            lowers[-1] / lowers[0] >= 1.5,
            growth=lowers[-1] / lowers[0],
        )
    )
    checks.append(
        _check(
            "lower_bound_monotone",
            all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:])),
        )
    )
    xs = [math.log(K + math.e) for K in ks]
    slope = float(np.polyfit(xs, lowers, 1)[0])
    checks.append(_check("growth_slope", slope >= 0.5, slope=slope))
    dev = max(counterexample_mf_window_deviation(K) for K in ks)
    checks.append(_check("mf_window_profile", dev <= 1e-9, deviation=dev))
    return {
        "suite": "counterexample",
        "ks": list(ks),
        "lambda": lam,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "rows": rows,
        "constants": {"slope": slope},
    }


SUITES = {
    "pointwise": suite_pointwise,
    "holder": suite_holder,
    "weaktype": suite_weaktype,
    "radial": suite_radial,
    "counterexample": suite_counterexample,
}


def suite_all(seed: int = 7, ks: tuple[int, ...] = (8, 16, 32, 64)) -> dict:
    parts = {name: SUITES[name](seed) for name in ("pointwise", "holder", "weaktype", "radial")}
    parts["counterexample"] = suite_counterexample(ks)
    return {
        "suite": "all",
        "ok": all(p["ok"] for p in parts.values()),
        "parts": parts,
    }


def reevaluate_constant(report: ConstantReport) -> float:
    """Recompute the witnessed ratio of a report of a record with a
    witness; used to confirm that stored witnesses reproduce their
    constants.  A weak-type ratio is measured again at the stored level by
    ``stepfn.distribution``, not by the record's scorer."""
    record = next((c for c in CONSTANTS.values() if c.inequality == report.inequality and c.witness_key), None)
    if record is None:
        raise ValueError(f"no witness reevaluation for {report.inequality!r}")
    item = record.draw(report.corpus)[report.witness[record.witness_key]]
    if report.inequality.startswith("weak_type_"):
        return _level_ratio(report.inequality.removeprefix("weak_type_"), *item, report.witness["level"])
    return record.score(item)[0]
