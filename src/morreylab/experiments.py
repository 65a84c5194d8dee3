"""Desk-scale verification experiments: the log-gap counterexample, weak-type
constants, pointwise dominations, and the indicator lower bound for the
maximal commutator.

The divergence demonstration is split into two certified halves: the norm
of the bump family stays inside a bracket computed by the norms module,
while the lower-bound chain for the iterated maximal function is an exact
finite expression (every step is an honest inequality for step functions),
so the growing ratio needs no trust in envelope quality on huge domains.

Empirical constants (best observed ratios of weak-type inequalities) are
produced as :class:`ConstantReport` values with reproducible corpus
descriptors; a checked-in expectations file locks them against drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .maxops import (
    RadialProfile,
    RefinePolicy,
    commutator,
    commutator_envelope,
    hardy,
    iterated_maximal,
    maximal,
    maximal_commutator,
    maximal_envelope,
)
from .families import resolve_family
from .norms import (
    FamilySpec,
    NormEstimate,
    _oscillation_rows,
    bmo_seminorm,
    weak_type_morrey_check,
    weak_zygmund_morrey_norm,
    zygmund_morrey_norm,
)
from .orlicz import (LLOG, gauge_average, holder_check, llog_functional, log_plus, luxemburg_average,
                     orlicz_maximal, weak_llog_average)
from .radial import hardy_reduction_check, zm_radial_functional
from .stepfn import Interval, StepFunction, _values_at, combine, default_hull, distribution, pos_neg_parts

__all__ = [
    "CounterexampleSpec",
    "ConstantReport",
    "DominationResult",
    "random_step_function",
    "corpus",
    "build_counterexample",
    "counterexample_upper",
    "m2_lower_bound",
    "counterexample_mf_window_deviation",
    "weak_type_constant",
    "weak_morrey_M2_constant",
    "pointwise_domination_suite",
    "cb_chi_lower_check",
    "standard_constant_reports",
    "reevaluate_constant",
]

LOOSE = RefinePolicy(tol=0.05, max_depth=16)


# ---------------------------------------------------------------------------
# seeded corpora


def random_step_function(
    rng: np.random.Generator,
    max_cells: int = 24,
    signed: bool = False,
    hull: tuple[float, float] = (0.0, 1.0),
) -> StepFunction:
    """Deterministic pseudo-random step function: up to ``max_cells`` cells,
    breakpoints uniform in the hull, values log-uniform in [2^-8, 2^8],
    optionally with random signs."""
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(hull[0], hull[1], n + 1))
    while len(np.unique(bp)) != len(bp):  # pragma: no cover - measure zero
        bp = np.sort(rng.uniform(hull[0], hull[1], n + 1))
    vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), n))
    if signed:
        vals = vals * rng.choice([-1.0, 1.0], n)
    return StepFunction(bp, vals)


def corpus(
    seed: int, size: int, max_cells: int = 24, signed: bool = False
) -> list[StepFunction]:
    rng = np.random.default_rng(seed)
    return [random_step_function(rng, max_cells, signed) for _ in range(size)]


def _corpus_descriptor(seed: int, size: int, max_cells: int, signed: bool) -> dict:
    return {"seed": seed, "size": size, "max_cells": max_cells, "signed": signed}


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


def counterexample_upper(K: int, lam: float = 0.5, family: FamilySpec | None = None) -> NormEstimate:
    """Bracketed log-average Morrey norm of the K-bump function.

    The default family pairs every bump endpoint (the dyadic-only ladder
    provably misses the unit bumps once the gaps grow), plus the usual
    ladder over the expanded hull.
    """
    f = build_counterexample(K)
    return zygmund_morrey_norm(f, lam, family)


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
    worst = 0.0
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
            s = 1.0 + 0.5 * frac * (s_max - 1.0)
            x = a_k + s
            dev = abs(maximal(f, x) * (x - a_k) - 1.0)
            worst = max(worst, dev)
    return worst


# ---------------------------------------------------------------------------
# empirical weak-type constants


@dataclass(frozen=True)
class ConstantReport:
    inequality: str
    corpus: dict
    constant: float
    witness: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "inequality": self.inequality,
            "corpus": self.corpus,
            "constant": self.constant,
            "witness": self.witness,
        }


def _zygmund_integral(f: StepFunction, t):
    """int |f|/t * (1 + log+(|f|/t)), exact cellwise, at t or at each level of an array t."""
    b, w, _ = f._abs_arrays
    lens = np.diff(b)
    mask = w > 0
    scaled = w[mask] / np.asarray(t, dtype=float)[..., None]
    return np.sum(lens[mask] * scaled * (1.0 + np.maximum(np.log(scaled), 0.0)), axis=-1)


def _best_level_ratio(lower: StepFunction, f: StepFunction, scale: float) -> tuple[float, float]:
    """First max over the positive levels t of lower, ascending, of
    |{lower > t}| / (scale * rhs(t)), and its level; every |{lower > t}|
    comes from one sort and a reversed cumulative sum."""
    b, w, _ = lower._abs_arrays
    levels, inv = np.unique(w, return_inverse=True)
    at_least = np.cumsum(np.bincount(inv, weights=np.diff(b))[::-1])[::-1]  # |{lower >= level}|
    meas = np.append(at_least[1:], 0.0)[levels > 0.0]
    levels = levels[levels > 0.0]
    rhs = scale * _zygmund_integral(f, levels)
    ratio = np.divide(meas, rhs, out=np.zeros_like(meas), where=rhs > 0.0)
    if not np.any(ratio > 0.0):
        return 0.0, 0.0
    k = int(np.argmax(ratio))
    return float(ratio[k]), float(levels[k])


def _abs_commutator_lower(
    b: StepFunction, f: StepFunction, refine: RefinePolicy
) -> StepFunction:
    """Certified lower envelope of |[M, b] f| on a default window.

    On each cell of b's partition the symbol is the constant beta, so
    [M, b]f = M(bf) - beta * Mf there and interval arithmetic on the two
    maximal-function envelopes brackets it; the absolute value of a bracket
    takes the distance to zero from below.
    """
    bf = combine(b, f, lambda x, y: x * y)
    window = default_hull(f, b)
    env_bf = maximal_envelope(bf, refine, window)
    env_f = maximal_envelope(f, refine, window)
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


def _witness_lower(
    op_id: str, f: StepFunction, b: StepFunction | None, refine: RefinePolicy
) -> tuple[StepFunction, float]:
    """Certified lower envelope of the operator ``op_id`` applied to f
    (with symbol b for the commutators) and the scale of the inequality's
    right side: 1, or c0 (1 + log+ c0) for [M, b], which is 0 when b
    vanishes."""
    if op_id == "M2":
        return iterated_maximal(f, refine).lower, 1.0
    if op_id == "Cb":
        return commutator_envelope(b, f, refine).lower, 1.0
    if op_id == "MbCommutator":
        plus, minus = pos_neg_parts(b)
        c0 = bmo_seminorm(plus).upper_bound + minus.sup_abs()
        return _abs_commutator_lower(b, f, refine), c0 * (1.0 + log_plus(c0))
    raise ValueError(f"unknown operator id {op_id!r}")


def weak_type_constant(op_id: str, corpus_spec: dict, params: dict | None = None) -> ConstantReport:
    """Best observed constant of the weak-type inequality for ``op_id`` in
    {"M2", "Cb", "MbCommutator"} over a seeded corpus.

    Superlevel measures come from certified lower envelopes, so the
    reported constant is a certified lower bound on the true best constant.
    For the commutator the right side carries c0 (1 + log+ c0) with
    c0 = ||b^+||_* + ||b^-||_inf, using the BMO upper bound so the scaling
    never understates the right side.
    """
    params = params or {}
    refine = params.get("refine", LOOSE)
    fs = corpus(**corpus_spec)
    if not fs:
        raise ValueError("empty corpus")
    symbols: list[StepFunction] = []
    if op_id in ("Cb", "MbCommutator"):
        sym_spec = params["symbols"]
        symbols = corpus(**sym_spec)
        if len(symbols) != len(fs):
            raise ValueError("symbol corpus must match the function corpus")
    best, witness = 0.0, {}
    for i, f in enumerate(fs):
        lower, scale = _witness_lower(op_id, f, symbols[i] if symbols else None, refine)
        ratio, level = _best_level_ratio(lower, f, scale)  # 0 when scale is 0
        if ratio > best:
            best, witness = ratio, {"index": i, "level": level}
    descriptor = {"functions": corpus_spec}
    if op_id in ("Cb", "MbCommutator"):
        descriptor["symbols"] = params["symbols"]
    return ConstantReport(f"weak_type_{op_id}", descriptor, best, witness)


def weak_morrey_M2_constant(corpus_spec: dict, lam: float, refine: RefinePolicy = LOOSE) -> ConstantReport:
    """Best observed ratio of the weak log-average Morrey norm of the
    iterated maximal function against the log-average Morrey norm of the
    input, over a seeded corpus; reported and regression-locked."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    fs = corpus(**corpus_spec)
    if not fs:
        raise ValueError("empty corpus")
    best, witness = 0.0, {}
    for i, f in enumerate(fs):
        lower = iterated_maximal(f, refine).lower
        if lower.is_zero:
            continue
        num = weak_zygmund_morrey_norm(lower, lam).value
        den = zygmund_morrey_norm(f, lam).value
        if den > 0.0 and num / den > best:
            best = num / den
            witness = {"index": i}
    return ConstantReport(
        "weak_morrey_M2", {"functions": corpus_spec, "lambda": lam}, best, witness
    )


# ---------------------------------------------------------------------------
# pointwise dominations


@dataclass
class DominationResult:
    checked_points: int
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
    refine: RefinePolicy = LOOSE,
    with_c16: bool = True,
) -> DominationResult:
    """Checks the exact pointwise dominations of the commutator by the
    maximal commutator at each point: |[M,b]f| <= C_b f + 2 b^- Mf always,
    strengthened to |[M,b]f| <= C_b f when b is nonnegative.  Also records
    the best observed constant of C_b f <= c ||b||_* M^2 f using the upper
    envelope on the right (a valid sufficient witness)."""
    _, minus = pos_neg_parts(b)
    nonneg = minus.is_zero
    violations: list[dict] = []
    cb_vals: dict[float, float] = {}
    for x in points:
        cb = maximal_commutator(b, f, x)
        cb_vals[x] = cb
        mb = abs(commutator(b, f, x))
        slack = cb + 2.0 * minus(x) * maximal(f, x)
        scale = max(1.0, mb, slack)
        if mb > slack + 1e-12 * scale:
            violations.append({"x": x, "kind": "general", "lhs": mb, "rhs": slack})
        if nonneg and mb > cb + 1e-12 * max(1.0, mb, cb):
            violations.append({"x": x, "kind": "nonnegative", "lhs": mb, "rhs": cb})
    c16 = None
    c16_witness: dict = {}
    if with_c16:
        bmo = bmo_seminorm(b).value
        if bmo > 0.0 and not f.is_zero:
            env2 = iterated_maximal(f, refine)
            hull = env2.upper.support_hull()
            for x in points:
                if hull is None or not hull.contains(x):
                    continue
                denom = bmo * env2.upper(x)
                if denom > 0.0:
                    ratio = cb_vals[x] / denom
                    if c16 is None or ratio > c16:
                        c16 = ratio
                        c16_witness = {"x": x}
    return DominationResult(len(points), violations, c16, c16_witness)


def cb_chi_lower_check(
    b: StepFunction, q0: Interval, samples: int = 9
) -> tuple[float, float]:
    """(lhs, rhs) of the indicator lower bound for the maximal commutator:
    the smallest sampled C_b(chi_Q0) value on Q0 against half the mean
    oscillation of the symbol over Q0."""
    chi = StepFunction.indicator(q0.left, q0.right)
    xs = [q0.left + (i + 0.5) * q0.length / samples for i in range(samples)]
    lhs = min(maximal_commutator(b, chi, x) for x in xs)
    rhs = 0.5 * float(_oscillation_rows(b, np.array([q0.left]), np.array([q0.right]), 1.0)[0])
    return lhs, rhs


# ---------------------------------------------------------------------------
# canonical locked constants


def standard_constant_reports() -> dict[str, ConstantReport]:
    """The canonical set of regression-locked empirical constants."""
    reports: dict[str, ConstantReport] = {}
    reports["weak_type_M2"] = weak_type_constant(
        "M2", _corpus_descriptor(11, 10, 10, False)
    )
    reports["weak_type_Cb"] = weak_type_constant(
        "Cb",
        _corpus_descriptor(17, 8, 8, False),
        {"symbols": _corpus_descriptor(13, 8, 6, True)},
    )
    reports["weak_type_MbCommutator"] = weak_type_constant(
        "MbCommutator",
        _corpus_descriptor(23, 8, 8, False),
        {"symbols": _corpus_descriptor(19, 8, 6, True)},
    )
    reports["weak_morrey_M2"] = weak_morrey_M2_constant(
        _corpus_descriptor(29, 6, 8, False), 0.5
    )
    # commutator-vs-BMO constant of the pointwise bound C_b f <= c ||b||_* M^2 f
    rng = np.random.default_rng(31)
    best, witness = 0.0, {}
    for i in range(8):
        b = random_step_function(rng, 6, True)
        f = random_step_function(rng, 8, False)
        pts = list(rng.uniform(-0.5, 1.5, 12))
        res = pointwise_domination_suite(b, f, pts)
        if res.c16 is not None and res.c16 > best:
            best, witness = res.c16, {"pair": i, **res.c16_witness}
    reports["commutator_vs_bmo_m2"] = ConstantReport(
        "pointwise_cb_bmo_m2", {"seed": 31, "pairs": 8}, best, witness
    )
    # Morrey weak-type constant for M on the unit indicator
    chi = StepFunction.indicator(0.0, 1.0)
    env = maximal_envelope(chi, RefinePolicy(tol=0.02, max_depth=14))
    reports["morrey_weak_type_chi"] = ConstantReport(
        "morrey_weak_type",
        {"input": "chi01", "lambda": 0.5},
        weak_type_morrey_check(chi, 0.5, env),
        {},
    )
    # band of the family-restricted Orlicz maximal function against the
    # iterated-maximal bracket
    rng = np.random.default_rng(37)
    lo_band, hi_band = math.inf, 0.0
    for _ in range(5):
        f = random_step_function(rng, 8, False)
        env2 = iterated_maximal(f, LOOSE)
        fam = resolve_family(FamilySpec(mode="breakpoint_pairs"), f)
        hull = f.support_hull()
        for x in np.linspace(hull.left + 0.05, hull.right - 0.05, 5):
            m_orl = orlicz_maximal(f, float(x), fam)
            up, lo = env2.upper(float(x)), env2.lower(float(x))
            if m_orl > 0.0 and lo > 0.0:
                lo_band = min(lo_band, m_orl / up)
                hi_band = max(hi_band, m_orl / lo)
    reports["orlicz_vs_m2_band_lo"] = ConstantReport(
        "orlicz_vs_m2_band_lo", {"seed": 37, "size": 5}, lo_band, {}
    )
    reports["orlicz_vs_m2_band_hi"] = ConstantReport(
        "orlicz_vs_m2_band_hi", {"seed": 37, "size": 5}, hi_band, {}
    )
    # interval-norm vs radial-functional band on even nonincreasing inputs
    rng = np.random.default_rng(41)
    lo_band, hi_band = math.inf, 0.0
    for _ in range(5):
        p, f = random_even_decreasing(rng)
        ratio = zygmund_morrey_norm(f, 0.5).value / zm_radial_functional(p, 0.5).value
        lo_band = min(lo_band, ratio)
        hi_band = max(hi_band, ratio)
    reports["radial_vs_interval_band_lo"] = ConstantReport(
        "radial_vs_interval_band_lo", {"seed": 41, "size": 5}, lo_band, {}
    )
    reports["radial_vs_interval_band_hi"] = ConstantReport(
        "radial_vs_interval_band_hi", {"seed": 41, "size": 5}, hi_band, {}
    )
    return reports


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
    submultiplicative log bound, and the functional sandwich."""
    rng = np.random.default_rng(seed)
    checks: list[dict] = []
    worst_ratio = 0.0
    for _ in range(n_pairs):
        f = random_step_function(rng, 12, signed=False)
        h = random_step_function(rng, 12, signed=False)
        a = float(rng.uniform(-1.0, 0.9))
        q = Interval(a, a + float(rng.uniform(0.1, 2.5)))
        lhs, rhs = holder_check(f, h, q)
        if rhs > 0.0:
            worst_ratio = max(worst_ratio, lhs / rhs)
    # constant 1 holds on generic corpora but is not a theorem for this
    # gauge pairing (see holder_check); the factor-2 form is always valid
    checks.append(_check("holder_all_pairs", worst_ratio <= 1.0 + 1e-8, worst_ratio=worst_ratio))
    checks.append(_check("holder_classical_bound", worst_ratio <= 2.0 + 1e-8, worst_ratio=worst_ratio))
    worst_resid = 0.0
    worst_sandwich = 0.0
    for _ in range(60):
        f = random_step_function(rng, 10, signed=False)
        a = float(rng.uniform(-0.5, 0.5))
        q = Interval(a, a + float(rng.uniform(0.2, 1.5)))
        lux = luxemburg_average(f, q, LLOG)
        if lux > 0.0:
            worst_resid = max(worst_resid, abs(gauge_average(f, q, LLOG, lux) - 1.0))
            func = llog_functional(f, q)
            worst_sandwich = max(worst_sandwich, lux / func, func / (2.0 * lux))
        weak = weak_llog_average(f, q)
        if weak > lux * (1.0 + 1e-6):
            checks.append(_check("weak_leq_strong", False, weak=weak, strong=lux))
    checks.append(_check("luxemburg_fixed_point", worst_resid <= 1e-7, residual=worst_resid))
    checks.append(_check("llog_sandwich", worst_sandwich <= 1.0 + 1e-7, worst=worst_sandwich))
    a = np.exp(rng.uniform(-6, 6, 500))
    bb = np.exp(rng.uniform(-6, 6, 500))
    sub_ok = all(
        1.0 + log_plus(float(x * y)) <= (1.0 + log_plus(float(x))) * (1.0 + log_plus(float(y))) + 1e-12
        for x, y in zip(a, bb)
    )
    checks.append(_check("submultiplicative_log", sub_ok))
    return {
        "suite": "holder",
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
        "constants": {"holder_worst_ratio": worst_ratio},
    }


def suite_weaktype(seed: int = 7) -> dict:
    """Weak-type constants are finite and dilation invariant."""
    checks: list[dict] = []
    constants: dict[str, float] = {}
    spec = _corpus_descriptor(11, 6, 8, False)
    rep = weak_type_constant("M2", spec)
    constants["weak_type_M2"] = rep.constant
    checks.append(_check("m2_constant_finite", 0.0 < rep.constant < math.inf, constant=rep.constant))
    # dilation invariance: scale the witnessed function by 4 and recompute
    fs = corpus(**spec)
    i, t = rep.witness["index"], rep.witness["level"]
    f = fs[i]
    base_ratio = reevaluate_constant(rep)
    g = f.dilate(4.0)
    lower_g, scale_g = _witness_lower("M2", g, None, LOOSE)
    ratio_g = distribution(lower_g, t) / (scale_g * _zygmund_integral(g, t))
    checks.append(
        _check(
            "m2_dilation_invariant",
            abs(ratio_g - base_ratio) <= 1e-9 * max(1.0, base_ratio),
            original=base_ratio,
            dilated=ratio_g,
        )
    )
    rep_cb = weak_type_constant(
        "Cb", _corpus_descriptor(17, 5, 6, False), {"symbols": _corpus_descriptor(13, 5, 5, True)}
    )
    constants["weak_type_Cb"] = rep_cb.constant
    checks.append(_check("cb_constant_finite", 0.0 <= rep_cb.constant < math.inf, constant=rep_cb.constant))
    rep_mb = weak_type_constant(
        "MbCommutator",
        _corpus_descriptor(23, 5, 6, False),
        {"symbols": _corpus_descriptor(19, 5, 5, True)},
    )
    constants["weak_type_MbCommutator"] = rep_mb.constant
    checks.append(_check("mb_constant_finite", 0.0 <= rep_mb.constant < math.inf, constant=rep_mb.constant))
    rep_wm = weak_morrey_M2_constant(_corpus_descriptor(29, 4, 6, False), 0.5)
    constants["weak_morrey_M2"] = rep_wm.constant
    checks.append(_check("weak_morrey_finite", 0.0 < rep_wm.constant < math.inf, constant=rep_wm.constant))
    chi = StepFunction.indicator(0.0, 1.0)
    env = maximal_envelope(chi, RefinePolicy(tol=0.02, max_depth=14))
    cw = weak_type_morrey_check(chi, 0.5, env)
    constants["morrey_weak_type_chi"] = cw
    checks.append(_check("morrey_weak_type_finite", 0.0 < cw < math.inf, constant=cw))
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
    worst_excess = -math.inf
    done = 0
    while done < count:
        n, lam = combos[done % len(combos)]
        k = int(rng.integers(1, 7))
        radii = np.sort(rng.uniform(0.05, 3.0, k))
        vals = np.sort(np.exp(rng.uniform(-2.0, 2.0, k)))[::-1]
        p = RadialProfile(StepFunction(np.concatenate(([0.0], radii)), vals), n, nonincreasing=True)
        lhs, rhs, bound = hardy_reduction_check(p, lam)
        worst_excess = max(worst_excess, lhs - bound * (1.0 + 1e-9))
        done += 1
    checks.append(_check("hardy_reduction", worst_excess <= 0.0, worst_excess=worst_excess))
    chi = StepFunction.indicator(0.0, 1.0)
    got = zm_radial_functional(RadialProfile(chi, 1), 0.5).value
    want = 2.0 * math.exp(-0.5)
    checks.append(_check("radial_closed_form", abs(got - want) <= 1e-6, got=got, want=want))
    worst_band = 0.0
    for _ in range(8):
        p, f = random_even_decreasing(rng)
        for x in rng.uniform(0.05, 3.0, 8):
            mf = maximal(f, float(x))
            hf = hardy(p, float(x))
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
        est = counterexample_upper(K, lam)
        lower = m2_lower_bound(K, lam)
        rows.append(
            {
                "K": K,
                "f_norm_lo": est.value,
                "f_norm_hi": est.upper_bound,
                "Mf_lower_bound": lower,
                "ratio": lower / est.value,
            }
        )
    checks: list[dict] = []
    values = [r["f_norm_lo"] for r in rows]
    checks.append(
        _check(
            "input_norms_stable",
            max(values) / min(values) <= 1.5,
            spread=max(values) / min(values),
        )
    )
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
    """Recompute the single witnessed ratio of a weak-type report; used to
    confirm that stored witnesses reproduce their constants."""
    kind = report.inequality
    if kind.startswith("weak_type_"):
        op = kind.removeprefix("weak_type_")
        fs = corpus(**report.corpus["functions"])
        i = report.witness["index"]
        f = fs[i]
        t = report.witness["level"]
        b = None
        if op != "M2":
            b = corpus(**report.corpus["symbols"])[i]
        lower, scale = _witness_lower(op, f, b, LOOSE)
        return distribution(lower, t) / (scale * _zygmund_integral(f, t))
    raise ValueError(f"no witness reevaluation for {kind!r}")
