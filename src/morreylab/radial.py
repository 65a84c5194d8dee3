"""Closed-form radial functionals on the Morrey log-average scale.

For a radial step profile phi in dimension n, the weighted inner integral
I(t) = int_0^t |phi(r)| r^(n-1) dr is piecewise polynomial; dividing by t
and integrating again adds log and log^2 terms, and a third level would
need log^3, so it is refused.  The n-dimensional Hardy operator, the solid
average of |phi| over the ball of radius |x|, is n I(|x|) / |x|^n;
``hardy`` sums it over the cells without forming I (its docstring).

The functionals take the supremum over x > 0 of h(x) = x^s * P(x),
s = lam - n < 0, over every piece's ends and critical points.

The shape lemma.  Every piece of I and of its two antiderivatives has the
shape P(x) = a + c x^n + l1 log x + l2 log^2 x, and the first piece is
c x^n alone; a piece is stored as n and these four coefficients, so no
other shape can be written down.  ``inner_integral`` writes a cell's
piece as (acc - |v| cursor^n / n) + (|v| / n) x^n, and a gap or the tail
as the constant acc; its first piece starts at cursor = acc = 0.
``PiecewiseLogPoly.integrate_div_t`` maps a + c t^n + l1 log t to
const + (c / n) x^n + a log x + (l1 / 2) log^2 x, refuses l2 != 0, and
refuses a first piece with a constant or a log term, so its first piece
is again (c / n) x^n.  The shape is closed under both steps; a piece that
reaches infinity is refused a power term.  On the first piece
h = c x^lam rises, so its right end is its only candidate, and no piece
is searched near 0.  Each profile builds each level once
(``RadialProfile._level1`` and ``RadialProfile._level2``).

The closed-form split.  On any other piece put u = log x and D = d/du.
Then dh/du = e^(s u) g(u) with

    g = s P + DP = A e^(n u) + b2 u^2 + b1 u + b0,
    A = (s + n) c,  b2 = s l2,  b1 = s l1 + 2 l2,  b0 = s a + l1,

so the piece's supremum sits at an end or a sign change of g.  On a
cell's piece s + n = lam > 0, so A != 0 exactly when c != 0.  Then
D^2 g = n^2 A e^(n u) + 2 b2 is monotone and vanishes at most at
u* = log(-2 b2 / (n^2 A)) / n, when that argument is positive, while
D^3 g = n^3 A e^(n u) keeps the sign of A.  Split at u*, Dg is monotone
with fixed convexity on each part, so ``_sign_roots`` finds its at most
two roots; split again at those roots and at u*, g is monotone with fixed
convexity on each part, and ``_sign_roots`` finds its at most three
roots.  ``_sign_roots`` runs Newton on each part where the function
changes sign, from the end with the larger |f'|, where f and f'' share a
sign, so it never overshoots, and stops when it stops advancing.  When
c = 0 (a gap, or the tail, whose right end is infinite) g is the
quadratic b2 u^2 + b1 u + b0, solved directly after scaling by a power of
two, so that b1^2 - 4 b2 b0 cannot underflow or overflow for tiny or huge
profiles.  Nothing is sampled, so no critical point can hide between
samples.

The candidate set is complete, so ``value`` is the supremum up to the
rounding of h at a root found to a few ulps (the maximum is flat to first
order there) and of g's sign within rounding of zero, where h moves by a
rounding amount.  ``upper_bound = value * (1 + 1e-9)`` is that rounding
margin, not a tolerance on a search: it leaves room for P to lose up to
about seven digits to cancellation between its terms.

Row form.  A level of k profiles is one ``PiecewiseLogPoly`` of padded
rows, one row per profile: the coefficient arrays left, right, a, c, log1
and log2 have shape (pieces, rows), so that each piece column is one
contiguous array, and n holds one dimension per row.  A row shorter than
the longest is padded with copies of its tail, the last piece [R, inf).
Padding is inert: a copy has the tail's candidates and values, so it
cannot beat the tail in a row's first-maximum argmax, and no running sum
advances over a piece whose right end is infinite.  ``inner_integral``
and ``integrate_div_t`` loop over the piece columns left to right, the
accumulation order of a single profile, with array operations across all
rows.  ``_sup_weighted`` gathers every row's candidates into one array,
and ``_piece_critical`` searches every (row, piece) lane at once: the
c = 0 lanes solve their quadratics together, and ``_sign_roots`` runs one
Newton over all Dg parts with a sign change, then one over all g parts.
A lane keeps the one-sided stopping rule above on its own: once its step
no longer advances inside its part it keeps its last iterate and leaves
the array, and the others iterate on.  Every operation is elementwise
per row or per lane, or a reduction within a row, so a row's result does
not depend on the rows solved with it, and a single call serves one
profile (``hardy_reduction_check``) or a whole suite
(``hardy_reduction_rows``).  The kernel runs with numpy's floating-point
errors raised, as Python's ``**`` and ``math.exp`` raise, and reports them
as ``OverflowError``; a level or a supremum is never returned non-finite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Sequence

import numpy as np

from .norms import NormEstimate
from .stepfn import Interval, StepFunction, _points, _shaped

__all__ = [
    "RadialProfile",
    "PiecewiseLogPoly",
    "inner_integral",
    "hardy",
    "zm_radial_functional",
    "zm_radial_functional_M",
    "hardy_reduction_check",
    "hardy_reduction_rows",
]


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

    @cached_property
    def _level1(self) -> "PiecewiseLogPoly":
        """int_0^x I(t) / t dt, with I the :func:`inner_integral`."""
        return inner_integral(self).integrate_div_t()

    @cached_property
    def _level2(self) -> "PiecewiseLogPoly":
        """int_0^x F(t) / t dt, with F the first level."""
        return self._level1.integrate_div_t()

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "profile": self.profile.to_json_obj(),
            "nonincreasing": self.nonincreasing,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RadialProfile":
        dimension = obj.get("dimension", 1)
        nonincreasing = obj.get("nonincreasing", False)
        if type(dimension) is not int:  # bool is an int subclass
            raise ValueError("dimension must be a JSON integer")
        if type(nonincreasing) is not bool:
            raise ValueError("nonincreasing must be a JSON boolean")
        return cls(StepFunction.from_json_obj(obj["profile"]), dimension, nonincreasing)


def _raising(fn):
    """Run ``fn`` with numpy's floating-point errors raised, and report them
    as OverflowError (module docstring, row form)."""

    @wraps(fn)
    def run(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise OverflowError(f"{exc} (out of floating-point range)") from exc

    return run


def _power_and_logs(c, log1, log2, n, x):
    """(c x^n, log1 log x + log2 log^2 x) at x > 0, the power formed only
    where c != 0, so that a constant piece far out cannot overflow."""
    lt = np.log(x)
    return c * np.where(c != 0.0, x, 1.0) ** n, log1 * lt + log2 * lt * lt


def _value(a, c, log1, log2, n, x):
    """a + c x^n + log1 log x + log2 log^2 x at x > 0, summed in that order."""
    power, logs = _power_and_logs(c, log1, log2, n, x)
    return a + power + logs


@dataclass(frozen=True, eq=False)
class PiecewiseLogPoly:
    """Rows of contiguous pieces a + c t^n + log1 log t + log2 log^2 t
    starting at 0, in the row form of the module docstring: piece j of
    row i spans [left[j, i], right[j, i]], with power n[i].  Each row's
    tail, its first piece with right = inf, is repeated by every later
    piece of the row."""

    n: np.ndarray  # (rows,) integer dimensions
    left: np.ndarray  # (pieces, rows), as are the five arrays below
    right: np.ndarray
    a: np.ndarray
    c: np.ndarray
    log1: np.ndarray
    log2: np.ndarray

    def __post_init__(self) -> None:
        cols = (self.left, self.right, self.a, self.c, self.log1, self.log2)
        if self.left.ndim != 2 or not self.left.size:
            raise ValueError("at least one piece and one row required")
        if any(x.shape != self.left.shape for x in cols) or self.n.shape != self.left.shape[1:]:
            raise ValueError("every coefficient array needs shape (pieces, rows), and n shape (rows,)")
        if (self.left[0] != 0.0).any():
            raise ValueError("pieces must start at 0")
        reach = np.isinf(self.right)
        if not reach.any(axis=0).all():
            raise ValueError("last piece must extend to infinity")
        tail = reach.argmax(axis=0)
        j = np.arange(len(self.left))[:, None]
        if ((self.right[:-1] != self.left[1:]) & (j[:-1] < tail)).any():
            raise ValueError("pieces must be contiguous")
        pad = j > tail
        if pad.any() and any((x != x[tail, np.arange(self.n.size)])[pad].any() for x in cols):
            raise ValueError("pieces after a row's tail must repeat it")
        if ((self.c != 0.0) & reach).any():
            raise ValueError("a piece reaching infinity has no power term")
        if not all(np.isfinite(x).all() for x in cols[2:]):
            raise OverflowError("a level's coefficients are out of floating-point range")

    def __call__(self, t):
        """Every row at t, a float or an array: shape (rows,) + shape(t),
        or shape(t) for a single row; 0 at t <= 0."""
        t = np.asarray(t, dtype=float)
        pos = t.reshape(-1) > 0.0
        x = np.where(pos, t.reshape(-1), 1.0)
        j = (self.right[:, :, None] < x).sum(axis=0)  # the first piece with x <= right
        rows = np.arange(self.n.size)[:, None]
        val = _value(self.a[j, rows], self.c[j, rows], self.log1[j, rows], self.log2[j, rows], self.n[:, None], x)
        out = np.where(pos, val, 0.0).reshape(self.n.shape + t.shape)
        return out[0] if self.n.size == 1 else out

    def junction_mismatch(self) -> float:
        """The largest jump between neighbouring pieces, over every row."""
        x, n = np.where(self.left[1:] > 0.0, self.left[1:], 1.0), self.n
        before = _value(self.a[:-1], self.c[:-1], self.log1[:-1], self.log2[:-1], n, x)
        after = _value(self.a[1:], self.c[1:], self.log1[1:], self.log2[1:], n, x)
        return float(np.abs(before - after).max(initial=0.0))

    @_raising
    def integrate_div_t(self) -> "PiecewiseLogPoly":
        """F(x) = int_0^x self(t)/t dt on every row, exact within the polylog
        class: a + c t^n + l1 log t becomes const + (c / n) x^n + a log x +
        (l1 / 2) log^2 x, with the constant chosen so that F is continuous
        at each piece's left end.

        Requires log2 == 0 everywhere (one more level would need log^3)
        and a first piece with no constant or log term (integrability
        at 0).
        """
        _require_power_at_origin(self)
        if (self.log2 != 0.0).any():
            raise ValueError("a third nesting level is not supported")
        n, c, log1, log2 = self.n, self.c / self.n, self.a, 0.5 * self.log1
        inner = self.left > 0.0
        ends = np.isfinite(self.right)
        pl, ll = _power_and_logs(c, log1, log2, n, np.where(inner, self.left, 1.0))
        pr, lr = _power_and_logs(c, log1, log2, n, np.where(ends, self.right, 1.0))
        a = np.zeros_like(c)
        acc = np.zeros(n.size)  # running value of F at the piece's left end
        for j in range(len(a)):
            a[j] = np.where(inner[j], acc - (0.0 + pl[j] + ll[j]), 0.0)
            acc = np.where(ends[j], a[j] + pr[j] + lr[j], acc)
        return PiecewiseLogPoly(n, self.left, self.right, a, c, log1, log2)


def _require_power_at_origin(P: PiecewiseLogPoly) -> None:
    """Refuse a first piece with a constant or a log term: it must be c x^n."""
    if (P.a[0] != 0.0).any() or (P.log1[0] != 0.0).any() or (P.log2[0] != 0.0).any():
        raise ValueError("the first piece must vanish at 0 like c x^n, with no constant or log term")


@_raising
def inner_integral(*profiles: RadialProfile) -> PiecewiseLogPoly:
    """I(t) = int_0^t |phi(r)| r^(n-1) dr of each profile, one row each, as
    pieces a + c t^n on the cells and constants on the gaps and the tail,
    with no log terms.  A leading gap (0, first breakpoint) is a cell of
    value 0; the tail [last breakpoint, inf) and its padding hold the
    total."""
    if not profiles:
        raise ValueError("at least one profile required")
    edges, vals = [], []
    for p in profiles:
        prof = p.profile
        if any(v < 0 for v in prof.values):
            warnings.warn("profile has negative values; using |phi|", stacklevel=3)
        e, v = list(prof.breakpoints), [abs(x) for x in prof.values]
        if prof.is_zero:
            e = [0.0]
        elif e[0] > 0.0:
            e, v = [0.0, *e], [0.0, *v]
        edges.append(e)
        vals.append(v)
    m = max(len(e) for e in edges)  # pieces: the cells and the tail
    cells = np.array([len(v) for v in vals])
    e = np.array([x + x[-1:] * (m - len(x)) for x in edges]).T
    v = np.array([x + [0.0] * (m - len(x)) for x in vals]).T
    n = np.array([p.dimension for p in profiles])
    pw = e**n
    a = np.empty_like(e)
    acc = np.zeros(n.size)
    for j in range(m - 1):
        a[j] = acc - v[j] * pw[j] / n
        acc = acc + v[j] * (pw[j + 1] - pw[j]) / n
    a[-1] = acc
    right = np.where(np.arange(m)[:, None] < cells, np.vstack((e[1:], e[-1:])), np.inf)
    zero = np.zeros_like(e)
    return PiecewiseLogPoly(n, e, right, a, v / n, zero, zero)


class HardyOriginWarning(UserWarning):
    """Raised when the Hardy operator is evaluated at the removable point 0."""


def hardy(p: RadialProfile, xs: float | np.ndarray) -> float | np.ndarray:
    """Exact n-dimensional Hardy operator H f(x) = n I(|x|) / |x|^n, the
    solid average of |f| over the ball of radius |x|, with I the inner
    integral, at a point or at a 1-D array of points (a float in gives a
    float out; a non-finite point raises ValueError).  It is summed over the
    cells (l, r) with l < |x|, left to right.  With m = min(r, |x|) a cell
    adds |v| (m / |x|)^n (1 - (l / m)^n), where
    1 - (l / m)^n = -expm1(n log1p((l - m) / m)), or 1 when l = 0.  Every
    term is nonnegative and both ratios are at most 1, so no step overflows
    or cancels, in any dimension; a power that underflows leaves a term
    below the smallest float.  Only the points past l enter a cell's terms.
    x = 0 is a removable limit; the first-cell value is returned there, under
    one warning per call, to keep pipelines total.
    """
    pts, scalar = _points(xs)
    r = np.abs(pts)
    total = np.zeros(len(pts))
    origin = r == 0.0
    if origin.any():
        warnings.warn(
            "Hardy operator at x = 0 returns the limit value |phi(0+)|",
            HardyOriginWarning,
            stacklevel=2,
        )
        total[origin] = abs(p.profile(0.0))
    n = p.dimension
    for l, right, v in p.profile.cells():
        on = np.flatnonzero(l < r)
        if not on.size:
            break
        m = np.minimum(right, r[on])
        total[on] += abs(v) * (m / r[on]) ** n * (-np.expm1(n * np.log1p((l - m) / m)) if l else 1.0)
    return _shaped(total, scalar)


def _sign_roots(f, df, pts: np.ndarray, coef: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(roots, found): per lane (column), the root of f on each part
    [pts[i], pts[i + 1]] where f changes sign strictly, found by one-sided
    Newton (module docstring).  ``pts`` is sorted down each column, and f
    is monotone with f'' of one sign on each part; f and df take
    (u, *coef), coef holding one entry per lane.  A part without a sign
    change keeps its left end, unfound."""
    vals = f(pts, *coef)
    found = ((vals[:-1] < 0.0) & (0.0 < vals[1:])) | ((vals[1:] < 0.0) & (0.0 < vals[:-1]))
    roots = pts[:-1].copy()
    part, lane = np.nonzero(found)
    a, b, fa, fb = pts[part, lane], pts[part + 1, lane], vals[part, lane], vals[part + 1, lane]
    coef = tuple(x[lane] for x in coef)
    da, db = df(a, *coef), df(b, *coef)
    first = np.abs(da) >= np.abs(db)
    z, fz, dz = np.where(first, a, b), np.where(first, fa, fb), np.where(first, da, db)
    step = np.where(first, 1.0, -1.0)
    live = np.arange(z.size)
    while live.size:
        new = z - fz / dz
        go = (step * (new - z) > 0.0) & (a <= new) & (new <= b)
        roots[part[live[~go]], lane[live[~go]]] = z[~go]
        live, a, b, step, z = live[go], a[go], b[go], step[go], new[go]
        coef = tuple(x[go] for x in coef)
        fz, dz = f(z, *coef), df(z, *coef)
    return roots, found


def _g(u, n, A, b2, b1, b0):
    return A * np.exp(n * u) + (b2 * u + b1) * u + b0


def _dg(u, n, A, b2, b1, b0):
    return n * A * np.exp(n * u) + 2.0 * b2 * u + b1


def _d2g(u, n, A, b2, b1, b0):
    return n * n * A * np.exp(n * u) + 2.0 * b2


def _quadratic_critical(b2, b1, b0, left, right):
    """Roots x = e^u in (left, right) of b2 u^2 + b1 u + b0, scaled by a
    power of two (exactly) to unit size, so that b1^2 - 4 b2 b0 cannot
    underflow or overflow for tiny or huge profiles; (2, lanes) slots."""
    e = -np.frexp(np.maximum(np.maximum(np.abs(b2), np.abs(b1)), np.abs(b0)))[1]
    b2, b1, b0 = np.ldexp(b2, e), np.ldexp(b1, e), np.ldexp(b0, e)
    line = (b2 == 0.0) & (b1 != 0.0)
    disc = b1 * b1 - 4.0 * b2 * b0
    two = (b2 != 0.0) & (disc >= 0.0)
    sq = np.sqrt(np.where(two, disc, 0.0))
    den = np.where(two, 2 * b2, 1.0)
    u = np.stack((np.where(line, -b0 / np.where(line, b1, 1.0), (-b1 - sq) / den), (-b1 + sq) / den))
    found = np.stack((line | two, two)) & (u < 700.0)  # e^u overflow guard; on the tail h decays anyway
    x = np.exp(np.where(found, u, 0.0))
    return x, found & (left < x) & (x < right)


def _piece_critical(n, left, right, a, c, log1, log2, shift) -> tuple[np.ndarray, np.ndarray]:
    """(xs, found): every sign change of g = shift*P + x*P' inside each
    lane's piece [left, right], the critical points of x^shift * P(x), by
    the closed-form split in u = log x (module docstring).  The arguments
    broadcast to the lanes' shape S; both results have shape (4,) + S, and
    slot i holds a lane's i-th critical point, in increasing order on a
    power piece, where ``found`` is set.  A piece with c = 0 solves g's
    quadratic."""
    lanes = np.broadcast_arrays(n, left, right, a, c, log1, log2, shift)
    shape = lanes[0].shape
    n, left, right, a, c, log1, log2, shift = (x.reshape(-1) for x in lanes)
    A = (shift + n) * c
    b2, b1, b0 = shift * log2, shift * log1 + 2.0 * log2, shift * a + log1
    xs, found = np.ones((4, A.size)), np.zeros((4, A.size), dtype=bool)
    flat = A == 0.0
    xs[:2, flat], found[:2, flat] = _quadratic_critical(b2[flat], b1[flat], b0[flat], left[flat], right[flat])
    pw = ~flat
    n, A, b2, b1, b0, left, right = n[pw], A[pw], b2[pw], b1[pw], b0[pw], left[pw], right[pw]
    ua, ub = np.log(left), np.log(right)
    ratio = -2.0 * b2 / (n * n * A)
    split = np.log(np.where(ratio > 0.0, ratio, 1.0)) / n  # the zero u* of D^2 g
    mid = np.where((ratio > 0.0) & (ua < split) & (split < ub), split, ub)
    coef = (n, A, b2, b1, b0)
    r1, f1 = _sign_roots(_dg, _d2g, np.stack((ua, mid, ub)), coef)
    r1 = np.where(f1 & (ua < r1) & (r1 < ub), r1, ub)
    r0, f0 = _sign_roots(_g, _dg, np.sort(np.stack((ua, r1[0], r1[1], mid, ub)), axis=0), coef)
    xs[:, pw], found[:, pw] = np.minimum(np.maximum(np.exp(r0), left), right), f0
    return xs.reshape((4,) + shape), found.reshape((4,) + shape)


@_raising
def _sup_weighted(P: PiecewiseLogPoly, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sup, argmax) of x^(lam - n) * P(x) over x > 0 on every row, lam one
    entry per row.  The first piece, c x^n by the shape lemma, contributes
    its right end; every other piece its ends and critical points.  Each
    row takes its first largest candidate, and 0 at 0 when none is
    positive."""
    _require_power_at_origin(P)
    shift = lam - P.n
    m, k = P.left.shape
    rest = slice(1, None)
    crit, found = _piece_critical(P.n, P.left[rest], P.right[rest], P.a[rest], P.c[rest], P.log1[rest],
                                  P.log2[rest], shift)

    def by_piece(slots):  # (6, m - 1, k) slots to candidate rows, piece by piece
        return slots.swapaxes(0, 1).reshape(-1, k)

    xs = np.concatenate((P.right[:1], by_piece(np.concatenate((P.left[None, rest], P.right[None, rest], crit)))))
    ends = np.ones((2, m - 1, k), dtype=bool)
    ok = np.concatenate((np.ones((1, k), dtype=bool), by_piece(np.concatenate((ends, found)))))
    ok &= (0.0 < xs) & (xs < np.inf)
    x = np.where(ok, xs, 1.0)
    j = np.concatenate(([0], np.repeat(np.arange(1, m), 6)))
    h = np.where(ok, x**shift * _value(P.a[j], P.c[j], P.log1[j], P.log2[j], P.n, x), 0.0)
    best = np.vstack((np.zeros((1, k)), h)).argmax(axis=0)
    rows = np.arange(k)
    value = np.where(best > 0, h[best - 1, rows], 0.0)
    if not np.isfinite(value).all():
        raise OverflowError("a radial supremum is out of floating-point range")
    return value, np.where(best > 0, x[best - 1, rows], 0.0)


def _radial_sup(P: PiecewiseLogPoly, lam: float) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * P(x) for the one-row level P of a profile;
    the candidate search is exhaustive, so ``upper_bound`` pads ``value``
    by rounding only (module docstring).  A zero profile's levels are 0,
    and so is the estimate."""
    value, arg = (float(x[0]) for x in _sup_weighted(P, np.array([lam], dtype=float)))
    return NormEstimate(value, value * (1.0 + 1e-9), Interval(0.0, arg) if arg > 0 else None, None)


def zm_radial_functional(p: RadialProfile, lam: float) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * int_0^x (1/t) int_0^t |phi(r)| r^(n-1) dr dt,
    the radial closed form of the Morrey log-average norm."""
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    return _radial_sup(p._level1, lam)


def zm_radial_functional_M(p: RadialProfile, lam: float) -> NormEstimate:
    """Triple-nested variant characterizing the norm after one application
    of the maximal operator; requires a nonincreasing profile."""
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    if not p.nonincreasing:
        raise ValueError("the triple-nested functional requires a nonincreasing profile")
    return _radial_sup(p._level2, lam)


def _reduction_domain(p: RadialProfile, lam: float) -> None:
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    if not p.nonincreasing:
        raise ValueError("requires a nonincreasing profile")


def _reduction(F: PiecewiseLogPoly, G: PiecewiseLogPoly, lam: np.ndarray):
    """(lhs, rhs, bound) rows from the levels F and G of the same profiles."""
    lhs, rhs = _sup_weighted(G, lam)[0], _sup_weighted(F, lam)[0]
    return lhs, rhs, rhs / (F.n - lam)


def hardy_reduction_check(p: RadialProfile, lam: float) -> tuple[float, float, float]:
    """(lhs, rhs, bound): the triple-nested supremum, the double-nested one,
    and the reduction bound rhs / (n - lam).

    The reduction inequality lhs <= bound follows by writing the middle
    integrand as y^(n-lam-1) times the weighted double supremum and
    integrating the power exactly; the constant 1/(n - lam) is explicit.
    """
    _reduction_domain(p, lam)
    lhs, rhs, bound = _reduction(p._level1, p._level2, np.array([lam], dtype=float))
    return float(lhs[0]), float(rhs[0]), float(bound[0])


def hardy_reduction_rows(profiles: Sequence[RadialProfile],
                         lams: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``hardy_reduction_check`` of every (profile, lam) pair as arrays
    (lhs, rhs, bound), from one build of each level and one critical-point
    search over all rows (module docstring, row form)."""
    if len(profiles) != len(lams):
        raise ValueError("one lambda per profile required")
    for p, lam in zip(profiles, lams):
        _reduction_domain(p, lam)
    F = inner_integral(*profiles).integrate_div_t()
    return _reduction(F, F.integrate_div_t(), np.array(lams, dtype=float))
