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
c x^n alone; a ``PolyLogPiece`` holds n and these four coefficients, so
no other shape can be written down.  ``inner_integral`` writes a cell's
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
roots.  When c = 0 (a gap, or the tail, whose right end is infinite) g is
the quadratic b2 u^2 + b1 u + b0, solved directly after scaling by a
power of two, so that b1^2 - 4 b2 b0 cannot underflow or overflow for
tiny or huge profiles.  Nothing is sampled, so no critical point can hide
between samples.

The candidate set is complete, so ``value`` is the supremum up to the
rounding of h at a root found to a few ulps (the maximum is flat to first
order there) and of g's sign within rounding of zero, where h moves by a
rounding amount.  ``upper_bound = value * (1 + 1e-9)`` is that rounding
margin, not a tolerance on a search: it leaves room for P to lose up to
about seven digits to cancellation between its terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

from .norms import NormEstimate
from .stepfn import Interval, StepFunction

__all__ = [
    "RadialProfile",
    "PolyLogPiece",
    "PiecewiseLogPoly",
    "inner_integral",
    "hardy",
    "zm_radial_functional",
    "zm_radial_functional_M",
    "hardy_reduction_check",
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


@dataclass(frozen=True)
class PolyLogPiece:
    """a + c t^n + log1 log t + log2 log^2 t on [left, right], the shape of
    the module docstring's lemma."""

    left: float
    right: float  # math.inf on the last piece
    n: int
    a: float = 0.0
    c: float = 0.0
    log1: float = 0.0
    log2: float = 0.0

    def __post_init__(self) -> None:
        if self.c and math.isinf(self.right):
            raise ValueError("a piece reaching infinity has no power term")

    def __call__(self, t: float) -> float:
        acc = self.a + self.c * t**self.n if self.c else self.a
        if self.log1 or self.log2:
            lt = math.log(t)
            acc += self.log1 * lt + self.log2 * lt * lt
        return acc


@dataclass(frozen=True)
class PiecewiseLogPoly:
    """Contiguous pieces starting at 0, continuous at junctions."""

    pieces: tuple[PolyLogPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("at least one piece required")
        if self.pieces[0].left != 0.0:
            raise ValueError("pieces must start at 0")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.right != b.left:
                raise ValueError("pieces must be contiguous")
        if not math.isinf(self.pieces[-1].right):
            raise ValueError("last piece must extend to infinity")

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        for p in self.pieces:
            if t <= p.right:
                return p(t)
        return self.pieces[-1](t)  # pragma: no cover

    def junction_mismatch(self) -> float:
        worst = 0.0
        for a, b in zip(self.pieces, self.pieces[1:]):
            t = b.left
            worst = max(worst, abs(a(t) - b(t)))
        return worst

    def integrate_div_t(self) -> "PiecewiseLogPoly":
        """F(x) = int_0^x self(t)/t dt, exact within the polylog class:
        a + c t^n + l1 log t becomes const + (c / n) x^n + a log x +
        (l1 / 2) log^2 x.

        Requires log2 == 0 everywhere (one more level would need log^3)
        and a first piece with no constant or log term (integrability
        at 0).
        """
        _require_power_at_origin(self.pieces[0])
        out: list[PolyLogPiece] = []
        acc = 0.0  # running value of F at the left end of the piece
        for p in self.pieces:
            if p.log2:
                raise ValueError("a third nesting level is not supported")
            shape = PolyLogPiece(p.left, p.right, p.n, 0.0, p.c / p.n, p.a, 0.5 * p.log1)
            # fix the constant so F is continuous at the left junction
            piece = replace(shape, a=acc - shape(p.left)) if p.left else shape
            out.append(piece)
            if math.isfinite(p.right):
                acc = piece(p.right)
        return PiecewiseLogPoly(tuple(out))


def _require_power_at_origin(first: PolyLogPiece) -> None:
    """Refuse a first piece with a constant or a log term: it must be c x^n."""
    if first.a or first.log1 or first.log2:
        raise ValueError("the first piece must vanish at 0 like c x^n, with no constant or log term")


def inner_integral(p: RadialProfile) -> PiecewiseLogPoly:
    """I(t) = int_0^t |phi(r)| r^(n-1) dr as pieces a + c t^n on the cells
    and constants on the gaps and the tail, with no log terms."""
    n = p.dimension
    prof = p.profile
    if any(v < 0 for v in prof.values):
        warnings.warn("profile has negative values; using |phi|", stacklevel=2)
    pieces: list[PolyLogPiece] = []
    acc = 0.0
    cursor = 0.0
    for l, r, v in prof.cells():
        if l > cursor:
            pieces.append(PolyLogPiece(cursor, l, n, acc))
            cursor = l
        pieces.append(PolyLogPiece(cursor, r, n, acc - abs(v) * cursor**n / n, abs(v) / n))
        acc = acc + abs(v) * (r**n - cursor**n) / n
        cursor = r
    pieces.append(PolyLogPiece(cursor, math.inf, n, acc))
    return PiecewiseLogPoly(tuple(pieces))


class HardyOriginWarning(UserWarning):
    """Raised when the Hardy operator is evaluated at the removable point 0."""


def hardy(p: RadialProfile, x: float) -> float:
    """Exact n-dimensional Hardy operator H f(x) = n I(|x|) / |x|^n, the
    solid average of |f| over the ball of radius |x|, with I the inner
    integral, summed over the cells (l, r) with l < |x|.  With
    m = min(r, |x|) a cell adds |v| (m / |x|)^n (1 - (l / m)^n), where
    1 - (l / m)^n = -expm1(n log1p((l - m) / m)), or 1 when l = 0.  Every
    term is nonnegative and both ratios are at most 1, so no step overflows
    or cancels, in any dimension; a power that underflows leaves a term
    below the smallest float.  x = 0 is a removable limit; the first-cell
    value is returned under a warning to keep pipelines total.
    """
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
    n = p.dimension
    total = 0.0
    for l, right, v in p.profile.cells():
        if l >= r:
            break
        m = min(right, r)
        total += abs(v) * (m / r) ** n * (-math.expm1(n * math.log1p((l - m) / m)) if l else 1.0)
    return total


def _sign_roots(f, df, pts: list[float]) -> list[float]:
    """Roots of f at its sign changes between consecutive sorted points
    ``pts``, on each of whose cells f is monotone and f'' keeps one sign.
    Newton starts from the end with the larger |f'|, where f and f'' share
    a sign, so it never overshoots, and stops when it stops advancing."""
    out = []
    vals = [f(x) for x in pts]
    for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
        if fa < 0.0 < fb or fb < 0.0 < fa:
            da, db = df(a), df(b)
            z, fz, dz, step = (a, fa, da, 1.0) if abs(da) >= abs(db) else (b, fb, db, -1.0)
            while True:
                new = z - fz / dz
                if not (step * (new - z) > 0.0 and a <= new <= b):
                    break
                z, fz, dz = new, f(new), df(new)
            out.append(z)
    return out


def _cells(a: float, b: float, *inner: list[float]) -> list[float]:
    """a, b and the inner points strictly between them, sorted."""
    return sorted({a, b, *(x for xs in inner for x in xs if a < x < b)})


def _piece_critical(piece: PolyLogPiece, shift: float) -> list[float]:
    """Every sign change of g = shift*P + x*P' inside ``piece``, the
    critical points of x^shift * P(x), by the closed-form split in
    u = log x (module docstring); a piece with c = 0 solves g's quadratic."""
    n = piece.n
    A = (shift + n) * piece.c
    b2, b1, b0 = shift * piece.log2, shift * piece.log1 + 2.0 * piece.log2, shift * piece.a + piece.log1
    if A == 0.0:
        # scaled by a power of two (exactly) to unit size, so that
        # b1^2 - 4 b2 b0 cannot underflow or overflow for tiny or huge
        # profiles
        e = -math.frexp(max(abs(b2), abs(b1), abs(b0)))[1]
        b2, b1, b0 = math.ldexp(b2, e), math.ldexp(b1, e), math.ldexp(b0, e)
        roots: list[float] = []
        if b2 == 0.0:
            if b1 != 0.0:
                roots.append(-b0 / b1)
        else:
            disc = b1 * b1 - 4.0 * b2 * b0
            if disc >= 0.0:
                sq = math.sqrt(disc)
                roots.extend(((-b1 - sq) / (2 * b2), (-b1 + sq) / (2 * b2)))
        # e^u overflow guard; on the tail the objective decays anyway
        return [x for x in (math.exp(u) for u in roots if u < 700.0) if piece.left < x < piece.right]
    ua, ub = math.log(piece.left), math.log(piece.right)
    ratio = -2.0 * b2 / (n * n * A)
    split = [math.log(ratio) / n] if ratio > 0.0 else []  # the zero u* of D^2 g

    def dg(u: float) -> float:
        return n * A * math.exp(n * u) + 2.0 * b2 * u + b1

    r1 = _sign_roots(dg, lambda u: n * n * A * math.exp(n * u) + 2.0 * b2, _cells(ua, ub, split))
    r0 = _sign_roots(lambda u: A * math.exp(n * u) + (b2 * u + b1) * u + b0, dg, _cells(ua, ub, r1, split))
    return [min(max(math.exp(u), piece.left), piece.right) for u in r0]


def _sup_weighted(P: PiecewiseLogPoly, lam: float, n: int) -> tuple[float, float]:
    """(sup, argmax) of x^(lam - n) * P(x) over x > 0.  The first piece,
    c x^n by the shape lemma, contributes its right end; every other piece
    its ends and critical points."""
    first, *rest = P.pieces
    _require_power_at_origin(first)
    shift = lam - n
    candidates = [(first.right, first)] + [
        (x, piece) for piece in rest for x in (piece.left, piece.right, *_piece_critical(piece, shift))
    ]
    best, arg = 0.0, 0.0
    for x, piece in candidates:
        if math.isfinite(x):
            val = x**shift * piece(x)
            if val > best:
                best, arg = val, x
    return best, arg


def _radial_sup(P: PiecewiseLogPoly, lam: float, n: int) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * P(x) for a level P of a profile; the
    candidate search is exhaustive, so ``upper_bound`` pads ``value`` by
    rounding only (module docstring).  A zero profile's levels are 0, and
    so is the estimate."""
    value, arg = _sup_weighted(P, lam, n)
    return NormEstimate(value, value * (1.0 + 1e-9), Interval(0.0, arg) if arg > 0 else None, None)


def zm_radial_functional(p: RadialProfile, lam: float) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * int_0^x (1/t) int_0^t |phi(r)| r^(n-1) dr dt,
    the radial closed form of the Morrey log-average norm."""
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    return _radial_sup(p._level1, lam, p.dimension)


def zm_radial_functional_M(p: RadialProfile, lam: float) -> NormEstimate:
    """Triple-nested variant characterizing the norm after one application
    of the maximal operator; requires a nonincreasing profile."""
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    if not p.nonincreasing:
        raise ValueError("the triple-nested functional requires a nonincreasing profile")
    return _radial_sup(p._level2, lam, p.dimension)


def hardy_reduction_check(p: RadialProfile, lam: float) -> tuple[float, float, float]:
    """(lhs, rhs, bound): the triple-nested supremum, the double-nested one,
    and the reduction bound rhs / (n - lam).

    The reduction inequality lhs <= bound follows by writing the middle
    integrand as y^(n-lam-1) times the weighted double supremum and
    integrating the power exactly; the constant 1/(n - lam) is explicit.
    """
    n = p.dimension
    if not 0.0 < lam < n:
        raise ValueError("lambda must lie in (0, n)")
    if not p.nonincreasing:
        raise ValueError("requires a nonincreasing profile")
    lhs = zm_radial_functional_M(p, lam).value
    rhs = zm_radial_functional(p, lam).value
    return lhs, rhs, rhs / (n - lam)
