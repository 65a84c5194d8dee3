"""Closed-form radial functionals on the Morrey log-average scale.

For a radial step profile phi in dimension n, the weighted inner integral
I(t) = int_0^t |phi(r)| r^(n-1) dr is a piecewise polynomial; dividing by t
and integrating again stays inside the class of piecewise
polynomial-plus-logarithm functions (one more division adds log^2 terms).
Two nesting levels suffice for everything here, so the representation
carries polynomial coefficients plus log and log^2 coefficients and
refuses a third level.  The n-dimensional Hardy operator, the solid
average of |phi| over the ball of radius |x|, is n I(|x|) / |x|^n.

The functionals take the supremum over x > 0 of h(x) = x^shift * P(x),
shift = lam - n < 0, over every piece's ends and critical points.

The Rolle ladder.  On a finite piece put u = log x, t = e^u and D = d/du.
With P = sum c_k t^k + log1 u + log2 u^2, dh/du = e^(shift u) g(u) where

    g = shift P + DP = sum_{k>=1} d_k e^(ku) + b2 u^2 + b1 u + b0,
    d_k = (shift + k) c_k,  b2 = shift log2,  b1 = shift log1 + 2 log2,
    b0 = shift c_0 + log1,

so the piece's supremum sits at an end or a sign change of g.  D^2 g =
e(t) = sum k^2 d_k t^k + 2 b2 is a polynomial in t, whose derivatives end
in a constant.  Each rung f of the ladder is solved the same way.
Between consecutive roots of f', f is monotone and has at most one root,
which exists iff f changes sign between the two ends.  If
the cell is also split at the roots of f'', the convexity is fixed too, so
Newton started from the end with the larger |f'| (where f and f'' share a
sign) falls monotonically onto the root without overshooting; it stops
when it stops advancing.  Climbing e's derivatives from the constant down
to e (in t), then Dg (derivative e, second derivative t e'(t)) and g
(derivative Dg, second derivative e) in u, finds every sign change of g:
no critical point can hide between samples, because nothing is sampled.
A piece starting at 0 is searched from right * 1e-12; for the inner
integral and its antiderivatives the first piece is C x^n, so h = C x^lam
only rises there.  Past the last breakpoint the polynomial part is
constant and the critical points solve a quadratic in log x.

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
from dataclasses import dataclass
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
    def _inner(self) -> "PiecewiseLogPoly":
        """The inner integral, built once per profile by :func:`inner_integral`."""
        return inner_integral(self)

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


def _poly(coeffs, t: float) -> float:
    """sum coeffs[k] t^k, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class PolyLogPiece:
    left: float
    right: float  # math.inf on the last piece
    coeffs: tuple[float, ...]  # ascending powers
    log1: float = 0.0
    log2: float = 0.0

    def __call__(self, t: float) -> float:
        acc = _poly(self.coeffs, t)
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
        """F(x) = int_0^x self(t)/t dt, exact within the polylog class.

        Requires log2 == 0 everywhere (one more level would need log^3)
        and a first piece with no constant or log term (integrability
        at 0).
        """
        first = self.pieces[0]
        if first.coeffs and first.coeffs[0] != 0.0 or first.log1 or first.log2:
            raise ValueError("integrand must vanish at 0 like a positive power")
        out: list[PolyLogPiece] = []
        acc = 0.0  # running value of F at the left end of the piece
        for p in self.pieces:
            if p.log2:
                raise ValueError("a third nesting level is not supported")
            coeffs = [0.0] * max(len(p.coeffs), 1)
            for k in range(1, len(p.coeffs)):
                coeffs[k] = p.coeffs[k] / k
            log1 = p.coeffs[0] if p.coeffs else 0.0
            log2 = 0.5 * p.log1
            # fix the constant so F is continuous at the left junction
            t0 = p.left
            if t0 == 0.0:
                const = 0.0
            else:
                lt = math.log(t0)
                val = log1 * lt + log2 * lt * lt
                for k in range(1, len(coeffs)):
                    val += coeffs[k] * t0**k
                const = acc - val
            coeffs[0] = const
            piece = PolyLogPiece(p.left, p.right, tuple(coeffs), log1, log2)
            out.append(piece)
            if math.isfinite(p.right):
                acc = piece(p.right)
        return PiecewiseLogPoly(tuple(out))


def inner_integral(p: RadialProfile) -> PiecewiseLogPoly:
    """I(t) = int_0^t |phi(r)| r^(n-1) dr as a piecewise polynomial of
    degree n with no log terms."""
    n = p.dimension
    prof = p.profile
    if not prof.is_zero and any(v < 0 for v in prof.values):
        warnings.warn("profile has negative values; using |phi|", stacklevel=2)
    pieces: list[PolyLogPiece] = []
    acc = 0.0
    cursor = 0.0
    cells = [] if prof.is_zero else list(prof.cells())
    for l, r, v in cells:
        if l > cursor:
            pieces.append(PolyLogPiece(cursor, l, (acc,)))
            cursor = l
        coeffs = [0.0] * (n + 1)
        coeffs[0] = acc - abs(v) * cursor**n / n
        coeffs[n] += abs(v) / n
        pieces.append(PolyLogPiece(cursor, r, tuple(coeffs)))
        acc = acc + abs(v) * (r**n - cursor**n) / n
        cursor = r
    pieces.append(PolyLogPiece(cursor, math.inf, (acc,)))
    if pieces[0].left != 0.0:  # pragma: no cover - cells start at >= 0
        pieces.insert(0, PolyLogPiece(0.0, pieces[0].left, (0.0,)))
    return PiecewiseLogPoly(tuple(pieces))


class HardyOriginWarning(UserWarning):
    """Raised when the Hardy operator is evaluated at the removable point 0."""


def hardy(p: RadialProfile, x: float) -> float:
    """Exact n-dimensional Hardy operator H f(x) = n I(|x|) / |x|^n, the
    solid average of |f| over the ball of radius |x|, with I the inner
    integral.  x = 0 is a removable limit; the first-cell value is returned
    under a warning to keep pipelines total.
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
    return p.dimension * p._inner(r) / r**p.dimension


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


def _piece_critical(piece: PolyLogPiece, shift: float, lo: float) -> list[float]:
    """Every sign change of g = shift*P + x*P' on [lo, piece.right], the
    critical points of x^shift * P(x), by the Rolle ladder in u = log x
    (module docstring)."""
    c = list(piece.coeffs) or [0.0]
    d = [(shift + k) * c[k] for k in range(len(c))]
    b2, b1, b0 = shift * piece.log2, shift * piece.log1 + 2.0 * piece.log2, shift * c[0] + piece.log1
    g0 = [b0] + d[1:]  # g = g0(t) + (b2 u + b1) u
    g1 = [b1] + [k * d[k] for k in range(1, len(d))]  # Dg = g1(t) + 2 b2 u
    chain = [[2.0 * b2] + [k * k * d[k] for k in range(1, len(d))]]  # D^2 g = e(t)
    while len(chain[-1]) > 1:
        chain.append([k * chain[-1][k] for k in range(1, len(chain[-1]))])
    # down e's derivatives in t; roots[0] and roots[1] hold the roots of
    # chain[i + 1] and chain[i + 2], none for the constant top one
    ta, tb = lo, piece.right
    roots: list[list[float]] = [[], []]
    for i in range(len(chain) - 2, -1, -1):
        lower, upper = chain[i], chain[i + 1]
        roots.insert(0, _sign_roots(lambda t: _poly(lower, t), lambda t: _poly(upper, t),
                                    _cells(ta, tb, roots[0], roots[1])))
    ua, ub = math.log(ta), math.log(tb)
    e0, e1 = ([math.log(t) for t in r] for r in roots[:2])

    def dg(u: float) -> float:
        return _poly(g1, math.exp(u)) + 2.0 * b2 * u

    r1 = _sign_roots(dg, lambda u: _poly(chain[0], math.exp(u)), _cells(ua, ub, e0, e1))
    r0 = _sign_roots(lambda u: _poly(g0, math.exp(u)) + (b2 * u + b1) * u, dg, _cells(ua, ub, r1, e0))
    return [min(max(math.exp(u), ta), tb) for u in r0]


def _sup_weighted(P: PiecewiseLogPoly, lam: float, n: int) -> tuple[float, float]:
    """(sup, argmax) of x^(lam - n) * P(x) over x > 0."""
    shift = lam - n
    best, arg = 0.0, 0.0

    def consider(x: float, piece: PolyLogPiece) -> None:
        nonlocal best, arg
        if x <= 0.0 or not math.isfinite(x):
            return
        val = x**shift * piece(x)
        if val > best:
            best, arg = val, x

    for piece in P.pieces:
        if math.isfinite(piece.right):
            lo = piece.left if piece.left > 0 else piece.right * 1e-12
            if lo >= piece.right:
                continue
            for x in (lo, piece.right, *_piece_critical(piece, shift, lo)):
                consider(x, piece)
        else:
            # constant-plus-logs tail: critical points solve a quadratic in
            # log x:  shift*(a0 + c1 u + c2 u^2) + c1 + 2 c2 u = 0
            a0 = piece.coeffs[0] if piece.coeffs else 0.0
            c1, c2 = piece.log1, piece.log2
            qa = shift * c2
            qb = shift * c1 + 2.0 * c2
            qc = shift * a0 + c1
            # scaled by a power of two (exactly) to unit size, so that
            # qb^2 - 4 qa qc cannot underflow or overflow for tiny or huge
            # profiles
            e = -math.frexp(max(abs(qa), abs(qb), abs(qc)))[1]
            qa, qb, qc = math.ldexp(qa, e), math.ldexp(qb, e), math.ldexp(qc, e)
            roots: list[float] = []
            if qa == 0.0:
                if qb != 0.0:
                    roots.append(-qc / qb)
            else:
                disc = qb * qb - 4.0 * qa * qc
                if disc >= 0.0:
                    sq = math.sqrt(disc)
                    roots.extend(((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)))
            consider(piece.left if piece.left > 0 else 1e-12, piece)
            for u in roots:
                if u < 700.0:  # e^u overflow guard; objective decays anyway
                    x = math.exp(u)
                    if x > piece.left:
                        consider(x, piece)
    return best, arg


def _radial_sup(p: RadialProfile, lam: float, levels: int) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * P(x), with P the inner integral divided by t
    and integrated ``levels`` times; the candidate search is exhaustive, so
    ``upper_bound`` pads ``value`` by rounding only (module docstring)."""
    if p.profile.is_zero:
        return NormEstimate(0.0, 0.0, None, None)
    P = p._inner
    for _ in range(levels):
        P = P.integrate_div_t()
    value, arg = _sup_weighted(P, lam, p.dimension)
    return NormEstimate(value, value * (1.0 + 1e-9), Interval(0.0, arg) if arg > 0 else None, None)


def zm_radial_functional(p: RadialProfile, lam: float) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * int_0^x (1/t) int_0^t |phi(r)| r^(n-1) dr dt,
    the radial closed form of the Morrey log-average norm."""
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    return _radial_sup(p, lam, 1)


def zm_radial_functional_M(p: RadialProfile, lam: float) -> NormEstimate:
    """Triple-nested variant characterizing the norm after one application
    of the maximal operator; requires a nonincreasing profile."""
    if not 0.0 < lam < p.dimension:
        raise ValueError("lambda must lie in (0, n)")
    if not p.nonincreasing:
        raise ValueError("the triple-nested functional requires a nonincreasing profile")
    return _radial_sup(p, lam, 2)


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
    if p.profile.is_zero:
        return (0.0, 0.0, 0.0)
    lhs = zm_radial_functional_M(p, lam).value
    rhs = zm_radial_functional(p, lam).value
    return lhs, rhs, rhs / (n - lam)
