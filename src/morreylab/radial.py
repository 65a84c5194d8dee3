"""Closed-form radial functionals on the Morrey log-average scale.

For a radial step profile phi in dimension n, the weighted inner integral
I(t) = int_0^t |phi(r)| r^(n-1) dr is a piecewise polynomial; dividing by t
and integrating again stays inside the class of piecewise
polynomial-plus-logarithm functions (one more division adds log^2 terms).
Two nesting levels suffice for everything here, so the representation
carries polynomial coefficients plus log and log^2 coefficients and
refuses a third level.

The functionals take the supremum over x > 0 of x^(lam - n) * P(x); each
piece contributes its endpoints plus the interior sign changes of the
derivative factor (lam - n) P(x) + x P'(x), located by dense sampling and
bisection; past the last breakpoint the polynomial part is constant and
the critical points solve a quadratic in log x, appended analytically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .maxops import RadialProfile
from .norms import NormEstimate
from .stepfn import Interval

__all__ = [
    "PolyLogPiece",
    "PiecewiseLogPoly",
    "inner_integral",
    "zm_radial_functional",
    "zm_radial_functional_M",
    "hardy_reduction_check",
]

_SAMPLES_PER_PIECE = 33
_BISECT_STEPS = 80


@dataclass(frozen=True)
class PolyLogPiece:
    left: float
    right: float  # math.inf on the last piece
    coeffs: tuple[float, ...]  # ascending powers
    log1: float = 0.0
    log2: float = 0.0

    def __call__(self, t: float) -> float:
        acc = 0.0
        for k in reversed(range(len(self.coeffs))):
            acc = acc * t + self.coeffs[k]
        if self.log1 or self.log2:
            lt = math.log(t)
            acc += self.log1 * lt + self.log2 * lt * lt
        return acc

    def derivative_factor(self, t: float, shift: float) -> float:
        """shift * P(t) + t * P'(t), the sign factor of d/dt [t^shift P]."""
        tp = 0.0
        for k in reversed(range(1, len(self.coeffs))):
            tp = tp * t + k * self.coeffs[k]
        tp *= t
        tp += self.log1
        if self.log2:
            tp += 2.0 * self.log2 * math.log(t)
        return shift * self(t) + tp


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
            xs = np.linspace(lo, piece.right, _SAMPLES_PER_PIECE)
            ds = [piece.derivative_factor(float(x), shift) for x in xs]
            for x in (lo, piece.right):
                consider(float(x), piece)
            for a, b, da, db in zip(xs, xs[1:], ds, ds[1:]):
                consider(float(a), piece)
                if da * db < 0.0:
                    leftx, rightx = float(a), float(b)
                    for _ in range(_BISECT_STEPS):
                        mid = 0.5 * (leftx + rightx)
                        if piece.derivative_factor(mid, shift) * da > 0.0:
                            leftx = mid
                        else:
                            rightx = mid
                    consider(0.5 * (leftx + rightx), piece)
        else:
            # constant-plus-logs tail: critical points solve a quadratic in
            # log x:  shift*(a0 + c1 u + c2 u^2) + c1 + 2 c2 u = 0
            a0 = piece.coeffs[0] if piece.coeffs else 0.0
            c1, c2 = piece.log1, piece.log2
            qa = shift * c2
            qb = shift * c1 + 2.0 * c2
            qc = shift * a0 + c1
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


def zm_radial_functional(p: RadialProfile, lam: float) -> NormEstimate:
    """sup_{x>0} x^(lam - n) * int_0^x (1/t) int_0^t |phi(r)| r^(n-1) dr dt,
    the radial closed form of the Morrey log-average norm."""
    n = p.dimension
    if not 0.0 < lam < n:
        raise ValueError("lambda must lie in (0, n)")
    if p.profile.is_zero:
        return NormEstimate(0.0, 0.0, None, None)
    F = inner_integral(p).integrate_div_t()
    value, arg = _sup_weighted(F, lam, n)
    upper = value * (1.0 + 1e-9)  # candidate search is exhaustive; pad rounding
    argmax = Interval(0.0, arg) if arg > 0 else None
    return NormEstimate(value, upper, argmax, None)


def zm_radial_functional_M(p: RadialProfile, lam: float) -> NormEstimate:
    """Triple-nested variant characterizing the norm after one application
    of the maximal operator; requires a nonincreasing profile."""
    n = p.dimension
    if not 0.0 < lam < n:
        raise ValueError("lambda must lie in (0, n)")
    if not p.nonincreasing:
        raise ValueError("the triple-nested functional requires a nonincreasing profile")
    if p.profile.is_zero:
        return NormEstimate(0.0, 0.0, None, None)
    G = inner_integral(p).integrate_div_t().integrate_div_t()
    value, arg = _sup_weighted(G, lam, n)
    upper = value * (1.0 + 1e-9)
    argmax = Interval(0.0, arg) if arg > 0 else None
    return NormEstimate(value, upper, argmax, None)


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
