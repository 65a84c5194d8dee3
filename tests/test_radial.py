import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import experiments, radial
from morreylab.radial import (
    PiecewiseLogPoly,
    RadialProfile,
    _piece_critical,
    _reduction,
    _sup_weighted,
    hardy,
    hardy_reduction_check,
    hardy_reduction_rows,
    inner_integral,
    zm_radial_functional,
    zm_radial_functional_M,
)
from morreylab.stepfn import StepFunction

CHI01 = StepFunction.indicator(0.0, 1.0)


def one_row(n, *pieces):
    """A level of one row from its (left, right, a, c, log1, log2) pieces."""
    cols = np.array(pieces, dtype=float).T[:, :, None]
    return PiecewiseLogPoly(np.array([n]), *cols)


def piece_value(piece, n, x):
    """a + c x^n + log1 log x + log2 log^2 x of one (left, right, a, c,
    log1, log2) piece."""
    _, _, a, c, log1, log2 = piece
    return a + c * x**n + log1 * math.log(x) + log2 * math.log(x) ** 2


def decreasing_profile(rng, max_cells=6, max_radius=3.0):
    k = int(rng.integers(1, max_cells + 1))
    radii = np.sort(rng.uniform(0.05, max_radius, k))
    vals = np.sort(np.exp(rng.uniform(-2.0, 2.0, k)))[::-1]
    return StepFunction(np.concatenate(([0.0], radii)), vals)


def quad_midpoint(fn, a, b, n=4000, splits=()):
    """Midpoint quadrature split at the integrand's jump points (midpoints
    never sample a jump, so step discontinuities cost nothing)."""
    cuts = sorted({a, b, *(s for s in splits if a < s < b)})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        edges = np.linspace(lo, hi, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        ys = np.array([fn(float(x)) for x in mids])
        total += float(np.sum(ys) * (hi - lo) / n)
    return total


def quad_adaptive(fn, a, b, tol=1e-10, splits=()):
    """Adaptive Simpson quadrature split at the integrand's jump points."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fn(lm), fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1
        )

    cuts = sorted({a, b, *(s for s in splits if a < s < b)})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        flo, fmid, fhi = fn(lo + 1e-13 * (hi - lo)), fn(mid), fn(hi - 1e-13 * (hi - lo))
        whole = simpson(lo, hi, flo, fmid, fhi)
        total += recurse(lo, hi, flo, fmid, fhi, whole, tol, 40)
    return total


class TestInnerIntegral:
    def test_chi_n1(self):
        I = inner_integral(RadialProfile(CHI01, 1))
        assert I(0.5) == 0.5
        assert I(1.0) == 1.0
        assert I(7.0) == 1.0

    def test_chi_n2(self):
        I = inner_integral(RadialProfile(CHI01, 2))
        assert I(0.5) == pytest.approx(0.125, rel=1e-14)
        assert I(1.0) == pytest.approx(0.5, rel=1e-14)
        assert I(3.0) == pytest.approx(0.5, rel=1e-14)

    def test_zero(self):
        I = inner_integral(RadialProfile(StepFunction.zero(), 2))
        assert I(1.0) == 0.0

    def test_continuity_and_quadrature(self):
        rng = np.random.default_rng(40)
        for n in (1, 2, 3):
            for _ in range(4):
                prof = decreasing_profile(rng)
                p = RadialProfile(prof, n, nonincreasing=True)
                I = inner_integral(p)
                assert I.junction_mismatch() <= 1e-12
                for t in (0.3, 1.1, 2.7):
                    want = quad_midpoint(
                        lambda r: abs(prof(r)) * r ** (n - 1),
                        0.0,
                        t,
                        splits=prof.breakpoints,
                    )
                    assert I(t) == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestIntegrateDivT:
    def test_chi_n1_closed_form(self):
        F = inner_integral(RadialProfile(CHI01, 1)).integrate_div_t()
        assert F(0.5) == pytest.approx(0.5, rel=1e-14)
        assert F(1.0) == pytest.approx(1.0, rel=1e-14)
        assert F(math.e) == pytest.approx(2.0, rel=1e-14)

    def test_second_level_log_squared(self):
        G = inner_integral(RadialProfile(CHI01, 1)).integrate_div_t().integrate_div_t()
        x = 5.0
        want = 1.0 + math.log(x) + 0.5 * math.log(x) ** 2
        assert G(x) == pytest.approx(want, rel=1e-13)

    def test_third_level_refused(self):
        G = inner_integral(RadialProfile(CHI01, 1)).integrate_div_t().integrate_div_t()
        with pytest.raises(ValueError):
            G.integrate_div_t()

    def test_quadrature_random(self):
        rng = np.random.default_rng(41)
        for n in (1, 2):
            prof = decreasing_profile(rng)
            p = RadialProfile(prof, n, nonincreasing=True)
            I = inner_integral(p)
            F = I.integrate_div_t()
            assert F.junction_mismatch() <= 1e-10
            for x in (0.4, 1.3, 3.4, 9.0):
                want = quad_adaptive(
                    lambda t: I(t) / t, 1e-12, x, tol=1e-12, splits=prof.breakpoints
                )
                assert F(x) == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_second_antiderivative_against_adaptive_quadrature(self):
        rng = np.random.default_rng(46)
        prof = decreasing_profile(rng)
        p = RadialProfile(prof, 2, nonincreasing=True)
        F = inner_integral(p).integrate_div_t()
        G = F.integrate_div_t()
        for x in (0.7, 2.2, 6.5):
            want = quad_adaptive(
                lambda t: F(t) / t, 1e-12, x, tol=1e-12, splits=prof.breakpoints
            )
            assert G(x) == pytest.approx(want, rel=1e-8, abs=1e-10)


class TestRadialFunctionals:
    def test_chi_closed_form(self):
        # F(x) = x then 1 + log x; maximizing x^(-1/2) F gives x = e and
        # the value 2 e^(-1/2)
        est = zm_radial_functional(RadialProfile(CHI01, 1), 0.5)
        assert est.value == pytest.approx(2.0 * math.exp(-0.5), abs=1e-6)
        assert est.argmax_interval.right == pytest.approx(math.e, rel=1e-6)

    def test_chi_M_closed_form(self):
        # G(x) = 1 + log x + log^2 x / 2 past 1; the critical point solves
        # log^2 x - 2 log x - 2 = 0, log x = 1 + sqrt(3), giving
        # 2 (2 + sqrt 3) e^(-(1+sqrt 3)/2); quadrature oracle agreed to 1e-7.
        # Scaled far from 1, the tail's quadratic must not underflow or overflow.
        s3 = math.sqrt(3.0)
        want = 2.0 * (2.0 + s3) * math.exp(-(1.0 + s3) / 2.0)
        for c in (1.0, 1e-200, 1e200):
            p = RadialProfile(CHI01.scale(c), 1, nonincreasing=True)
            assert zm_radial_functional_M(p, 0.5).value == pytest.approx(c * want, rel=1e-12)

    def test_zero(self):
        z = RadialProfile(StepFunction.zero(), 1, nonincreasing=True)
        assert zm_radial_functional(z, 0.5).value == 0.0
        assert zm_radial_functional_M(z, 0.5).value == 0.0

    def test_scaling_linear(self):
        rng = np.random.default_rng(42)
        prof = decreasing_profile(rng)
        p1 = RadialProfile(prof, 1, nonincreasing=True)
        p2 = RadialProfile(prof.scale(2.0), 1, nonincreasing=True)
        a = zm_radial_functional(p1, 0.5).value
        b = zm_radial_functional(p2, 0.5).value
        assert b == pytest.approx(2.0 * a, rel=1e-9)

    def test_monotone_in_profile(self):
        rng = np.random.default_rng(43)
        prof = decreasing_profile(rng)
        bigger = StepFunction(prof.breakpoints, tuple(v * 1.5 for v in prof.values))
        pa = RadialProfile(prof, 2, nonincreasing=True)
        pb = RadialProfile(bigger, 2, nonincreasing=True)
        assert zm_radial_functional_M(pb, 1.0).value >= zm_radial_functional_M(pa, 1.0).value

    def test_domain_errors(self):
        p = RadialProfile(CHI01, 1, nonincreasing=True)
        with pytest.raises(ValueError):
            zm_radial_functional(p, 0.0)
        with pytest.raises(ValueError):
            zm_radial_functional(p, 1.0)
        loose = RadialProfile(CHI01, 1, nonincreasing=False)
        with pytest.raises(ValueError):
            zm_radial_functional_M(loose, 0.5)

    def test_sup_against_dense_grid(self):
        rng = np.random.default_rng(44)
        for n in (1, 2):
            prof = decreasing_profile(rng)
            p = RadialProfile(prof, n, nonincreasing=True)
            lam = 0.5 * n
            F = inner_integral(p).integrate_div_t()
            est = zm_radial_functional(p, lam)
            xs = np.exp(np.linspace(math.log(1e-3), math.log(1e6), 200001))
            dense = float(np.max(xs ** (lam - n) * F(xs)))
            assert est.value >= dense - 1e-9 * dense
            assert est.value <= dense * (1.0 + 1e-4)

    def test_close_critical_pair_between_samples(self):
        # on [1, 2], lam = 1.5 and n = 3, g = shift P + x P' = A x^3 + B u^2
        # + C u + D (u = log x) vanishes at 1.98, 1.998 and 0.5, so
        # x^shift P peaks at 1.98, dips until 1.998 and rises to 2 without
        # regaining its peak: h(2) is 6.6e-8 below it, and a 33-point scan
        # returns h(2)
        shift = 1.5 - 3
        us = [math.log(1.98), math.log(1.998), math.log(0.5)]
        A, B, C, D = np.linalg.svd([[math.exp(3 * u), u * u, u, 1.0] for u in us])[2][-1]
        if A * 1.5**3 + (B * math.log(1.5) + C) * math.log(1.5) + D < 0.0:
            A, B, C, D = -A, -B, -C, -D  # g > 0 below 1.98
        log2 = float(B) / shift
        log1 = (float(C) - 2.0 * log2) / shift
        mid = (1.0, 2.0, (float(D) - log1) / shift, float(A) / (shift + 3), log1, log2)
        P = one_row(3, (0.0, 1.0, 0.0, 0.0, 0.0, 0.0), mid, (2.0, math.inf, piece_value(mid, 3, 2.0), 0.0, 0.0, 0.0))
        peak = 1.98**shift * piece_value(mid, 3, 1.98)
        (value,), (arg,) = _sup_weighted(P, np.array([1.5]))
        assert value >= peak * (1.0 - 1e-15)
        assert abs(arg - 1.98) <= 1e-12

    @pytest.mark.parametrize("n", [26, 40])
    def test_high_dimension_is_finite(self, n):
        # the first piece's right end is its only candidate; a search start
        # at right * 1e-12 raised to lam - n overflowed from n = 26
        p = RadialProfile(StepFunction([0.0, 0.5, 1.0], [2.0, 1.0]), n, nonincreasing=True)
        F = inner_integral(p).integrate_div_t()
        xs = np.exp(np.linspace(math.log(0.05), math.log(1e3), 20001))
        for functional, G in ((zm_radial_functional, F), (zm_radial_functional_M, F.integrate_div_t())):
            value = functional(p, 0.5).value
            dense = float(np.max(xs ** (0.5 - n) * G(xs)))
            assert math.isfinite(value)
            assert value >= dense - 1e-9 * dense


def _g(n, a, c, log1, log2, shift, u):
    """g = shift P + DP at u = log x (an array or a float), from a piece's
    coefficients."""
    A = (shift + n) * c
    return A * np.exp(n * u) + shift * log2 * u * u + (shift * log1 + 2.0 * log2) * u + shift * a + log1


class TestPieceShape:
    def test_power_reaching_infinity_refused(self):
        with pytest.raises(ValueError):
            one_row(2, (0.0, 1.0, 0.0, 1.0, 0.0, 0.0), (1.0, math.inf, 1.0, 2.0, 0.0, 0.0))

    def test_first_piece_constant_refused(self):
        P = one_row(2, (0.0, 1.0, 1.0, 2.0, 0.0, 0.0), (1.0, math.inf, 3.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            _sup_weighted(P, np.array([1.0]))

    def test_every_level_has_the_shape(self):
        rng = np.random.default_rng(47)
        for n in range(1, 9):
            for _ in range(3):
                I = inner_integral(RadialProfile(decreasing_profile(rng), n, nonincreasing=True))
                F = I.integrate_div_t()
                for P in (I, F, F.integrate_div_t()):
                    assert (P.a[0] == 0.0).all() and (P.log1[0] == 0.0).all() and (P.log2[0] == 0.0).all()
                    if P is I:
                        assert (P.log1 == 0.0).all() and (P.log2 == 0.0).all()

    def test_critical_points_against_dense_sign_scan(self):
        # random sparse pieces with g = A x^n + B u^2 + C u + D built from
        # prescribed zeros: by turns c = 0 with two zeros (one of them past
        # the right end every other time), three zeros inside (so the zero
        # u* of D^2 g lies between them), two inside and one past the
        # right end, and a random piece
        rng = np.random.default_rng(48)
        lanes = []
        for trial in range(400):
            n = int(rng.integers(1, 7))
            shift = n * float(rng.uniform(0.05, 0.95)) - n
            left = float(np.exp(rng.uniform(-2.0, 1.0)))
            right = left * float(np.exp(rng.uniform(0.2, 2.0)))
            ua, ub = math.log(left), math.log(right)
            zeros = rng.uniform(ua, ub, 3)
            if trial % 4 == 2 or trial % 8 == 4:
                zeros[2] = ub + float(rng.uniform(0.1, 1.0))
            if trial % 4 == 0:
                A, (B, C, D) = 0.0, np.polynomial.polynomial.polyfromroots(zeros[1:])[::-1]
            elif trial % 4 == 3:
                A, B, C, D = rng.normal(size=4)
            else:
                A, B, C, D = np.linalg.svd([[math.exp(n * u), u * u, u, 1.0] for u in zeros])[2][-1]
            log2 = float(B) / shift
            log1 = (float(C) - 2.0 * log2) / shift
            lanes.append((n, left, right, (float(D) - log1) / shift, float(A) / (shift + n), log1, log2, shift))
        # the 400 pieces are one batch of lanes
        xs, hit = _piece_critical(*(np.array(col) for col in zip(*lanes)))
        found = []
        for i, (n, left, right, *coef) in enumerate(lanes):
            got = xs[hit[:, i], i]
            found.append(len(got))
            ua, ub = math.log(left), math.log(right)
            us = np.linspace(ua, ub, 20001)
            signs = np.sign(_g(n, *coef, us))
            for j in np.flatnonzero(signs[:-1] * signs[1:] < 0):  # every scanned sign change is a root
                assert any(math.exp(us[j]) * (1 - 1e-9) <= x <= math.exp(us[j + 1]) * (1 + 1e-9) for x in got)
            for x in got:  # and every root is a zero of g
                assert left <= x <= right
                scale = max(abs(_g(n, *coef, math.log(x) + d)) for d in (-1e-3, 1e-3))
                assert abs(_g(n, *coef, math.log(x))) <= 1e-6 * scale
        assert found.count(3) >= 50 and found.count(2) >= 100


@st.composite
def decreasing_profiles(draw):
    """A nonincreasing radial profile in dimension 1-8 and lam/n in (0, 1)."""
    k = draw(st.integers(1, 6))
    radii = sorted(set(draw(st.lists(st.floats(0.05, 3.0), min_size=k, max_size=k))))
    vals = sorted(draw(st.lists(st.floats(0.1, 8.0), min_size=len(radii), max_size=len(radii))), reverse=True)
    n = draw(st.integers(1, 8))
    lam = n * draw(st.floats(0.05, 0.95))
    return RadialProfile(StepFunction([0.0, *radii], vals), n, nonincreasing=True), lam


class TestRadialProperties:
    @settings(deadline=None, max_examples=60)
    @given(decreasing_profiles(), st.floats(1e-3, 1e3), st.floats(1e-250, 1e250))
    def test_dominates_and_scales(self, p_lam, x, c):
        p, lam = p_lam
        n = p.dimension
        F = inner_integral(p).integrate_div_t()
        scaled = RadialProfile(p.profile.scale(c), n, nonincreasing=True)
        for functional, P in ((zm_radial_functional, F), (zm_radial_functional_M, F.integrate_div_t())):
            est = functional(p, lam)
            h = x ** (lam - n) * P(x)
            assert h <= est.value * (1.0 + 1e-12)
            assert h <= est.upper_bound
            assert functional(scaled, lam).value == pytest.approx(c * est.value, rel=1e-12)


def _hardy_exact(p, x):
    """n I(x) / x^n in rational arithmetic on the float inputs."""
    r, n = Fraction(x), p.dimension
    total = Fraction(0)
    for l, right, v in p.profile.cells():
        if l < r:
            total += abs(Fraction(v)) * (min(Fraction(right), r) ** n - Fraction(l) ** n)
    return total / r**n


class TestHardyExact:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    def test_against_rational_arithmetic(self, n):
        # profiles from 0 and from above 0, with cells narrow against their
        # radius, where n I / x^n as a difference of powers would cancel; x
        # below the support, inside cells, at breakpoints and past the support
        rng = np.random.default_rng(60 + n)
        for start in (0.0, 0.3, 2.0):
            for _ in range(10):
                k = int(rng.integers(1, 7))
                bp = np.concatenate(([start], start + np.sort(rng.uniform(0.001, 0.1, k))))
                p = RadialProfile(StepFunction(bp, np.exp(rng.uniform(-2.0, 2.0, k))), n)
                xs = [*rng.uniform(0.5 * bp[0], bp[-1], 8), *bp[bp > 0.0], 1.7 * bp[-1]]
                for x in map(float, xs):
                    want = _hardy_exact(p, x)
                    assert abs(Fraction(hardy(p, x)) - want) <= Fraction(1e-14) * want

    def test_high_dimension_past_first_breakpoint(self):
        # 0.005^400 underflows, yet the single cell covers the whole ball
        # but the one of radius 0.001, and (0.001 / 0.005)^400 rounds away
        p = RadialProfile(StepFunction([0.001, 0.01], [3.0]), 400)
        assert hardy(p, 0.005) == 3.0


class TestHardyReduction:
    def test_chi(self):
        p = RadialProfile(CHI01, 1, nonincreasing=True)
        lhs, rhs, bound = hardy_reduction_check(p, 0.5)
        assert bound == pytest.approx(2.0 * rhs, rel=1e-12)
        assert lhs <= bound * (1 + 1e-9)
        assert lhs >= rhs - 1e-12  # the extra averaging can only increase

    def test_zero(self):
        z = RadialProfile(StepFunction.zero(), 1, nonincreasing=True)
        assert hardy_reduction_check(z, 0.5) == (0.0, 0.0, 0.0)

    def test_each_level_built_once(self, monkeypatch):
        integrate, calls = PiecewiseLogPoly.integrate_div_t, []
        monkeypatch.setattr(PiecewiseLogPoly, "integrate_div_t", lambda P: calls.append(P) or integrate(P))
        p = RadialProfile(decreasing_profile(np.random.default_rng(50)), 2, nonincreasing=True)
        hardy_reduction_check(p, 1.0)
        assert len(calls) == 2
        zm_radial_functional(p, 1.0)
        zm_radial_functional_M(p, 1.0)
        assert len(calls) == 2

    def test_suite_builds_each_level_once(self, monkeypatch):
        # one build of each level serves all of the suite's reductions; the
        # closed-form calibration adds one profile and its first level
        integrate, calls = PiecewiseLogPoly.integrate_div_t, []
        build, builds = radial.inner_integral, []
        monkeypatch.setattr(PiecewiseLogPoly, "integrate_div_t", lambda P: calls.append(P) or integrate(P))
        monkeypatch.setattr(radial, "inner_integral", lambda *ps: builds.append(ps) or build(*ps))
        assert experiments.suite_radial(seed=3, count=100)["ok"]
        assert [len(ps) for ps in builds] == [100, 1]
        assert [P.n.size for P in calls] == [100, 100, 1]

    def test_rows_solve_independently(self):
        # a mixed batch: the zero profile, single cells, a leading gap,
        # six cells, n = 1..8 and lam / n from 0.05 to 0.95; each row's
        # (lhs, rhs, bound) equals, bitwise, the same profile solved alone
        rng = np.random.default_rng(51)
        profs = [
            StepFunction.zero(),
            CHI01,
            StepFunction([0.0, 0.4], [2.5]),
            StepFunction([0.3, 0.5, 1.7], [2.0, 0.5]),
            StepFunction(np.linspace(0.0, 2.5, 7), np.linspace(3.0, 0.5, 6)),
        ]
        profs += [decreasing_profile(rng) for _ in range(11)]
        ps = [RadialProfile(f, 1 + i % 8) for i, f in enumerate(profs)]
        lams = np.array([p.dimension * frac for p, frac in zip(ps, np.linspace(0.05, 0.95, len(ps)))])

        def solve(rows, lam):
            F = inner_integral(*rows).integrate_div_t()
            return np.stack(_reduction(F, F.integrate_div_t(), lam))

        batch = solve(ps, lams)
        for i, (p, lam) in enumerate(zip(ps, lams)):
            assert np.array_equal(batch[:, i], solve([p], lams[i : i + 1])[:, 0])
        mono = [i for i, f in enumerate(profs) if f.is_zero or f.breakpoints[0] == 0.0 and
                all(a >= b for a, b in zip(f.values, f.values[1:]))]
        rows = hardy_reduction_rows([RadialProfile(profs[i], ps[i].dimension, True) for i in mono], lams[mono])
        for r, i in enumerate(mono):
            alone = hardy_reduction_check(RadialProfile(profs[i], ps[i].dimension, True), lams[i])
            assert tuple(float(x[r]) for x in rows) == alone == tuple(batch[:, i])
        assert len(mono) >= 13

    def test_random_suite(self):
        rng = np.random.default_rng(45)
        for n in (1, 2, 3):
            for frac in (0.25, 0.5, 0.75):
                lam = frac * n
                for _ in range(4):
                    prof = decreasing_profile(rng)
                    p = RadialProfile(prof, n, nonincreasing=True)
                    lhs, rhs, bound = hardy_reduction_check(p, lam)
                    assert lhs <= bound * (1 + 1e-9)


class TestPieceValidation:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            one_row(1, (0.0, 1.0, 0.0, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            one_row(1, (0.0, 1.0, 0.0, 1.0, 0.0, 0.0), (2.0, math.inf, 1.0, 0.0, 0.0, 0.0))

    def test_padding_repeats_the_tail(self):
        # row 0 has three pieces; row 1 is the zero level, padded with copies
        # of its tail, and a copy that differs is refused
        def level(pad_a):
            rows = [[(0.0, 1.0, 0.0, 1.0), (1.0, math.inf, 1.0, 0.0), (1.0, math.inf, 1.0, 0.0)],
                    [(0.0, math.inf, 0.0, 0.0), (0.0, math.inf, 0.0, 0.0), (0.0, math.inf, pad_a, 0.0)]]
            left, right, a, c = np.array(rows).transpose(2, 1, 0)
            return PiecewiseLogPoly(np.array([1, 1]), left, right, a, c, 0.0 * a, 0.0 * a)

        assert level(0.0)(2.0).tolist() == [1.0, 0.0]
        with pytest.raises(ValueError):
            level(1.0)
