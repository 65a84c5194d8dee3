import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.families import FamilySpec, resolve_family
from morreylab.orlicz import (
    EXP,
    LLOG,
    OrliczGauge,
    _clipped_cells,
    gauge_average,
    holder_check,
    llog_functional,
    log_plus,
    luxemburg_average,
    orlicz_maximal,
    weak_llog_average,
)
from morreylab.stepfn import Interval, StepFunction, average, superlevels

CHI01 = StepFunction.indicator(0.0, 1.0)
Q01 = Interval(0.0, 1.0)


def random_step(rng, max_cells=12):
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    while len(np.unique(bp)) != len(bp):
        bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    vals = np.exp(rng.uniform(np.log(2.0**-8), np.log(2.0**8), n))
    return StepFunction(bp, vals)


def luxemburg_bisection(lens, vals, area, gauge, tol):
    """Reference bisection for inf{alpha : avg gauge(|f|/alpha) <= 1}.

    Bracket: the mean of |f| from below (gauge(t) >= t), and the essential
    sup from above for the llog gauge (gauge <= 1 on [0, 1]) or sup/ln 2
    for the exp gauge; halved until the gap is within tol relative.
    """

    def g(alpha):
        with np.errstate(over="ignore"):
            return float(np.sum(lens * gauge.apply(vals / alpha))) / area

    lo = max(float(np.sum(lens * vals)) / area, 1e-300)
    hi = max(float(np.max(vals)) / (1.0 if gauge.kind == "llog" else math.log(2.0)), lo)
    while g(hi) > 1.0:  # only at the degenerate boundary; widen defensively
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= tol * hi:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("luxemburg bisection failed to converge")


@st.composite
def step_and_window(draw, max_cells=8):
    """A positive step function of up to ``max_cells`` cells and a window
    meeting its support."""
    n = draw(st.integers(1, max_cells))
    widths = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    vals = draw(st.lists(st.floats(2.0**-8, 2.0**8), min_size=n, max_size=n))
    bp = draw(st.floats(-2.0, 2.0)) + np.concatenate(([0.0], np.cumsum(widths)))
    left = draw(st.floats(float(bp[0]) - 1.0, float(bp[-1]) - 0.01))
    right = draw(st.floats(max(left, float(bp[0])) + 0.01, max(left, float(bp[0])) + 4.0))
    return StepFunction(bp, vals), Interval(left, right)


class TestGauge:
    def test_normalization(self):
        assert LLOG(0.0) == 0.0 and EXP(0.0) == 0.0
        assert LLOG(1.0) == 1.0
        assert EXP(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_convex_nondecreasing_spot(self):
        ts = np.linspace(0.0, 6.0, 200)
        for g in (LLOG, EXP):
            vals = [g(float(t)) for t in ts]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
            mids = [g(float(0.5 * (a + b))) for a, b in zip(ts, ts[2:])]
            for m, a, b in zip(mids, vals, vals[2:]):
                assert m <= 0.5 * (a + b) + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OrliczGauge("quadratic")


class TestGaugeAverage:
    def test_llog_examples(self):
        assert gauge_average(CHI01, Q01, LLOG, 1.0) == 1.0
        assert gauge_average(CHI01, Interval(0.0, 2.0), LLOG, 1.0) == 0.5
        f = CHI01.scale(math.e)
        assert gauge_average(f, Q01, LLOG, 1.0) == pytest.approx(2.0 * math.e, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gauge_average(CHI01, Q01, LLOG, 0.0)


class TestLuxemburg:
    def test_chi_is_one(self):
        assert luxemburg_average(CHI01, Q01, LLOG) == pytest.approx(1.0, abs=1e-8)

    def test_zero(self):
        assert luxemburg_average(StepFunction.zero(), Q01, LLOG) == 0.0
        assert luxemburg_average(CHI01, Interval(5.0, 6.0), LLOG) == 0.0

    def test_two_chi_root(self):
        # (2/a)(1 + log(2/a)) = 1 has the root a = 2 (independent bisection
        # oracle agreed to 1e-9)
        got = luxemburg_average(CHI01.scale(2.0), Q01, LLOG)
        assert got == pytest.approx(2.0, abs=1e-9)

    def test_exp_chi(self):
        got = luxemburg_average(CHI01, Q01, EXP)
        assert got == pytest.approx(1.0 / math.log(2.0), rel=1e-15)

    def test_fixed_point_and_homogeneity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            f = random_step(rng)
            hull = f.support_hull()
            q = Interval(hull.left - 0.3, hull.right + 0.2)
            lux = luxemburg_average(f, q, LLOG)
            assert gauge_average(f, q, LLOG, lux) == pytest.approx(1.0, abs=1e-7)
            c = float(np.exp(rng.uniform(-2, 2)))
            assert luxemburg_average(f.scale(c), q, LLOG) == pytest.approx(c * lux, rel=1e-7)
            assert average(f.abs(), q) <= lux * (1 + 1e-12)

    def test_domain_error(self):
        # both roots are exact, so there is no tolerance to pass
        with pytest.raises(TypeError):
            luxemburg_average(CHI01, Q01, LLOG, tol=1e-9)
        with pytest.raises(TypeError):
            holder_check(CHI01, CHI01, Q01, tol=1e-9)

    def test_exact_solver_matches_bisection(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            f = random_step(rng)
            hull = f.support_hull()
            a = float(rng.uniform(hull.left - 1.0, hull.right - 0.05))
            q = Interval(a, a + float(rng.uniform(0.05, 3.0)))
            lens, vals = _clipped_cells(f, q)
            if len(lens) == 0:
                continue
            for gauge in (LLOG, EXP):
                fast = luxemburg_average(f, q, gauge)
                slow = luxemburg_bisection(lens, vals, q.length, gauge, 1e-14)
                assert fast == pytest.approx(slow, rel=1e-12)

    def test_exact_solver_extreme_and_tied_inputs(self):
        rng = np.random.default_rng(28)
        cases = []
        # huge dynamic range
        for _ in range(15):
            n = int(rng.integers(1, 9))
            bp = np.sort(rng.uniform(0.0, 1.0, n + 1))
            vals = np.exp(rng.uniform(np.log(2.0**-20), np.log(2.0**20), n))
            cases.append(StepFunction(bp, vals))
        # repeated values force tied segments
        cases.append(StepFunction((0.0, 0.2, 0.5, 0.9), (4.0, 1.0, 4.0)))
        cases.append(StepFunction((0.0, 0.3, 0.7, 1.0), (2.0, 2.0 **.5, 2.0)))
        # constant on the window
        cases.append(StepFunction((0.0, 1.0), (7.0,)))
        for f in cases:
            for q in (Interval(0.0, 1.0), Interval(-0.5, 2.0), Interval(0.1, 0.4)):
                lens, vals = _clipped_cells(f, q)
                if len(lens) == 0:
                    continue
                fast = luxemburg_average(f, q, LLOG)
                slow = luxemburg_bisection(lens, vals, q.length, LLOG, 1e-13)
                assert fast == pytest.approx(slow, rel=1e-8, abs=1e-14)

    @settings(deadline=None)
    @given(step_and_window(), st.floats(2.0**-6, 2.0**6))
    def test_exp_root_fixed_point_and_homogeneity(self, fq, c):
        f, q = fq
        alpha = luxemburg_average(f, q, EXP)
        assert alpha > 0.0
        assert abs(gauge_average(f, q, EXP, alpha) - 1.0) <= 1e-12
        assert luxemburg_average(f.scale(c), q, EXP) == pytest.approx(c * alpha, rel=1e-12)

    def test_weak_closed_form_against_grid_oracle(self):
        # independent oracle: bisection on alpha with S evaluated on a
        # dense multiplicative t-grid around the jump levels
        rng = np.random.default_rng(29)
        for _ in range(25):
            f = random_step(rng, max_cells=8)
            hull = f.support_hull()
            q = Interval(hull.left - 0.2, hull.right + 0.3)
            levels, mus = superlevels(*_clipped_cells(f, q))
            if len(levels) == 0:
                continue

            def s_grid(alpha):
                ts = np.concatenate([levels / alpha * (1.0 - 1e-9), levels / alpha])
                ts = ts[ts > 0]
                # measure of {|f| > alpha t}: the deepest level still above
                mu_t = np.array(
                    [float(mus[levels > alpha * t][0]) if (levels > alpha * t).any() else 0.0 for t in ts]
                )
                denom = (1.0 / ts) * (1.0 + np.maximum(np.log(1.0 / ts), 0.0))
                return float(np.max(mu_t / q.length / denom))

            lo, hi = 1e-12, float(levels[-1]) * 2.0
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if s_grid(mid) > 1.0:
                    lo = mid
                else:
                    hi = mid
            oracle = 0.5 * (lo + hi)
            got = weak_llog_average(f, q)
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-9)


class TestWeakAverage:
    def test_chi_is_one(self):
        assert weak_llog_average(CHI01, Q01) == pytest.approx(1.0, abs=1e-8)

    def test_zero(self):
        assert weak_llog_average(StepFunction.zero(), Q01) == 0.0

    def test_two_chi_on_double_interval(self):
        # S(alpha) = (1/alpha) / (1 + log+(alpha)) crosses 1 at alpha = 1;
        # dense t-grid oracle agreed (0.99999469 with 1e6 grid points)
        got = weak_llog_average(CHI01.scale(2.0), Interval(0.0, 2.0))
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_weak_below_strong(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            f = random_step(rng)
            hull = f.support_hull()
            q = Interval(hull.left - 0.1, hull.right + 0.4)
            weak = weak_llog_average(f, q)
            strong = luxemburg_average(f, q, LLOG)
            assert weak <= strong * (1 + 1e-6)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(23)
        f = random_step(rng)
        q = Interval(-3.0, 3.0)
        levels, mus = superlevels(*_clipped_cells(f, q))

        def s(alpha):
            t = levels / alpha
            denom = 1.0 + np.maximum(np.log(1.0 / t), 0.0)
            return float(np.max(mus / q.length * t / denom))

        alphas = np.exp(np.linspace(-3, 3, 40))
        vals = [s(float(a)) for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestLlogFunctional:
    def test_chi(self):
        assert llog_functional(CHI01, Q01) == 1.0

    def test_scale_invariant_ratio(self):
        for c in (0.5, 3.0, 17.0):
            assert llog_functional(CHI01.scale(c), Q01) == pytest.approx(c, rel=1e-14)

    def test_hand_value(self):
        got = llog_functional(CHI01.scale(2.0), Interval(0.0, 2.0))
        assert got == pytest.approx(1.0 + math.log(2.0), rel=1e-14)

    def test_sandwich_against_luxemburg(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            f = random_step(rng)
            hull = f.support_hull()
            a = float(rng.uniform(hull.left - 1.0, hull.right - 0.05))
            bwidth = float(rng.uniform(0.05, 2.0))
            q = Interval(a, a + bwidth)
            func = llog_functional(f, q)
            lux = luxemburg_average(f, q, LLOG)
            if lux == 0.0:
                assert func == 0.0
                continue
            assert lux <= func * (1 + 1e-7)
            assert func <= 2.0 * lux * (1 + 1e-7)


class TestHolder:
    def test_chi_pair(self):
        lhs, rhs = holder_check(CHI01, CHI01, Q01)
        assert lhs == 1.0
        assert rhs == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert lhs <= rhs

    def test_zero(self):
        lhs, rhs = holder_check(StepFunction.zero(), CHI01, Q01)
        assert lhs == 0.0 and rhs == 0.0

    def test_random_pairs(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            f, h = random_step(rng), random_step(rng)
            a = float(rng.uniform(-2.5, 2.0))
            q = Interval(a, a + float(rng.uniform(0.1, 3.0)))
            lhs, rhs = holder_check(f, h, q)
            assert lhs <= rhs * (1 + 1e-8) + 1e-12

    def test_submultiplicative_log_bound(self):
        rng = np.random.default_rng(26)
        a = np.exp(rng.uniform(-6, 6, 500))
        b = np.exp(rng.uniform(-6, 6, 500))
        for x, y in zip(a, b):
            assert 1.0 + log_plus(x * y) <= (1.0 + log_plus(x)) * (1.0 + log_plus(y)) + 1e-12


class TestOrliczMaximal:
    def test_chi_attains_one(self):
        fam = resolve_family(FamilySpec(mode="breakpoint_pairs"), CHI01)
        got = orlicz_maximal(CHI01, 0.5, fam)
        assert got >= 1.0 - 1e-8

    def test_zero(self):
        fam = resolve_family(FamilySpec(), CHI01)
        assert orlicz_maximal(StepFunction.zero(), 0.5, fam) == 0.0

    def test_accepts_family_spec(self):
        got = orlicz_maximal(CHI01, 0.5, FamilySpec(mode="breakpoint_pairs"))
        assert got >= 1.0 - 1e-8

    def test_matches_window_loop(self):
        rng = np.random.default_rng(93)
        for _ in range(6):
            f = random_step(rng, max_cells=8)
            fam = resolve_family(FamilySpec(depth=4), f)
            for x in rng.uniform(-2.0, 2.0, 3):
                loop = max(
                    (luxemburg_average(f, Interval(l, r), LLOG) for l, r in zip(fam.lefts, fam.rights) if l <= x <= r),
                    default=0.0,
                )
                assert orlicz_maximal(f, float(x), fam) == pytest.approx(loop, rel=1e-9)
