import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.experiments import random_step_function, suite_holder
from morreylab.families import FamilySpec, resolve_family
from morreylab.orlicz import (
    EXP,
    LLOG,
    OrliczGauge,
    _gauge_rows,
    _holder_rows,
    _llog_functional_rows,
    _llog_summary_rows,
    _luxemburg_rows,
    _weak_llog_rows,
    _window_rows,
    gauge_average,
    holder_check,
    llog_functional,
    log_plus,
    luxemburg_average,
    orlicz_maximal,
    weak_llog_average,
)
from morreylab.stepfn import Interval, StepFunction, average, combine, superlevels

CHI01 = StepFunction.indicator(0.0, 1.0)
Q01 = Interval(0.0, 1.0)


def random_step(rng, max_cells=12):
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    while len(np.unique(bp)) != len(bp):
        bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    vals = np.exp(rng.uniform(np.log(2.0**-8), np.log(2.0**8), n))
    return StepFunction(bp, vals)


def clipped_cells(f, q):
    """(length, |value|) of the cells of f inside q where f is nonzero."""
    b, w = np.asarray(f.breakpoints), np.abs(np.asarray(f.values))
    lens = np.minimum(b[1:], q.right) - np.maximum(b[:-1], q.left)
    on = (lens > 0.0) & (w > 0.0)
    return lens[on], w[on]


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


def gauge_sum(lens, vals, area, gauge, alpha):
    """avg gauge(|f| / alpha) over the window, cell by cell."""
    return math.fsum(l * gauge(v / alpha) for l, v in zip(lens, vals)) / area


def llog_sum(lens, vals, area):
    """(1/|I|) int_I |f| (1 + log+(|f| / mean_I |f|)), cell by cell."""
    mean = math.fsum(lens * vals) / area
    return math.fsum(l * v * (1.0 + max(math.log(v / mean), 0.0)) for l, v in zip(lens, vals)) / area


def weak_sum(lens, vals, area):
    """max over the values v of v |{|f| >= v}| / |I|."""
    return max((v * math.fsum(lens[vals >= v]) for v in vals), default=0.0) / area


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
            lens, vals = clipped_cells(f, q)
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
                lens, vals = clipped_cells(f, q)
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
            levels, mus = superlevels(*clipped_cells(f, q))
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
        levels, mus = superlevels(*clipped_cells(f, q))

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


class TestExtremeScales:
    """Each row is solved scaled by a power of two, so values near either
    end of the float range neither underflow nor overflow inside a solve."""

    WIDE = Interval(-1e10, 1e10)

    def test_subnormal_exp_root(self):
        f = StepFunction([0.0, 1.0], [1e-320])
        assert luxemburg_average(f, Q01, EXP) == pytest.approx(1e-320 / math.log(2.0), rel=1e-3)

    def test_subnormal_llog_on_wide_window(self):
        # the llog root and the functional are about 1.1e-329 and 1.2e-329,
        # below the smallest subnormal, so both round to 0
        f = StepFunction([0.0, 1.0], [1e-320])
        assert luxemburg_average(f, self.WIDE, LLOG) == 0.0
        assert llog_functional(f, self.WIDE) == 0.0

    def test_huge_value_on_wide_window(self):
        f = StepFunction([0.0, 1.0], [1e300])
        for gauge in (LLOG, EXP):
            want = 1e300 * luxemburg_average(CHI01, self.WIDE, gauge)
            assert luxemburg_average(f, self.WIDE, gauge) == pytest.approx(want, rel=1e-12)
        assert llog_functional(f, self.WIDE) == pytest.approx(1e300 * llog_functional(CHI01, self.WIDE), rel=1e-12)

    def test_range_wider_than_the_floats(self):
        # 1e-30 lies more than 2^1074 below 1e300, so it underflows once the
        # row is scaled; its cell adds nothing the solves can resolve
        f = StepFunction([0.0, 0.5, 1.0], [1e300, 1e-30])
        top = StepFunction([0.0, 0.5], [1e300])
        for gauge in (LLOG, EXP):
            assert luxemburg_average(f, Q01, gauge) == pytest.approx(luxemburg_average(top, Q01, gauge), rel=1e-12)
        assert llog_functional(f, Q01) == pytest.approx(llog_functional(top, Q01), rel=1e-12)
        assert weak_llog_average(f, Q01) == weak_llog_average(top, Q01)

    def test_power_of_two_homogeneity_at_both_ends(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            f = random_step(rng)
            hull = f.support_hull()
            q = Interval(hull.left - 0.5, hull.right + 0.5)
            for c in (2.0**-1000, 2.0**1000):
                g = f.scale(c)
                for gauge in (LLOG, EXP):
                    assert luxemburg_average(g, q, gauge) == pytest.approx(c * luxemburg_average(f, q, gauge), rel=1e-12)
                assert llog_functional(g, q) == pytest.approx(c * llog_functional(f, q), rel=1e-12)
                assert weak_llog_average(g, q) == c * weak_llog_average(f, q)


class TestRowForms:
    """Every row of one padded call against the independent oracles."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(31)
        cases = []
        for n in range(1, 13):  # rows of 1 to 12 cells, padded to 12
            f = random_step(rng, max_cells=n)
            hull = f.support_hull()
            a = float(rng.uniform(hull.left - 0.5, hull.right - 0.05))
            cases.append((f, Interval(a, a + float(rng.uniform(0.05, 3.0)))))
        cases.append((CHI01, Interval(5.0, 6.0)))  # misses the support
        cases.append((StepFunction((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0)), Interval(1.2, 1.8)))  # zero cells only
        cases.append((StepFunction((0.0, 0.2, 0.5, 0.9), (4.0, 1.0, 4.0)), Q01))  # tied values
        cases.append((StepFunction((0.0, 0.3, 0.7, 1.0), (2.0, 2.0**0.5, 2.0)), Interval(-0.5, 2.0)))
        sliver = StepFunction((0.0, 0.4, 0.9), (3.0, 0.25))
        cases.append((sliver, Interval(0.4 - 1e-12, 1.5)))  # the first cell clipped to a 1e-12 sliver
        # three breakpoints clip to the left end: the last of them sets the value carried in
        cases.append((StepFunction((-3.0, -2.0, -1.0, 0.25, 0.5, 2.0), (5.0, 7.0, 9.0, 2.0, 4.0)), Interval(0.0, 1.0)))
        return cases

    def rows(self):
        fs, qs = zip(*self.cases())
        return fs, qs, _window_rows(fs, *self.ends(qs))

    @staticmethod
    def ends(qs):
        return np.array([q.left for q in qs]), np.array([q.right for q in qs])

    def test_luxemburg_rows_against_bisection(self):
        fs, qs, rows = self.rows()
        for gauge in (LLOG, EXP):
            got = _luxemburg_rows(*rows, gauge)
            for f, q, a in zip(fs, qs, got):
                lens, vals = clipped_cells(f, q)
                if len(lens) == 0:
                    assert a == 0.0
                    continue
                assert a == pytest.approx(luxemburg_bisection(lens, vals, q.length, gauge, 1e-14), rel=1e-12)

    def test_other_rows_against_cell_sums(self):
        fs, qs, rows = self.rows()
        lux = _luxemburg_rows(*rows, LLOG)
        alpha = np.where(lux > 0.0, lux, 1.0)
        for gauge in (LLOG, EXP):
            for f, q, got, a in zip(fs, qs, _gauge_rows(*rows, gauge, alpha), alpha):
                assert got == pytest.approx(gauge_sum(*clipped_cells(f, q), q.length, gauge, a), rel=1e-13, abs=0.0)
        for f, q, func, weak in zip(fs, qs, _llog_functional_rows(*rows), _weak_llog_rows(*rows)):
            lens, vals = clipped_cells(f, q)
            if len(lens) == 0:
                assert func == 0.0 and weak == 0.0
                continue
            assert func == pytest.approx(llog_sum(lens, vals, q.length), rel=1e-13, abs=0.0)
            assert weak == pytest.approx(weak_sum(lens, vals, q.length), rel=1e-13, abs=0.0)

    def test_summary_rows_against_cell_sums(self):
        fs, qs, _ = self.rows()
        lux, resid, func, weak = _llog_summary_rows(fs, *self.ends(qs))
        for f, q, a, r, fn, w in zip(fs, qs, lux, resid, func, weak):
            lens, vals = clipped_cells(f, q)
            if len(lens) == 0:
                assert a == r == fn == w == 0.0
                continue
            assert a == pytest.approx(luxemburg_bisection(lens, vals, q.length, LLOG, 1e-14), rel=1e-12)
            assert abs(r - (gauge_sum(lens, vals, q.length, LLOG, a) - 1.0)) <= 1e-14
            assert fn == pytest.approx(llog_sum(lens, vals, q.length), rel=1e-13, abs=0.0)
            assert w == pytest.approx(weak_sum(lens, vals, q.length), rel=1e-13, abs=0.0)

    def test_rows_match_one_window_calls(self):
        fs, qs, rows = self.rows()
        h = StepFunction((-1.0, 0.5, 2.5), (0.5, 3.0))
        lux = _luxemburg_rows(*rows, LLOG)
        lhs, rhs = _holder_rows(fs, [h] * len(fs), *self.ends(qs))
        for i, (f, q) in enumerate(zip(fs, qs)):
            assert lux[i] == pytest.approx(luxemburg_average(f, q, LLOG), rel=1e-14, abs=0.0)
            assert (lhs[i], rhs[i]) == pytest.approx(holder_check(f, h, q), rel=1e-14, abs=0.0)
            assert lhs[i] == pytest.approx(average(combine(f, h, lambda x, y: x * y).abs(), q), rel=1e-13, abs=0.0)


class TestHolderScale:
    def test_ten_thousand_cells_linear_memory(self):
        # an m x m overlap tensor of two 10^4-cell inputs would take 800 MB
        rng = np.random.default_rng(32)
        f, h = (StepFunction(np.sort(rng.uniform(-1.0, 1.0, 10_001)), rng.uniform(0.5, 2.0, 10_000)) for _ in range(2))
        q = Interval(-0.7, 0.8)
        start = time.process_time()
        holder_check(f, h, q)
        elapsed = time.process_time() - start
        tracemalloc.start()
        try:
            lhs, rhs = holder_check(f, h, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert elapsed < 0.38  # the cell-by-cell product and its fsum took 0.38 s
        assert lhs == pytest.approx(average(combine(f, h, lambda x, y: x * y).abs(), q), rel=1e-12)
        assert 0.0 < lhs <= rhs


def pair_loop_report(seed, n_pairs):
    """suite_holder's checks from the same draws, pair by pair and window by
    window, with the lhs from the combined product and every Luxemburg
    average from the bisection oracle."""
    rng = np.random.default_rng(seed)
    names, worst = [], 0.0
    for _ in range(n_pairs):
        f = random_step_function(rng, 12, signed=False)
        h = random_step_function(rng, 12, signed=False)
        a = float(rng.uniform(-1.0, 0.9))
        q = Interval(a, a + float(rng.uniform(0.1, 2.5)))
        lhs = average(combine(f, h, lambda x, y: x * y).abs(), q)
        sides = [clipped_cells(g, q) for g in (f, h)]
        if all(len(lens) for lens, _ in sides):
            rhs = math.prod(luxemburg_bisection(*cells, q.length, gauge, 1e-15) for cells, gauge in zip(sides, (LLOG, EXP)))
            worst = max(worst, lhs / rhs)
    oks = [worst <= 1.0 + 1e-8, worst <= 2.0 + 1e-8]
    names += ["holder_all_pairs", "holder_classical_bound"]
    resid, sandwich = 0.0, 0.0
    for _ in range(60):
        f = random_step_function(rng, 10, signed=False)
        a = float(rng.uniform(-0.5, 0.5))
        q = Interval(a, a + float(rng.uniform(0.2, 1.5)))
        lens, vals = clipped_cells(f, q)
        lux = luxemburg_bisection(lens, vals, q.length, LLOG, 1e-15) if len(lens) else 0.0
        if lux > 0.0:
            resid = max(resid, abs(gauge_sum(lens, vals, q.length, LLOG, lux) - 1.0))
            func = llog_sum(lens, vals, q.length)
            sandwich = max(sandwich, lux / func, func / (2.0 * lux))
        if weak_sum(lens, vals, q.length) > lux * (1.0 + 1e-6):
            names.append("weak_leq_strong")
            oks.append(False)
    names += ["luxemburg_fixed_point", "llog_sandwich", "submultiplicative_log"]
    oks += [resid <= 1e-7, sandwich <= 1.0 + 1e-7, True]
    return names, oks, worst


class TestHolderSuiteBatch:
    @pytest.mark.parametrize("seed, n_pairs", [(7, 50), (3, 200)])
    def test_matches_pair_loop(self, seed, n_pairs):
        rep = suite_holder(seed=seed, n_pairs=n_pairs)
        names, oks, worst = pair_loop_report(seed, n_pairs)
        assert [c["name"] for c in rep["checks"]] == names
        assert [c["ok"] for c in rep["checks"]] == oks
        assert rep["constants"]["holder_worst_ratio"] == pytest.approx(worst, rel=1e-12)

    def test_seed_three_fails_the_constant_one_form(self):
        rep = suite_holder(seed=3)
        assert [c["name"] for c in rep["checks"] if not c["ok"]] == ["holder_all_pairs"]
