import math

import numpy as np
import pytest

from morreylab.stepfn import (
    EnvelopePair,
    Interval,
    StepFunction,
    average,
    combine,
    distribution,
    double_star,
    integrate,
    pos_neg_parts,
    rearrangement,
    superlevels,
)

CHI01 = StepFunction.indicator(0.0, 1.0)


def random_step(rng, max_cells=12, signed=True):
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    while len(np.unique(bp)) != len(bp):
        bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    vals = np.exp(rng.uniform(np.log(2.0**-8), np.log(2.0**8), n))
    if signed:
        vals *= rng.choice([-1.0, 1.0], n)
    return StepFunction(bp, vals)


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_length_contains(self):
        q = Interval(-1.0, 3.0)
        assert q.length == 4.0


class TestCanonicalForm:
    def test_merges_equal_adjacent(self):
        f = StepFunction((0.0, 1.0, 2.0), (3.0, 3.0))
        assert f.breakpoints == (0.0, 2.0)
        assert f.values == (3.0,)

    def test_trims_zero_boundary(self):
        f = StepFunction((-1.0, 0.0, 1.0, 2.0), (0.0, 5.0, 0.0))
        assert f.breakpoints == (0.0, 1.0)
        assert f.values == (5.0,)

    def test_zero_function(self):
        z = StepFunction((0.0, 1.0), (0.0,))
        assert z.is_zero
        assert z == StepFunction.zero()
        assert z.support_hull() is None

    def test_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = random_step(rng)
            for a, b in zip(f.values, f.values[1:]):
                assert a != b
            if not f.is_zero:
                assert f.values[0] != 0.0 and f.values[-1] != 0.0
            # re-canonicalization is a no-op
            assert StepFunction(f.breakpoints, f.values) == f

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            StepFunction((0.0, 0.0), (1.0,))
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (math.nan,))

    def test_array_inputs_match_lists(self):
        # arrays convert in one call, lists element by element: both give
        # tuples of Python floats, equal bitwise
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = random_step(rng)
            bp, vals = np.array(f.breakpoints), np.array(f.values)
            g = StepFunction(bp, vals)
            assert g == f and g.breakpoints == tuple(bp.tolist()) and g.values == tuple(vals.tolist())
            assert all(type(t) is float for t in g.breakpoints + g.values)
        h = StepFunction(np.arange(4), np.array([1, 2, 3], dtype=np.int32))
        assert h == StepFunction([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert all(type(t) is float for t in h.breakpoints + h.values)
        assert StepFunction(np.array([0.0, 1.0], dtype=np.float32), np.ones(1, dtype=np.float32)) == CHI01

    @pytest.mark.parametrize(
        "bp, vals",
        [
            ([0.0, 0.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([0.0, math.inf], [1.0]),
            ([0.0, 1.0], [math.nan]),
            ([0.0, 1.0], [-math.inf]),
            ([0.0, 1.0], [1.0, 2.0]),
        ],
    )
    def test_array_inputs_refused_as_lists(self, bp, vals):
        for b, v in ((bp, vals), (np.array(bp), np.array(vals))):
            with pytest.raises(ValueError):
                StepFunction(b, v)


class TestEvaluation:
    def test_right_cell_fiat(self):
        f = StepFunction((0.0, 1.0, 2.0), (3.0, 7.0))
        assert f(0.0) == 3.0
        assert f(1.0) == 7.0  # breakpoint takes the right cell
        assert f(2.0) == 0.0
        assert f(-0.5) == 0.0 and f(2.5) == 0.0


class TestIntegrate:
    def test_unit_mass(self):
        assert integrate(CHI01, Interval(0.0, 1.0)) == 1.0

    def test_overlap(self):
        assert integrate(CHI01, Interval(0.5, 3.0)) == 0.5

    def test_cancellation(self):
        f = combine(CHI01.scale(2.0), StepFunction.indicator(1.0, 3.0), lambda a, b: a - b)
        assert integrate(f, Interval(0.0, 3.0)) == 0.0

    def test_additivity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            f = random_step(rng)
            a, m, b = sorted(rng.uniform(-3.0, 3.0, 3))
            if m - a < 1e-9 or b - m < 1e-9:
                continue
            whole = integrate(f, Interval(a, b))
            split = integrate(f, Interval(a, m)) + integrate(f, Interval(m, b))
            assert whole == pytest.approx(split, rel=1e-12, abs=1e-15)


class TestAverage:
    def test_examples(self):
        assert average(CHI01, Interval(0.0, 2.0)) == 0.5
        assert average(CHI01, Interval(0.0, 1.0)) == 1.0
        f = combine(CHI01.scale(3.0), StepFunction.indicator(1.0, 3.0), lambda a, b: a + b)
        assert average(f, Interval(0.0, 3.0)) == pytest.approx(5.0 / 3.0, rel=1e-15)


class TestCombine:
    def test_product_idempotent(self):
        assert combine(CHI01, CHI01, lambda a, b: a * b) == CHI01

    def test_sum_overlapping(self):
        f = StepFunction.indicator(0.0, 2.0)
        g = StepFunction.indicator(1.0, 3.0)
        s = combine(f, g, lambda a, b: a + b)
        assert s.breakpoints == (0.0, 1.0, 2.0, 3.0)
        assert s.values == (1.0, 2.0, 1.0)

    def test_zero_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            f = random_step(rng)
            assert combine(f, StepFunction.zero(), lambda a, b: a + b) == f

    def test_linearity_of_integral(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            f, g = random_step(rng), random_step(rng)
            q = Interval(-2.5, 2.5)
            s = combine(f, g, lambda a, b: a + b)
            assert integrate(s, q) == pytest.approx(
                integrate(f, q) + integrate(g, q), rel=1e-12, abs=1e-12
            )

    def test_rejects_nonvanishing_op(self):
        with pytest.raises(ValueError):
            combine(CHI01, CHI01, lambda a, b: a + b + 1.0)


class TestPosNegParts:
    def test_split(self):
        b = StepFunction((0.0, 1.0, 2.0), (1.0, -1.0))
        plus, minus = pos_neg_parts(b)
        assert plus == CHI01
        assert minus == StepFunction.indicator(1.0, 2.0)

    def test_nonnegative_symbol(self):
        b = StepFunction((0.0, 1.0, 3.0), (2.0, 1.0))
        plus, minus = pos_neg_parts(b)
        assert plus == b and minus.is_zero

    def test_negative_symbol(self):
        b = CHI01.scale(-3.0)
        plus, minus = pos_neg_parts(b)
        assert plus.is_zero and minus == CHI01.scale(3.0)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            b = random_step(rng)
            plus, minus = pos_neg_parts(b)
            assert combine(plus, minus, lambda a, c: a - c) == b
            assert combine(plus, minus, lambda a, c: a + c) == b.abs()
            assert all(v >= 0 for v in plus.values) and all(v >= 0 for v in minus.values)


class TestDistribution:
    def test_examples(self):
        assert distribution(CHI01, 0.5) == 1.0
        assert distribution(CHI01, 1.0) == 0.0  # strict inequality
        f = combine(CHI01.scale(3.0), StepFunction.indicator(1.0, 3.0), lambda a, b: a + b)
        assert distribution(f, 2.0) == 1.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            distribution(CHI01, -0.1)


class TestSuperlevels:
    @staticmethod
    def cell_loop(lengths, values):
        levels = sorted(set(values))
        return levels, [math.fsum(l for l, v in zip(lengths, values) if v >= t) for t in levels]

    @pytest.mark.parametrize(
        "lengths, values",
        [
            ([0.5, 1.0, 0.25, 2.0, 0.125], [3.0, 1.0, 3.0, 1.0, 3.0]),  # ties
            ([0.3, 0.4, 0.2, 0.1], [0.0, 2.0, 0.0, 5.0]),  # zero cells
            ([1.5], [4.0]),  # one cell
            ([], []),
        ],
    )
    def test_examples_match_cell_loop(self, lengths, values):
        levels, meas = superlevels(np.array(lengths), np.array(values))
        want_levels, want_meas = self.cell_loop(lengths, values)
        assert levels.tolist() == want_levels
        assert meas == pytest.approx(want_meas, rel=1e-15)

    def test_random_match_cell_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            lengths = rng.uniform(0.0, 2.0, m)
            values = rng.choice([0.0, 0.5, 1.0, 2.5, 7.0], m)
            levels, meas = superlevels(lengths, values)
            want_levels, want_meas = self.cell_loop(lengths.tolist(), values.tolist())
            assert levels.tolist() == want_levels
            assert meas == pytest.approx(want_meas, rel=1e-13)


class TestRearrangement:
    def test_already_arranged(self):
        assert rearrangement(CHI01) == CHI01

    def test_sorts_by_value(self):
        f = combine(
            StepFunction.indicator(2.0, 3.0, 3.0),
            StepFunction.indicator(5.0, 7.0),
            lambda a, b: a + b,
        )
        expect = StepFunction((0.0, 1.0, 3.0), (3.0, 1.0))
        assert rearrangement(f) == expect

    def test_absolute_value(self):
        assert rearrangement(CHI01.scale(-2.0)) == StepFunction.indicator(0.0, 1.0, 2.0)

    def test_equimeasurable_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = random_step(rng)
            g = rearrangement(f)
            levels = sorted({abs(v) for v in f.values})
            for s in levels:
                for eps in (-1e-9, 1e-9):
                    t = s + eps
                    if t < 0:
                        continue
                    assert distribution(f, t) == pytest.approx(
                        distribution(g, t), rel=1e-12, abs=1e-12
                    )
            # nonincreasing cellwise
            assert all(a >= b for a, b in zip(g.values, g.values[1:]))
            # mass preservation: int f* = int |f|
            hull = Interval(-10.0, 10.0)
            assert integrate(g, Interval(0.0, max(g.breakpoints[-1], 1.0))) == pytest.approx(
                integrate(f.abs(), hull), rel=1e-12
            )


class TestDoubleStar:
    def test_examples(self):
        assert double_star(CHI01, 1.0) == 1.0
        assert double_star(CHI01, 2.0) == 0.5
        f = combine(CHI01.scale(3.0), StepFunction.indicator(1.0, 3.0), lambda a, b: a + b)
        assert double_star(f, 3.0) == pytest.approx(5.0 / 3.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            double_star(CHI01, 0.0)

    def test_monotone_and_dominates_fstar(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_step(rng)
            fstar = rearrangement(f)
            ts = np.linspace(0.05, 5.0, 40)
            vals = [double_star(f, t) for t in ts]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            for t, v in zip(ts, vals):
                assert v >= fstar(t) - 1e-12


class TestInterchange:
    def test_json_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            f = random_step(rng)
            assert StepFunction.from_json(f.to_json()) == f
        assert StepFunction.from_json(StepFunction.zero().to_json()).is_zero

    def test_json_accepts_empty(self):
        assert StepFunction.from_json('{"breakpoints": [], "values": []}').is_zero

    def test_csv_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            f = random_step(rng)
            assert StepFunction.from_csv_text(f.to_csv_text()) == f

    def test_csv_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 2"):
            StepFunction.from_csv_text("0.0,1.0\nnope,2.0\n3.0,\n")


class TestEnvelopePair:
    def test_order_checked(self):
        lo = CHI01
        hi = CHI01.scale(2.0)
        EnvelopePair(lo, hi)
        with pytest.raises(ValueError):
            EnvelopePair(hi, lo)

    def test_order_names_first_bad_cell_within_slack(self):
        lo = StepFunction((0.0, 1.0, 2.0, 3.0), (1.0 + 5e-10, 3.0, 5.0))
        hi = StepFunction((0.0, 2.0, 3.0), (1.0, 4.0))
        EnvelopePair(StepFunction.indicator(0.0, 1.0, 1.0 + 5e-10), CHI01)
        with pytest.raises(ValueError, match=r"^envelope order violated on \(1\.0, 2\.0\): 3\.0 > 1\.0$"):
            EnvelopePair(lo, hi)

    def test_json_round_trip(self):
        pair = EnvelopePair(CHI01, CHI01.scale(2.0))
        again = EnvelopePair.from_json_obj(pair.to_json_obj())
        assert again.lower == pair.lower and again.upper == pair.upper
