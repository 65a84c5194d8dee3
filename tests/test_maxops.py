import bisect
import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import maxops
from morreylab.maxops import (
    _candidate_arrays,
    _cell_floor,
    _side_chords,
    commutator,
    commutator_envelope,
    fractional_maximal,
    iterated_maximal,
    iterated_maximal_at,
    maximal,
    maximal_commutator,
    maximal_envelope,
)
from morreylab.radial import HardyOriginWarning, RadialProfile, hardy
from morreylab.stepfn import (
    Interval, StepFunction, _pair_max, _values_at, average, combine, default_hull, integrate, prefix_at,
)
from oracles import brute_force_maximal

CHI01 = StepFunction.indicator(0.0, 1.0)


@st.composite
def tie_heavy_steps(draw):
    """1-13 cells on integer breakpoints with values in {0, 1, 2, 3}: many
    intervals share a length and a mass."""
    n = draw(st.integers(1, 13))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    vals = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
    return StepFunction(np.cumsum([draw(st.integers(-5, 5)), *gaps]), vals)


def random_step(rng, max_cells=12, signed=False):
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    while len(np.unique(bp)) != len(bp):
        bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    vals = np.exp(rng.uniform(np.log(2.0**-8), np.log(2.0**8), n))
    if signed:
        vals *= rng.choice([-1.0, 1.0], n)
    return StepFunction(bp, vals)


def pair_scan(f, left, right, min_length=0.0):
    """Steepest chord from a candidate u <= left to a candidate v >= right
    by the dense O(m^2) pair matrix, the enumeration the chord search
    replaced; kept as its oracle."""
    ts, ps, k = _candidate_arrays(f, left, right)
    lengths = ts[None, k:] - ts[:k, None]
    masses = ps[None, k:] - ps[:k, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lengths > min_length, masses / lengths, -np.inf)
    return float(ratios.max())


def pair_scan_maximal(f, x):
    return min(max(pair_scan(f, x, x), abs(f(x))), f.sup_abs())


def window_average(f, left, right):
    """Average of |f| over (left, right) via per-cell overlaps, free of the
    large-prefix cancellation of narrow windows."""
    b, w, _ = f._abs_arrays
    overlap = np.minimum(b[1:], right) - np.maximum(b[:-1], left)
    mask = overlap > 0.0
    if not mask.any():
        return 0.0
    return float(np.sum(w[mask] * overlap[mask])) / (right - left)


def pair_scan_cell_floor(f, left, right):
    best = pair_scan(f, left, right, 1e-9 * (right - left + 1.0))
    return min(max(best, window_average(f, left, right)), f.sup_abs())


def exact_maximal(f, x):
    """Mf(x) in rational arithmetic: the larger one-sided maximum over the
    candidate endpoints, by the mediant inequality the maximum over all
    their pairs, on prefix sums accumulated exactly."""
    b = [Fraction(t) for t in f.breakpoints]
    w = [abs(Fraction(v)) for v in f.values]
    prefix = [Fraction(0)]
    for left, right, v in zip(b, b[1:], w):
        prefix.append(prefix[-1] + v * (right - left))
    x = Fraction(x)
    k = bisect.bisect_right(b, x)
    px = prefix[k - 1] + w[k - 1] * (x - b[k - 1]) if 0 < k < len(b) else prefix[k - 1] if k else Fraction(0)
    return max(
        [(p - px) / (t - x) for t, p in zip(b, prefix) if t > x]
        + [(px - p) / (x - t) for t, p in zip(b, prefix) if t < x]
    )


class TestMaximal:
    def test_plateau_point(self):
        assert maximal(CHI01, 0.5) == 1.0

    def test_closed_form_right(self):
        # optimizing (1-u)/(x-u) pushes u to 0, giving 1/x for x > 1
        for x in (1.5, 2.0, 7.0):
            assert maximal(CHI01, x) == pytest.approx(1.0 / x, rel=1e-14)

    def test_closed_form_left(self):
        for x in (-0.5, -1.0, -6.0):
            assert maximal(CHI01, x) == pytest.approx(1.0 / (1.0 - x), rel=1e-14)

    def test_zero(self):
        assert maximal(StepFunction.zero(), 0.3) == 0.0

    def test_breakpoint_left_limit(self):
        # at the right edge of a tall cell the optimum reaches back into it
        f = CHI01.scale(3.0)
        assert maximal(f, 1.0) == 3.0

    def test_homogeneity_and_monotonicity(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            f = random_step(rng)
            x = float(rng.uniform(-3, 3))
            c = float(np.exp(rng.uniform(-2, 2)))
            assert maximal(f.scale(c), x) == pytest.approx(c * maximal(f, x), rel=1e-12)
            g = combine(f, random_step(rng), lambda a, b: abs(a) + abs(b))
            assert maximal(f, x) <= maximal(g, x) + 1e-12

    def test_sublinearity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f, g = random_step(rng, signed=True), random_step(rng, signed=True)
            s = combine(f, g, lambda a, b: a + b)
            x = float(rng.uniform(-3, 3))
            assert maximal(s, x) <= maximal(f, x) + maximal(g, x) + 1e-12

    def test_beats_brute_force(self):
        rng = np.random.default_rng(12)
        for i in range(25):
            f = random_step(rng)
            x = float(rng.uniform(-3, 3))
            exact = maximal(f, x)
            rough = brute_force_maximal(f, x, samples=4000, seed=i)
            assert exact >= rough - 1e-12

    def test_matches_pair_scan(self):
        rng = np.random.default_rng(22)
        for i in range(60):
            f = random_step(rng, max_cells=1000 if i % 4 == 0 else 40)
            for x in rng.uniform(-3.0, 3.0, 4):
                oracle = pair_scan_maximal(f, float(x))
                assert maximal(f, float(x)) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_matches_exact_rational_maximum(self):
        # the result is one pair's float slope, so only the rounding of the
        # prefix sums and of one division separates it from the exact value
        rng = np.random.default_rng(23)
        for _ in range(80):
            f = random_step(rng, max_cells=30)
            x = float(rng.uniform(-3.0, 3.0))
            exact = float(exact_maximal(f, x))
            assert maximal(f, x) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("seed", [44, 84])
    def test_exact_rational_maximum_at_a_thousand_cells(self, seed):
        # drawn like the maxfn-large benchmark inputs; on these seeds the
        # Dinkelbach chord search that maximal replaced read 9.2e-13 and
        # 1.6e-12 off the exact value
        rng = np.random.default_rng(seed)
        while True:
            bp = np.sort(rng.uniform(0.0, 1.0, 1001))
            if np.all(np.diff(bp) > 0.0):
                break
        f = StepFunction(bp, np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), 1000)))
        for x in np.linspace(-0.25, 1.25, 16):
            exact = exact_maximal(f, float(x))
            assert abs(Fraction(maximal(f, float(x))) - exact) <= Fraction(1e-13) * exact

    def test_large_m_closed_forms(self):
        # m = 1e5 cells: a pair matrix would hold about 2.5e9 entries
        rng = np.random.default_rng(24)
        m = 100_000
        bp = np.sort(rng.uniform(0.0, 1.0, m + 1))
        assert np.all(np.diff(bp) > 0.0)
        vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), m))
        f = StepFunction(bp, vals)
        b, _, prefix = f._abs_arrays
        for x in (-0.5, -1e-2, -1e-4):
            # left of the support x is the only left candidate and P(x) = 0
            expect = float(np.max(prefix[1:] / (b[1:] - x)))
            assert maximal(f, x) == pytest.approx(expect, rel=1e-12, abs=0.0)
        for x in (1.5, 1.0 + 1e-2, 1.0 + 1e-4):
            expect = float(np.max((prefix[-1] - prefix[:-1]) / (x - b[:-1])))
            assert maximal(f, x) == pytest.approx(expect, rel=1e-12, abs=0.0)
        k = int(np.argmax(vals))
        assert maximal(f, 0.5 * (bp[k] + bp[k + 1])) == f.sup_abs()

    def test_brute_force_converges(self):
        f = StepFunction((0.0, 0.4, 1.0, 1.3), (1.0, 0.25, 2.0))
        for x in (0.2, 1.1, 2.0):
            exact = maximal(f, x)
            dense = brute_force_maximal(f, x, samples=200_000, seed=5, zoom_rounds=14)
            assert abs(exact - dense) <= 1e-6 * max(1.0, exact)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, x):
        # alone or inside an array of points
        profile = RadialProfile(CHI01, 1)
        for pts in (x, [0.5, x], np.array([x, 0.5, 2.0])):
            ops = (
                lambda: maximal(CHI01, pts),
                lambda: maximal(StepFunction.zero(), pts),
                lambda: fractional_maximal(CHI01, 0.5, pts),
                lambda: maximal_commutator(CHI01, CHI01, pts),
                lambda: commutator(CHI01, CHI01, pts),
                lambda: hardy(profile, pts),
            )
            for op in ops:
                with pytest.raises(ValueError, match="finite point"):
                    op()


class TestPointArrays:
    """Every pointwise operator takes a float, for a float, or a 1-D array of
    points, for an array, by one code path."""

    def test_array_equals_one_point_calls(self):
        rng = np.random.default_rng(33)
        zero = StepFunction.zero()
        # 3000 cells spread the points over several blocks of the broadcast
        big = StepFunction(np.linspace(-2.0, 2.0, 3001), np.exp(rng.uniform(-3.0, 3.0, 3000)))
        for i in range(41):
            f = zero if i % 10 == 0 else big if i == 40 else random_step(rng, signed=bool(i % 2))
            b = zero if i % 10 == 5 else random_step(rng, max_cells=6, signed=True)
            xs = np.concatenate((rng.uniform(-3.0, 3.0, 12), f.breakpoints[:40], b.breakpoints, [-5.0, 5.0]))
            ops = (
                lambda y: maximal(f, y),
                lambda y: fractional_maximal(f, 0.5, y),
                lambda y: maximal_commutator(b, f, y),
                lambda y: commutator(b, f, y),
            )
            for op in ops:
                one = [op(float(x)) for x in xs]
                assert all(type(v) is float for v in one)
                assert op(xs).tobytes() == np.array(one).tobytes()
                assert op(list(xs)).tobytes() == np.array(one).tobytes()
                assert op(xs[:0]).shape == (0,)

    def test_matrix_of_points_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            maximal(CHI01, np.zeros((2, 2)))

    def test_memory_is_bounded_by_the_block(self):
        # 1000 points on 10^4 cells: a points x cells temporary would take 80 MB
        rng = np.random.default_rng(34)
        m = 10_000
        f = StepFunction(np.linspace(0.0, 1.0, m + 1), np.exp(rng.uniform(-3.0, 3.0, m)))
        xs = rng.uniform(-0.25, 1.25, 1000)
        want = [maximal(f, float(x)) for x in xs[:20]]  # also builds f's cached arrays
        tracemalloc.start()
        try:
            got = maximal(f, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[:20].tolist() == want
        assert peak < 16 * 8 * (max(maxops._BLOCK, m + 1) + len(xs))


def extended_cells(f, xs):
    """The extended cell of f holding each point: -1 left of the support,
    m right of it, and the cell on its right at a breakpoint."""
    return f._abs_arrays[0].searchsorted(np.asarray(xs, dtype=float), side="right") - 1


def split_maximal(f, xs, cells=None):
    """Mf at xs from the per-cell split max(R, L), each point in the
    extended cell that holds it unless ``cells`` is given."""
    xs = np.asarray(xs, dtype=float)
    cells = extended_cells(f, xs) if cells is None else np.asarray(cells)
    return _side_chords(f, xs, cells)[0]


def split_floor(f, left, right):
    """The envelope's floor max(R(left), L(right), bridge) of a window
    inside one extended cell of f, every chord's mass charged."""
    cell = extended_cells(f, [left])
    _, r, v, _, _ = _side_chords(f, np.array([left]), cell)
    _, _, _, l, u = _side_chords(f, np.array([right]), cell)
    return float(_cell_floor(f, cell, r, v, l, u)[0])


class TestCellFloor:
    def test_against_pair_scan_and_maximal(self):
        rng = np.random.default_rng(25)
        for i in range(400):
            f = random_step(rng, max_cells=300 if i % 8 == 0 else 20)
            left = float(rng.uniform(-3.0, 3.0))
            # the envelope's windows lie in one cell of f
            b = f.breakpoints
            cell = int(extended_cells(f, [left])[0])
            end = b[cell + 1] if cell + 1 < len(b) else math.inf
            width = min(float(10.0 ** rng.uniform(-9.0, 0.0)), end - left)
            right = left + width
            got = split_floor(f, left, right)
            oracle = pair_scan_cell_floor(f, left, right)
            assert got <= oracle * (1.0 + 1e-12)
            if width >= 1e-6:
                # narrower cells inflate the pair scan by prefix cancellation
                assert got >= oracle * (1.0 - 1e-10)
            for x in np.linspace(left, right, 5):
                assert got <= maximal(f, float(x)) * (1.0 + 1e-12)

    def test_narrow_cell_skips_cancellation_noise(self):
        # far mass puts P(t) near 100 on the plateau, where Mf = 2; the prefix
        # difference over a cell narrower than delta is mostly rounding noise
        f = StepFunction((-1000.0, -999.0, 0.0, 1.0), (100.0, 0.0, 2.0))
        rng = np.random.default_rng(26)
        for left in rng.uniform(0.1, 0.9, 100):
            for width in (1e-12, 1e-11, 1e-10):
                got = split_floor(f, float(left), float(left) + width)
                assert 2.0 <= got <= 2.0 * (1.0 + 1e-12)

    def test_prefix_rounding_never_lifts_floor_above_mf(self):
        # chords about as long as the guard length, or somewhat longer,
        # carry the same rounding noise; without a charge on the mass the
        # floor read up to 2 * (1 + 3.7e-6) on these cells
        f = StepFunction((-1000.0, -999.0, 0.0, 1.0), (100.0, 0.0, 2.0))
        rng = np.random.default_rng(27)
        for width in (1e-9, 1e-6):
            for left in rng.uniform(0.1, 0.9, 200):
                assert split_floor(f, float(left), float(left) + width) <= 2.0

    def test_charge_covers_the_rounding_of_k(self):
        # K over a tiny cell next to x is a difference of prefix sums near
        # 102, so it carries an ulp of 102; uncharged, the floor read up to
        # 0.5 % above the exact Mf on these windows
        rng = np.random.default_rng(28)
        for eps in 10.0 ** rng.uniform(-13.0, -11.0, 20):
            f = StepFunction((-1000.0, -999.0, 0.0, 1.0, 1.0 + eps), (100.0, 0.0, 2.0, 3.0))
            for d in 10.0 ** rng.uniform(-14.0, -10.0, 20):
                left, right = 1.0 - d, 1.0 - d / 2.0
                got = Fraction(split_floor(f, left, right))
                assert got <= min(exact_maximal(f, left), exact_maximal(f, right))

    def test_only_the_cells_asked_for(self):
        # the bridge is taken on cells of the support only: off it, one side
        # is 0 and the far end gives the minimum, while a bridge from the
        # clipped cell end would read an average such as 4 over [0, 1]
        f = StepFunction((0.0, 1.0, 2.0, 3.0), (4.0, 1.0, 4.0))
        for left, right, end in ((-1.0, -0.5, -1.0), (3.5, 4.0, 4.0)):
            got = split_floor(f, left, right)
            assert got <= maximal(f, end) == pytest.approx(got, rel=1e-14)
        # on (1, 2) R and L cross at 1.5, where Mf = 3, the average over
        # [0, 3]; R(1.25) = L(1.75) = 19/7, and the bridge lifts the floor to 3
        _, r, _, l, _ = _side_chords(f, np.array([1.25, 1.75]), np.array([1, 1]))
        assert r[0] == pytest.approx(19.0 / 7.0, rel=1e-14) == l[1]
        got = split_floor(f, 1.25, 1.75)
        assert got <= 3.0 == pytest.approx(got, rel=1e-15)

    @staticmethod
    def windows(seed, count):
        """Whole cells of f, where the floor starts, and random windows at
        least 1e-6 wide inside one, each with whether it holds the crossing
        of R and L."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            f = random_step(rng, max_cells=20)
            b = f.breakpoints
            cell = int(rng.integers(-1, len(b)))
            lo = b[cell] if cell >= 0 else b[0] - 2.0
            hi = b[cell + 1] if cell + 1 < len(b) else b[-1] + 2.0
            left, right = lo, hi
            if i % 2:
                left, right = np.sort(rng.uniform(lo, hi, 2))
                if right - left < 1e-6:
                    continue
            _, r, _, l, _ = _side_chords(f, np.array([left, right]), np.array([cell, cell]))
            yield f, cell, float(left), float(right), l[0] > r[0] and r[1] > l[1]

    def test_matches_pair_scan_off_the_crossing(self):
        # off the crossing max(R(a), L(b)) is the least value of Mf on the
        # window, so the floor is exact up to the charge
        checked = 0
        for f, _, left, right, holds in self.windows(36, 600):
            if not holds:
                oracle = pair_scan_cell_floor(f, left, right)
                assert split_floor(f, left, right) == pytest.approx(oracle, rel=1e-10, abs=0.0)
                checked += 1
        assert checked > 500

    def test_halving_toward_the_crossing_reaches_it(self):
        # a wide window holding the crossing can have other argmaxes than
        # the crossing's pair, and then the bridge falls short; the windows
        # that refinement keeps around the crossing reach it within a few
        # halvings, since the pair scan gives the same value on each of them
        short = 0
        for f, cell, left, right, holds in self.windows(37, 3000):
            oracle = pair_scan_cell_floor(f, left, right) if holds else 0.0
            if split_floor(f, left, right) >= oracle * (1.0 - 1e-10):
                continue
            short += 1
            for _ in range(8):
                mid = 0.5 * (left + right)
                _, r, _, l, _ = _side_chords(f, np.array([mid]), np.array([cell]))
                left, right = (left, mid) if r[0] >= l[0] else (mid, right)
                assert pair_scan_cell_floor(f, left, right) == pytest.approx(oracle, rel=1e-12)
                if split_floor(f, left, right) >= oracle * (1.0 - 1e-10):
                    break
            else:
                pytest.fail(f"no halving of the window reached {oracle}")
        assert short >= 10


class TestSplit:
    def assert_matches(self, f, xs, cells=None):
        got = split_maximal(f, xs, cells)
        want = np.array([maximal(f, float(x)) for x in xs])
        assert np.all(np.abs(got - want) <= 1e-13 * want), np.max(np.abs(got - want) / want)

    def test_random_points(self):
        rng = np.random.default_rng(30)
        for i in range(40):
            f = random_step(rng, max_cells=200 if i % 8 == 0 else 15)
            self.assert_matches(f, rng.uniform(-2.0, 2.0, 25))

    def test_breakpoints_from_both_cells(self):
        # a breakpoint ends the cell on its left and starts the one on its right
        rng = np.random.default_rng(31)
        for _ in range(30):
            f = random_step(rng)
            b = np.asarray(f.breakpoints)
            ks = np.arange(len(b))
            self.assert_matches(f, b, ks)
            self.assert_matches(f, b, ks - 1)

    def test_off_the_support(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            f = random_step(rng)
            b0, bm = f.breakpoints[0], f.breakpoints[-1]
            self.assert_matches(f, b0 - 10.0 ** rng.uniform(-6.0, 2.0, 8))
            self.assert_matches(f, bm + 10.0 ** rng.uniform(-6.0, 2.0, 8))

    def test_hull_clipped_cell_ends(self):
        # a hull inside the support cuts its end cells; their clipped ends
        # are grid points of the envelope
        rng = np.random.default_rng(33)
        for _ in range(30):
            f = random_step(rng, max_cells=8)
            b = f.breakpoints
            if len(b) < 3:
                continue
            t = rng.uniform(0.05, 0.95, 2)
            hull = Interval(b[0] + t[0] * (b[1] - b[0]), b[-2] + t[1] * (b[-1] - b[-2]))
            self.assert_matches(f, [hull.left, hull.right])
            env = maximal_envelope(f, 0.05, hull)
            for x in (hull.left, 0.5 * (hull.left + hull.right)):
                assert env.upper(x) >= maximal(f, x) * (1.0 - 1e-13)

    def test_zero_and_single_cell(self):
        # the zero function has no cells to split: its envelope is zero
        # before any split (TestEnvelopes.test_zero)
        xs = np.linspace(-3.0, 4.0, 71)
        self.assert_matches(CHI01, xs)
        f = StepFunction.indicator(-0.25, 2.0, 3.5)
        self.assert_matches(f, xs)
        inside = xs[(xs >= -0.25) & (xs <= 2.0)]
        assert np.all(split_maximal(f, inside) == 3.5)


def scan_side_chords(f, xs, cells):
    """The five outputs of _side_chords by a scan over every chord end of
    every point, O(points x cells), with R and L at least c as the module
    docstring defines them; kept as the tangent query's oracle.  Also
    returns each chord's charged K / (v - x), one row per point and side
    (R rows, then L rows), -inf where no chord ends."""
    b, w, prefix = f._abs_arrays
    n, k = len(b), len(xs)
    c = np.tile(np.concatenate(([0.0], w, [0.0]))[cells + 1], 2)
    ends = np.concatenate((np.minimum(cells + 1, n - 1), np.maximum(cells, 0)))
    j0 = np.concatenate((cells + 1 + (b[ends[:k]] == xs), np.zeros(k, int)))
    j1 = np.concatenate((np.full(k, n), cells + 1 - (b[ends[k:]] == xs)))
    cols = np.arange(n)
    inside = (cols >= j0[:, None]) & (cols < j1[:, None])
    excess = prefix - prefix[ends, None] - c[:, None] * (b - b[ends, None])
    den = np.where(inside, b - np.tile(xs, 2)[:, None], 1.0)
    # the charge lowers a chord's mass: K on the right, -K on the left
    charges = np.repeat([1.0, -1.0], k)[:, None] * maxops._charge(prefix)
    plain = np.where(inside, excess / den, -np.inf).max(axis=1)
    charged = np.where(inside, (excess - charges) / den, -np.inf)
    top = charged.max(axis=1)
    hi, lo = c + np.maximum(plain, 0.0), c + np.maximum(top, 0.0)
    at = np.where(top > 0.0, charged.argmax(axis=1), ends)
    mf = np.minimum(np.maximum(hi[:k], hi[k:]), f.sup_abs())
    return (mf, lo[:k], at[:k], lo[k:], at[k:]), charged


def assert_matches_scan(f, xs, cells):
    """Mf and the charged R and L within 2 ulps of the scan's, and each
    attaining breakpoint's charged chord within 2 ulps of the scan's best."""
    xs, cells = np.asarray(xs, dtype=float), np.asarray(cells)
    got = _side_chords(f, xs, cells)
    want, charged = scan_side_chords(f, xs, cells)
    for i in (0, 1, 3):
        g, w = got[i], want[i]
        assert np.all(np.abs(g - w) <= 2.0 * np.spacing(w)), np.max(np.abs(g - w) / np.spacing(w))
    c = np.concatenate(([0.0], f._abs_arrays[1], [0.0]))[cells + 1]
    rows = np.arange(len(xs))
    for at, lo, side in ((got[2], want[1], charged[: len(xs)]), (got[4], want[3], charged[len(xs) :])):
        value = c + np.maximum(side[rows, at], 0.0)
        assert np.all(np.abs(value - lo) <= 2.0 * np.spacing(lo))


class TestSideChords:
    @staticmethod
    def inputs(seed, count):
        """Random f with zero cells and |f| from e^-5 to e^5 on scales
        1e-3 to 1e3, a quarter of them with a few magnitudes of either sign,
        so that adjacent cells share |f|; points inside and off the support,
        and every breakpoint seen from both cells it ends."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            m = int(rng.integers(1, 300 if i % 10 == 0 else 40))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            bp = scale * (rng.uniform(-1.0, 1.0) + np.sort(rng.uniform(-1.0, 1.0, m + 1)))
            if i % 4 == 0:
                vals = rng.choice(np.exp(rng.uniform(-5.0, 5.0, 3)), m)
            else:
                vals = np.exp(rng.uniform(-5.0, 5.0, m))
            vals[rng.random(m) < 0.2] = 0.0
            f = StepFunction(bp, vals * rng.choice([-1.0, 1.0], m))
            if f.is_zero:
                continue
            b = np.asarray(f.breakpoints)
            span = b[-1] - b[0]
            xs = rng.uniform(b[0] - span, b[-1] + span, 40)
            ks = np.arange(len(b))
            yield f, np.concatenate((xs, b, b)), np.concatenate((extended_cells(f, xs), ks, ks - 1))

    def test_matches_scan(self):
        rows = 0
        for f, xs, cells in self.inputs(40, 600):
            assert_matches_scan(f, xs, cells)
            rows += len(xs)
        assert rows > 50_000

    def test_collinear_prefix(self):
        # |f| = 1 on (0, 1) and (1, 2): the points (0, 0), (1, 1), (2, 2)
        # are collinear, and (1, 1) leaves the hull of the suffix from 0
        f = StepFunction((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, -1.0, 0.25, 0.5))
        _, _, up, edge = f._hull_tree
        assert up[0][:4].tolist() == [2, 2, 4, 4]
        assert edge[0] == edge[1] == 1.0
        xs = np.concatenate((np.linspace(-3.0, 7.0, 41), f.breakpoints, f.breakpoints))
        ks = np.arange(5)
        cells = np.concatenate((extended_cells(f, xs[:41]), ks, ks - 1))
        assert_matches_scan(f, xs, cells)
        # left of 0 the steepest chord ends at (2, 2), or far off at (4, 2.75)
        _, _, v, _, _ = _side_chords(f, np.array([-1.0, -10.0]), np.array([-1, -1]))
        assert v.tolist() == [2, 4]

    @staticmethod
    def both_paths(monkeypatch, call):
        """call() as it is, with every function small enough for the chord
        table on it, then with _side_chords forced onto the hull-tree climb."""
        table = call()
        monkeypatch.setattr(maxops, "_TABLE_BREAKPOINTS", 0)
        climb = call()
        monkeypatch.undo()
        return table, climb

    def test_table_matches_climb(self, monkeypatch):
        # bitwise equal wherever the climb finds the steepest chord; on the
        # few rows where it does not, the table's charged value is the
        # larger, and each path's breakpoint attains its own value exactly
        rows, odd = 0, 0
        for f, xs, cells in self.inputs(40, 600):
            if len(f.breakpoints) > maxops._TABLE_BREAKPOINTS:
                continue
            table, climb = self.both_paths(monkeypatch, lambda: _side_chords(f, xs, cells))
            _, charged = scan_side_chords(f, xs, cells)
            c = np.concatenate(([0.0], f._abs_arrays[1], [0.0]))[cells + 1]
            k = len(xs)
            same = np.ones(k, dtype=bool)
            for i in range(5):
                same &= table[i] == climb[i]
            for i in np.flatnonzero(~same):
                assert table[0][i] >= climb[0][i]
                for lo, at, side in ((1, 2, charged[:k]), (3, 4, charged[k:])):
                    assert table[lo][i] >= climb[lo][i]
                    for got in (table, climb):
                        assert c[i] + max(side[i, got[at][i]], 0.0) == got[lo][i]
            rows += k
            odd += np.count_nonzero(~same)
        assert rows > 10_000 and odd <= 1e-3 * rows

    def test_envelopes_match_climb(self, monkeypatch):
        rng = np.random.default_rng(44)
        for tol in (0.05, 1e-3):
            for _ in range(50):
                f = random_step(rng, max_cells=10)
                hull = default_hull(f)
                xs = np.linspace(hull.left, hull.right, 33)
                table, climb = self.both_paths(monkeypatch, lambda: maximal_envelope(f, tol))
                assert table == climb
                table, climb = self.both_paths(monkeypatch, lambda: iterated_maximal_at(f, xs, tol))
                assert all(np.array_equal(a, b) for a, b in zip(table, climb))

    @pytest.mark.parametrize("m", [1, 10, 200])
    def test_point_alone_as_in_a_batch(self, m):
        # the path is chosen by f's breakpoint count alone, and the table
        # scan's blocks split no point's scores: a point's outputs do not
        # depend on the other points of its call
        rng = np.random.default_rng(45)
        f = StepFunction(np.sort(rng.uniform(0.0, 1.0, m + 1)), np.exp(rng.uniform(-3.0, 3.0, m)))
        b = np.asarray(f.breakpoints)
        xs = np.concatenate((b, rng.uniform(-0.5, 1.5, 1000 - len(b))))
        cells = np.concatenate((np.arange(len(b)) - rng.integers(0, 2, len(b)), extended_cells(f, xs[len(b) :])))
        batch = _side_chords(f, xs, cells)
        for i in range(len(xs)):
            alone = _side_chords(f, xs[i : i + 1], cells[i : i + 1])
            assert all(a[0] == got[i] for a, got in zip(alone, batch))
        empty = _side_chords(f, np.empty(0), np.empty(0, dtype=int))
        assert [len(a) for a in empty] == [0] * 5

    def test_charged_sides_never_below_the_cell_value(self):
        # R and L are c + max(0, .): on the cell holding sup |f| every chord
        # of either side is below c, and charged further, but the 0 holds
        rng = np.random.default_rng(41)
        for m in (10, 300, 1000):
            f = StepFunction(np.sort(rng.uniform(0.0, 1.0, m + 1)), np.exp(rng.uniform(-3.0, 3.0, m)))
            b, w, _ = f._abs_arrays
            top = int(np.argmax(w))
            xs = np.concatenate((rng.uniform(b[top], b[top + 1], 64), rng.uniform(-0.5, 1.5, 64)))
            cells = np.concatenate((np.full(64, top), extended_cells(f, xs[64:])))
            _, r, _, l, _ = _side_chords(f, xs, cells)
            c = np.concatenate(([0.0], w, [0.0]))[cells + 1]
            assert np.all(r >= c) and np.all(l >= c)
            assert np.all(r[:64] == w[top]) and np.all(l[:64] == w[top])
        for f, xs, cells in self.inputs(42, 100):
            _, r, _, l, _ = _side_chords(f, xs, cells)
            c = np.concatenate(([0.0], f._abs_arrays[1], [0.0]))[cells + 1]
            assert np.all(r >= c) and np.all(l >= c)

    def test_iterated_maximal_cpu_budget(self):
        """Budget: under 1.5 s of CPU each; about 0.07 s for 1000 cells at
        tol 0.05 and 0.09 s for 10 cells at tol 1e-3 on a 2-vCPU host
        (medians of 5 runs)."""
        from morreylab.experiments import LOOSE

        for m, tol in ((1000, LOOSE), (10, 1e-3)):
            rng = np.random.default_rng(2026)
            f = StepFunction(np.sort(rng.uniform(0.0, 1.0, m + 1)), np.exp(rng.uniform(-3.0, 3.0, m)))
            cpu = time.process_time()
            env = iterated_maximal(f, tol)
            assert time.process_time() - cpu < 1.5
            assert env.lower.num_cells > 5_000


class TestEnvelopeFloors:
    def test_lower_cells_below_maximal(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            f = random_step(rng, max_cells=10)
            env = maximal_envelope(f, 0.05)
            for left, right, lo in env.lower.cells():
                for x in np.linspace(left, right, 5):
                    assert lo <= maximal(f, float(x)) * (1.0 + 1e-12)

    def test_far_mass(self):
        # P is near 100 on the plateau, where Mf = 2: a floor read through
        # large prefix sums without the charge could come out above 2
        f = StepFunction((-1000.0, -999.0, 0.0, 1.0), (100.0, 0.0, 2.0))
        env = maximal_envelope(f, 1e-4, Interval(-1.0, 2.0))
        for left, right, lo in env.lower.cells():
            if left < 1.0 and right > 0.0:
                assert lo <= 2.0
        assert env.upper(0.5) >= 2.0

    def test_tiny_cell_inside_the_hull(self):
        # a 1e-14-wide cell: every grid cell must still lie in one cell of f
        b = (0.0, 0.5, 0.5 + 1e-14, 1.0)
        f = StepFunction(b, (1.0, 50.0, 2.0))
        env = maximal_envelope(f, 1e-3, Interval(-0.5, 1.5))
        for d in (-1e-3, -1e-13, -1e-15, 2e-15, 5e-15, 1e-14 + 1e-15, 1e-14 + 1e-13, 1e-14 + 1e-3):
            x = 0.5 + d
            mfx = maximal(f, x)
            assert env.lower(x) <= mfx * (1.0 + 1e-12)
            assert env.upper(x) >= mfx * (1.0 - 1e-12)

    def test_translate(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            f = random_step(rng, max_cells=8)
            g = f.translate(0.5)
            hull = default_hull(g)
            env = maximal_envelope(g, 0.05, hull)
            for x in rng.uniform(hull.left, hull.right, 20):
                mfx = maximal(f, float(x) - 0.5)
                assert env.lower(float(x)) <= mfx * (1.0 + 1e-9)
                assert env.upper(float(x)) >= mfx * (1.0 - 1e-9)

    @staticmethod
    def accepted_cells(monkeypatch, f, tol, hull=None):
        # the envelope's sides are canonical, so adjacent cells with equal
        # values merge; the cells refinement accepted are read from the
        # arrays maximal_envelope hands to StepFunction
        made = []
        monkeypatch.setattr(maxops, "StepFunction", lambda bps, vals: made.append((bps, vals)) or StepFunction(bps, vals))
        env = maximal_envelope(f, tol, hull)
        (bps, lo), (_, hi) = made
        return env, bps[:-1], bps[1:], lo, hi

    def test_depth_cap_count(self, monkeypatch):
        # every accepted cell meets the stop rule or is one float wide, and
        # depth_capped counts the open ones; on the tiny cell Mf moves about
        # 1 % per ulp, so tol 1e-3 is met nowhere near it
        rng = np.random.default_rng(38)
        inputs = [(random_step(rng, max_cells=10), None) for _ in range(20)]
        inputs.append((StepFunction((0.0, 0.5, 0.5 + 1e-14, 1.0), (1.0, 50.0, 2.0)), Interval(-0.5, 1.5)))
        for f, hull in inputs:
            env, left, right, lo, hi = self.accepted_cells(monkeypatch, f, 1e-3, hull)
            closed = (hi - lo <= 1e-3 * hi) | (hi <= 0.0)
            one_float = np.nextafter(left, np.inf) == right
            assert np.all(closed | one_float)
            assert env.depth_capped == np.count_nonzero(~closed & one_float)
        assert env.depth_capped > 10_000
        assert set(env.to_json_obj()) == {"lower", "upper"}

    def test_depth_cap_count_passed_on(self, monkeypatch):
        # the composite envelopes sum the counts of the envelopes they build
        hull = Interval(-9.0, 10.0)
        assert iterated_maximal(CHI01, 0.5, hull).depth_capped == 0
        assert commutator_envelope(CHI01, CHI01, 0.5, hull).depth_capped == 0
        counts = iter(range(1, 100))
        real = maxops.maximal_envelope
        monkeypatch.setattr(
            maxops, "maximal_envelope", lambda *a, **k: dataclasses.replace(real(*a, **k), depth_capped=next(counts))
        )
        # the first level and the second: 1 + 2
        env = iterated_maximal(CHI01, 0.5, hull)
        assert env.depth_capped == 3
        # one piece on each cell of b's partition of the hull: 3 + 4 + 5
        comm = commutator_envelope(CHI01, CHI01, 0.5, hull)
        assert comm.depth_capped == 12
        assert set(env.to_json_obj()) == set(comm.to_json_obj()) == {"lower", "upper"}


class TestFractionalMaximal:
    def test_alpha_zero_is_maximal(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_step(rng)
            x = float(rng.uniform(-3, 3))
            assert fractional_maximal(f, 0.0, x) == maximal(f, x)

    def test_chi_half(self):
        # brute-force oracle over a dense candidate grid gave 1.0 (the unit
        # interval attains 1^(alpha-1) * 1 and nothing beats it)
        assert fractional_maximal(CHI01, 0.5, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        assert fractional_maximal(StepFunction.zero(), 0.5, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            fractional_maximal(CHI01, 1.0, 0.5)
        with pytest.raises(ValueError):
            fractional_maximal(CHI01, -0.1, 0.5)

    def test_against_dense_sampling(self):
        from morreylab.stepfn import prefix_at

        rng = np.random.default_rng(14)
        for _ in range(6):
            f = random_step(rng, max_cells=5)
            x = float(rng.uniform(-2, 2))
            alpha = float(rng.uniform(0.0, 0.9))
            exact = fractional_maximal(f, alpha, x)
            lo = min(f.breakpoints[0], x) - 4.0
            hi = max(f.breakpoints[-1], x) + 4.0
            b, w, prefix = f._abs_arrays
            bps = np.asarray(f.breakpoints)
            us = np.unique(np.concatenate((np.linspace(lo, x, 300), bps[bps <= x], [x])))
            vs = np.unique(np.concatenate((np.linspace(x, hi, 300), bps[bps >= x], [x])))
            best = 0.0
            for u in us:
                lens = vs - u
                ok = lens > 0
                if not ok.any():
                    continue
                masses = prefix_at(b, w, prefix, vs[ok]) - prefix_at(b, w, prefix, np.full(int(ok.sum()), u))
                best = max(best, float(np.max(lens[ok] ** (alpha - 1.0) * masses)))
            # the dense grid includes every breakpoint pair, where the sup
            # is attained, so it must reproduce the exact value
            assert exact >= best - 1e-12
            assert exact <= best * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize("slack", [1, 5, 16384])
    def test_matches_scalar_pair_loop(self, monkeypatch, slack):
        # the cell-weight bound as given and loosened: a looser bound only
        # widens the apex triangles, so the walk prunes fewer chords
        walk = maxops._pair_max
        monkeypatch.setattr(maxops, "_pair_max", lambda *a: walk(*a[:6], slack * a[6], *a[7:]))
        rng = np.random.default_rng(16)
        cases = [(f, x) for f in ROW_BOUND_ATTAINED for x in (-0.5, 0.5, 1.0, 1.5, 2.5)]
        cases += [(random_step(rng, max_cells=59), float(rng.uniform(-3, 3))) for _ in range(300)]
        for n, (f, x) in enumerate(cases):
            alpha = (0.1, 0.5, 0.9)[n % 3]
            exact = fractional_maximal(f, alpha, x)
            assert exact == scalar_fractional(f, alpha, x)
            assert exact == pytest.approx(pair_matrix_fractional(f, alpha, x), rel=1e-15)

    def test_ten_thousand_cells_in_bounded_memory(self):
        # the pair matrices took 132 MB of temporaries at 4000 cells
        rng = np.random.default_rng(17)
        m = 10_000
        bp = np.sort(rng.uniform(-2.0, 2.0, m + 1))
        f = StepFunction(bp, np.exp(rng.uniform(np.log(2.0**-4), np.log(2.0**4), m)))
        assert f.num_cells == m
        tracemalloc.start()
        try:
            exact = fractional_maximal(f, 0.5, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        b, w, prefix = f._abs_arrays
        us, vs = rng.uniform(-2.5, 0.3, 1000), rng.uniform(0.3, 2.5, 1000)
        masses = prefix_at(b, w, prefix, vs) - prefix_at(b, w, prefix, us)
        assert np.all((vs - us) ** -0.5 * masses <= exact * (1 + 1e-12))

    def test_hundred_thousand_cells(self):
        """Budget: under 2 s of CPU and 50 MB traced; about 15 ms on a 2-vCPU host."""
        rng = np.random.default_rng(19)
        m = 100_000
        f = StepFunction(np.sort(rng.uniform(-2.0, 2.0, m + 1)), np.exp(rng.uniform(-3.0, 3.0, m)))
        assert f.num_cells == m
        tracemalloc.start()
        try:
            cpu = time.process_time()
            exact = fractional_maximal(f, 0.5, 0.3)
            cpu = time.process_time() - cpu
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cpu < 2.0
        assert peak < 50e6
        ts, ps, k = _candidate_arrays(f, 0.3, 0.3)
        value, q = _pair_max(ts[:k], ps[:k], ts[k:], ps[k:], -0.5, 1.0, f.sup_abs())
        assert value == exact
        assert q.length**-0.5 * integrate(f.abs(), q) == pytest.approx(exact, rel=1e-12)
        b, w, prefix = f._abs_arrays
        us, vs = rng.uniform(-2.5, 0.3, 200), rng.uniform(0.3, 2.5, 200)
        masses = prefix_at(b, w, prefix, vs) - prefix_at(b, w, prefix, us)
        assert np.all((vs - us) ** -0.5 * masses <= exact * (1 + 1e-12))

    @settings(deadline=None, max_examples=150)
    @given(tie_heavy_steps(), st.integers(-12, 90).map(lambda k: k / 2))
    def test_ties_within_ulps_of_scalar_pair_loop(self, f, x):
        for alpha in (0.1, 0.5, 0.9):
            want = scalar_fractional(f, alpha, x)
            assert abs(fractional_maximal(f, alpha, x) - want) <= 4 * math.ulp(want)


# inputs on which a row of the blocked pair scan the hull walk replaced
# attained its row bound
ROW_BOUND_ATTAINED = [
    StepFunction.indicator(0.0, 1.0, 3.0),
    StepFunction((0.0, 1.0, 2.0), (1.0, 5.0)),
]


def scalar_fractional(f, alpha, x):
    """sup |Q|^(alpha-1) int_Q |f| over the candidate pairs, one pair at a
    time in scalar arithmetic, keeping the first maximum."""
    ts, ps, k = _candidate_arrays(f, x, x)
    best = 0.0
    for i in range(k):
        for j in range(k, len(ts)):
            length, mass = float(ts[j] - ts[i]), float(ps[j] - ps[i])
            if length > 0.0 and mass > 0.0:
                best = max(best, length ** (alpha - 1.0) * mass)
    return best


def pair_matrix_fractional(f, alpha, x):
    """The dense O(m^2) pair-matrix maximum the pair kernel replaced, in
    numpy's array power; kept as its oracle."""
    ts, ps, k = _candidate_arrays(f, x, x)
    lengths = ts[None, k:] - ts[:k, None]
    masses = ps[None, k:] - ps[:k, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(lengths > 0, lengths ** (alpha - 1.0) * masses, -np.inf)
    return max(float(vals.max()), 0.0)


class TestMaximalCommutator:
    def test_constant_symbol(self):
        rng = np.random.default_rng(15)
        b = StepFunction.indicator(-5.0, 5.0, 3.0)
        for _ in range(10):
            f = random_step(rng)
            x = float(rng.uniform(-4, 4))
            assert maximal_commutator(b, f, x) == 0.0

    def test_aligned_indicator_vanishes(self):
        # integrand |b(x) - b(y)| |f(y)| vanishes wherever f lives
        assert maximal_commutator(CHI01, CHI01, 0.5) == 0.0

    def test_adjacent_indicator(self):
        # oracle: sup over [u, v] with u <= 0.5 <= v of (min(v,2)-1)/(v-u),
        # maximized at [0.5, 2]; brute force confirmed 2/3
        got = maximal_commutator(CHI01, StepFunction.indicator(1.0, 2.0), 0.5)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)


class TestCommutator:
    def test_constant_symbol_vanishes(self):
        b = StepFunction.indicator(-9.0, 9.0, 2.0)
        rng = np.random.default_rng(16)
        for _ in range(10):
            f = random_step(rng)
            x = float(rng.uniform(-8, 8))
            assert commutator(b, f, x) == pytest.approx(0.0, abs=1e-12)

    def test_outside_support(self):
        # b vanishes at x = 2, so [M, b]f(2) = M(bf)(2) = M(chi01)(2) = 1/2
        assert commutator(CHI01, CHI01, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_dominated_by_maximal_commutator(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            b = random_step(rng, signed=False)  # nonnegative symbol
            f = random_step(rng, signed=True)
            x = float(rng.uniform(-3, 3))
            assert abs(commutator(b, f, x)) <= maximal_commutator(b, f, x) + 1e-10


def iterated_brackets(f, tol, xs, hull=None):
    """The bracket of M(Mf) at xs from the whole envelope and from the
    point query, as (lower, upper) arrays."""
    env = iterated_maximal(f, tol, hull)
    whole = ([env.lower(float(x)) for x in xs], [env.upper(float(x)) for x in xs])
    return [whole, iterated_maximal_at(f, xs, tol, hull)[:2]]


M2_GRID = [-0.5 + 0.125 * i for i in range(17)]


def cli_hull(f, pts):
    """The hull ``maxfn --op M2`` brackets points on."""
    supp = f.support_hull()
    lo, hi = min(pts + [0.0]) - 1.0, max(pts + [0.0]) + 1.0
    return Interval(min(lo, supp.left - supp.length), max(hi, supp.right + supp.length))


def mirror(f):
    return StepFunction([-b for b in reversed(f.breakpoints)], f.values[::-1])


class TestIteratedMaximalAt:
    def test_inside_the_envelope_bracket(self, m2_corpus):
        for f in m2_corpus:
            hull = cli_hull(f, M2_GRID)
            env = iterated_maximal(f, 0.05, hull)
            lower, upper, capped = iterated_maximal_at(f, M2_GRID, 0.05, hull)
            assert capped == 0
            for x, lo, hi in zip(M2_GRID, lower, upper):
                assert env.lower(x) <= lo * (1 + 1e-15)
                assert hi <= env.upper(x) * (1 + 1e-15)

    @pytest.mark.parametrize("tol", [0.05, 1e-3])
    def test_gap_within_tol_and_mirror_invariant(self, m2_corpus, tol):
        # the first envelope of f and of its mirror can close different
        # cells, as their last bits differ, yet M of either side moves
        # only by rounding
        for f in m2_corpus:
            lower, upper, capped = iterated_maximal_at(f, M2_GRID, tol, cli_hull(f, M2_GRID))
            assert capped == 0
            assert np.all(upper - lower <= tol * upper * (1 + 1e-12))
            g, mirrored = mirror(f), [-x for x in M2_GRID]
            m_lower, m_upper, _ = iterated_maximal_at(g, mirrored, tol, cli_hull(g, mirrored))
            np.testing.assert_allclose(m_lower, lower, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(m_upper, upper, rtol=1e-12, atol=0.0)

    def test_support_past_the_outer_hull(self):
        # the outer hull (0.3, 0.6) stops short of the tall cell (0.9, 1),
        # yet M(Mf)(0.45) is at least the average of Mf over [0.45, 0.95];
        # A / dist past the outer hull bounds nothing here, sup |f| does
        f = StepFunction((0.0, 0.9, 1.0), (1.0, 100.0))
        t = np.linspace(0.45, 0.95, 5001)
        mf = np.array([maximal(f, float(x)) for x in t])
        m2_under = float(np.mean(np.minimum(mf[:-1], mf[1:])))
        assert m2_under > 40.0
        for (lo,), (hi,) in iterated_brackets(f, 0.05, [0.45], Interval(0.4, 0.5)):
            assert lo <= hi
            assert hi >= m2_under

    def test_zero(self):
        lower, upper, capped = iterated_maximal_at(StepFunction.zero(), [-1.0, 0.0, 0.5])
        assert lower.tolist() == upper.tolist() == [0.0] * 3
        assert capped == 0

    @pytest.mark.parametrize("f", [CHI01, StepFunction.zero()], ids=["chi01", "zero"])
    def test_point_outside_hull(self, f):
        hull = Interval(-2.0, 3.0)
        assert iterated_maximal_at(f, [-2.0, 3.0], 0.05, hull)[0].shape == (2,)
        for xs in ([3.0 + 1e-12], [0.5, -2.5]):
            with pytest.raises(ValueError, match="hull"):
                iterated_maximal_at(f, xs, 0.05, hull)
        with pytest.raises(ValueError, match="hull"):
            iterated_maximal_at(f, [2.5], 0.05)


class TestEnvelopes:
    @pytest.mark.parametrize("f", [CHI01, StepFunction.zero()], ids=["chi01", "zero"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_envelopes_reject_bad_tol(self, f, tol):
        builds = (
            maximal_envelope,
            iterated_maximal,
            lambda g, t: commutator_envelope(CHI01, g, t),
            lambda g, t: iterated_maximal_at(g, [0.5], t),
        )
        for build in builds:
            with pytest.raises(ValueError, match="tol"):
                build(f, tol)

    def test_upper_cell_is_endpoint_max(self):
        env = maximal_envelope(CHI01, 0.5, Interval(-1.0, 2.0))
        # on (1, 2): Mf decreases from 1 to 1/2, so the upper value near 1+ is ~1
        assert env.upper(1.0 + 1e-9) <= 1.0 + 1e-12
        assert env.upper(1.5) >= maximal(CHI01, 1.5) - 1e-12

    def test_bracket_order_random(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            f = random_step(rng, max_cells=6)
            env = maximal_envelope(f, 0.08)
            xs = rng.uniform(f.breakpoints[0], f.breakpoints[-1], 20)
            for x in xs:
                mfx = maximal(f, float(x))
                assert env.lower(float(x)) <= mfx + 1e-10
                assert env.upper(float(x)) >= mfx - 1e-10

    def test_zero(self):
        env = maximal_envelope(StepFunction.zero())
        assert env.lower.is_zero and env.upper.is_zero
        it = iterated_maximal(StepFunction.zero())
        assert it.lower.is_zero and it.upper.is_zero

    def test_iterated_brackets_grow(self):
        env2 = iterated_maximal(CHI01, 0.02)
        # M^2 f >= Mf pointwise, checked at x = 4 via lower/upper sanity
        # (hull default covers [-1, 2]; use a wider hull for x = 4)
        env2w = iterated_maximal(CHI01, 0.02, Interval(-5.0, 5.0))
        assert env2w.upper(4.0) >= maximal(CHI01, 4.0) - 1e-12
        assert env2.upper(0.5) >= 1.0 - 1e-9
        assert env2.lower(0.5) <= env2.upper(0.5)

    @pytest.mark.parametrize("tol", [0.05, 1e-3])
    def test_iterated_whole_hull_gap(self, m2_corpus, tol):
        # the upper side is at most L / (1 - tol)^2 over the whole hull,
        # L the lower side (iterated_maximal's docstring)
        for f in m2_corpus:
            env = iterated_maximal(f, tol)
            assert env.depth_capped == 0
            pts = np.union1d(env.lower.breakpoints, env.upper.breakpoints)
            mids = 0.5 * (pts[:-1] + pts[1:])
            lower, upper = _values_at(env.lower, mids), _values_at(env.upper, mids)
            assert np.all(upper - lower <= tol * (2.0 - tol) * upper * (1 + 1e-12))

    def test_iterated_bracket_contains_truth_samples(self):
        # brute-force M(Mf) lower estimates must sit inside the bracket
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 1.0))
        grid_pts = np.linspace(-0.4, 1.4, 21)
        mf_grid = Interval(-3.0, 3.0)
        dense = np.linspace(mf_grid.left, mf_grid.right, 2001)
        mf_vals = np.array([maximal(f, float(t)) for t in dense])
        mf_step = StepFunction(dense, np.minimum(mf_vals[:-1], mf_vals[1:]))
        for lower, upper in iterated_brackets(f, 0.02, grid_pts):
            for x, lo, hi in zip(grid_pts, lower, upper):
                # mf_step under-approximates Mf at grid resolution, so allow a
                # small slack on both comparisons
                m2_under = maximal(mf_step, float(x))
                assert hi >= m2_under - 2e-2 * m2_under
                assert lo <= m2_under * (1 + 2e-2) + 1e-12

    def test_iterated_bracket_at_hull_edge(self):
        # M(M chi)(1.9) solved by a 1-D oracle: the best interval is
        # [-a*, 1.9] with (1.9+a)/(1+a) = log(1+a) + 1 + log 1.9; far mass
        # beyond the envelope hull must be absorbed by the tail term
        a = np.linspace(0.0, 3.0, 2_000_001)
        vals = (np.log1p(a) + 1.0 + math.log(1.9)) / (1.9 + a)
        truth = float(np.max(vals))
        assert truth == pytest.approx(0.869, abs=2e-3)
        for (lo,), (hi,) in iterated_brackets(CHI01, 0.02, [1.9]):
            assert lo <= truth + 1e-9
            assert hi >= truth - 1e-9

    def test_abs_commutator_lower_is_certified(self):
        from morreylab.experiments import _abs_commutator_lower

        rng = np.random.default_rng(21)
        for _ in range(6):
            b = random_step(rng, max_cells=5, signed=True)
            f = random_step(rng, max_cells=6)
            lower = _abs_commutator_lower(b, f)
            hull = lower.support_hull()
            if hull is None:
                continue
            for x in rng.uniform(hull.left, hull.right, 40):
                exact = abs(commutator(b, f, float(x)))
                assert lower(float(x)) <= exact + 1e-9 * max(1.0, exact)

    def test_commutator_envelope_brackets_pointwise(self):
        b = StepFunction((-0.5, 0.5, 1.5), (1.0, -0.5))
        f = StepFunction((0.0, 1.0, 2.0), (1.0, 0.5))
        env = commutator_envelope(b, f, 0.05)
        rng = np.random.default_rng(19)
        hull = env.lower.support_hull() or Interval(-1.0, 1.0)
        for x in rng.uniform(hull.left, hull.right, 60):
            cb = maximal_commutator(b, f, float(x))
            assert env.lower(float(x)) <= cb + 1e-10
            assert env.upper(float(x)) >= cb - 1e-10


class TestHardy:
    def test_chi_n1(self):
        p = RadialProfile(CHI01, 1)
        assert hardy(p, 2.0) == pytest.approx(0.5, rel=1e-14)

    def test_chi_n2(self):
        p = RadialProfile(CHI01, 2)
        assert hardy(p, 2.0) == pytest.approx(0.25, rel=1e-14)

    def test_constant_profile(self):
        for n in (1, 2, 3):
            p = RadialProfile(StepFunction.indicator(0.0, 50.0, 2.5), n)
            for x in (0.3, 1.0, 7.0):
                assert hardy(p, x) == pytest.approx(2.5, rel=1e-12)

    def test_origin_flag(self):
        p = RadialProfile(CHI01, 2)
        with pytest.warns(HardyOriginWarning):
            assert hardy(p, 0.0) == 1.0

    def test_array_equals_one_point_calls(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 7):
            k = int(rng.integers(1, 6))
            radii = np.sort(rng.uniform(0.1, 3.0, k))
            vals = np.exp(rng.uniform(-2.0, 2.0, k))
            start = 0.0 if n % 2 else 0.05  # a leading gap: the limit at 0 is 0
            p = RadialProfile(StepFunction(np.concatenate(([start], radii)), vals), n)
            xs = np.concatenate((rng.uniform(-4.0, 4.0, 20), radii, -radii, [0.0, 1e-300, -0.0, 1e300]))
            with pytest.warns(HardyOriginWarning) as caught:
                got = hardy(p, xs)
            assert len(caught) == 1
            off = xs != 0.0
            one = [hardy(p, float(x)) for x in xs[off]]
            assert all(type(v) is float for v in one)
            assert got[off].tobytes() == np.array(one).tobytes()
            assert np.all(got[~off] == (vals[0] if start == 0.0 else 0.0))

    def test_even_decreasing_factor_two_band(self):
        # even nonincreasing step f: Mf and Hf agree within a factor of 2
        rng = np.random.default_rng(20)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            radii = np.sort(rng.uniform(0.1, 3.0, k))
            vals = np.sort(np.exp(rng.uniform(-2, 2, k)))[::-1]
            prof = StepFunction(np.concatenate(([0.0], radii)), vals)
            p = RadialProfile(prof, 1, nonincreasing=True)
            bp = np.concatenate((-radii[::-1], [0.0], radii))
            vv = np.concatenate((vals[::-1], vals))
            f = StepFunction(bp, vv)
            for x in rng.uniform(0.05, 4.0, 12):
                mf = maximal(f, float(x))
                hf = hardy(p, float(x))
                assert hf <= mf + 1e-12
                assert mf <= 2.0 * hf + 1e-12

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(StepFunction.indicator(-1.0, 1.0), 1)
        with pytest.raises(ValueError):
            RadialProfile(StepFunction((0.0, 1.0, 2.0), (1.0, 2.0)), 1, nonincreasing=True)
        with pytest.raises(ValueError):
            RadialProfile(CHI01, 0)

    def test_json_round_trip(self):
        p = RadialProfile(CHI01, 3, nonincreasing=True)
        again = RadialProfile.from_json_obj(p.to_json_obj())
        assert again == p
