import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from morreylab.maxops import (
    HardyOriginWarning,
    RadialProfile,
    RefinePolicy,
    _candidate_arrays,
    _cell_floor,
    _side_chords,
    brute_force_maximal,
    commutator,
    commutator_envelope,
    fractional_maximal,
    hardy,
    iterated_maximal,
    maximal,
    maximal_commutator,
    maximal_envelope,
)
from morreylab import stepfn
from morreylab.stepfn import Interval, StepFunction, average, combine, default_hull, prefix_at

CHI01 = StepFunction.indicator(0.0, 1.0)


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
    """Mf(x) in rational arithmetic over the candidate endpoints."""
    cells = [(Fraction(l), Fraction(r), abs(Fraction(v))) for l, r, v in f.cells()]

    def prefix(t):
        return sum((v * (min(r, t) - l) for l, r, v in cells if t > l), Fraction(0))

    x = Fraction(x)
    us = [Fraction(b) for b in f.breakpoints if b < x] + [x]
    vs = [x] + [Fraction(b) for b in f.breakpoints if b > x]
    pus, pvs = [prefix(u) for u in us], [prefix(v) for v in vs]
    return max(
        (pv - pu) / (v - u) for u, pu in zip(us, pus) for v, pv in zip(vs, pvs) if v > u
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


def extended_cells(f, xs):
    """The extended cell of f holding each point: -1 left of the support,
    m right of it, and the cell on its right at a breakpoint."""
    return f._abs_arrays[0].searchsorted(np.asarray(xs, dtype=float), side="right") - 1


def split_maximal(f, xs, cells=None):
    """Mf at xs from the per-cell split max(C, R, L), each point in the
    extended cell that holds it unless ``cells`` is given."""
    xs = np.asarray(xs, dtype=float)
    cells = extended_cells(f, xs) if cells is None else np.asarray(cells)
    _, c = _cell_floor(f, cells)
    r, _, l, _ = _side_chords(f, xs, cells)
    return np.minimum(np.maximum.reduce([c[cells + 1], r, l]), f.sup_abs())


def split_floor(f, left, right):
    """The envelope's floor max(C, R(left), L(right)) of a window inside one
    extended cell of f, every chord's mass charged."""
    cell = extended_cells(f, [left])
    c, _ = _cell_floor(f, cell)
    _, r, _, _ = _side_chords(f, np.array([left]), cell)
    _, _, _, l = _side_chords(f, np.array([right]), cell)
    return min(max(c[cell[0] + 1], r[0], l[0]), f.sup_abs())


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
        # C is searched on the given cells of f alone, and is 0 off the support
        f = StepFunction((0.0, 1.0, 2.0, 3.0), (1.0, 4.0, 2.0))
        lo, hi = _cell_floor(f, np.array([-1, 1, 3]))
        assert lo[[0, 1, 3, 4]].tolist() == [0.0] * 4
        assert hi[[0, 1, 3, 4]].tolist() == [0.0] * 4
        assert lo[2] <= hi[2] == 4.0


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
            env = maximal_envelope(f, RefinePolicy(tol=0.05, max_depth=12), hull)
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


class TestEnvelopeFloors:
    def test_lower_cells_below_maximal(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            f = random_step(rng, max_cells=10)
            env = maximal_envelope(f, RefinePolicy(tol=0.05, max_depth=12))
            for left, right, lo in env.lower.cells():
                for x in np.linspace(left, right, 5):
                    assert lo <= maximal(f, float(x)) * (1.0 + 1e-12)

    def test_far_mass(self):
        # P is near 100 on the plateau, where Mf = 2: a floor read through
        # large prefix sums without the charge could come out above 2
        f = StepFunction((-1000.0, -999.0, 0.0, 1.0), (100.0, 0.0, 2.0))
        env = maximal_envelope(f, RefinePolicy(tol=1e-4, max_depth=30), Interval(-1.0, 2.0))
        for left, right, lo in env.lower.cells():
            if left < 1.0 and right > 0.0:
                assert lo <= 2.0
        assert env.upper(0.5) >= 2.0

    def test_tiny_cell_inside_the_hull(self):
        # a 1e-14-wide cell: every grid cell must still lie in one cell of f
        b = (0.0, 0.5, 0.5 + 1e-14, 1.0)
        f = StepFunction(b, (1.0, 50.0, 2.0))
        env = maximal_envelope(f, RefinePolicy(tol=1e-3, max_depth=30), Interval(-0.5, 1.5))
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
            env = maximal_envelope(g, RefinePolicy(tol=0.05, max_depth=12), hull)
            for x in rng.uniform(hull.left, hull.right, 20):
                mfx = maximal(f, float(x) - 0.5)
                assert env.lower(float(x)) <= mfx * (1.0 + 1e-9)
                assert env.upper(float(x)) >= mfx * (1.0 - 1e-9)

    def test_depth_cap_count(self):
        # Mf = 1/(1 - x) left of (0, 1) and 1/x right of it: on a hull out
        # to -9 and 10, depth 2 leaves (-2.25, 0) and (1, 3.25) open
        policy = RefinePolicy(tol=0.5, max_depth=2)
        env = maximal_envelope(CHI01, policy, Interval(-9.0, 10.0))
        assert env.depth_capped == 2
        for x in (-1.0, 2.0):
            assert env.lower(x) == pytest.approx(1.0 / 3.25, rel=1e-14)
            assert env.upper(x) == 1.0
        assert maximal_envelope(CHI01, policy).depth_capped == 0
        assert maximal_envelope(CHI01, RefinePolicy(tol=0.5), Interval(-9.0, 10.0)).depth_capped == 0
        assert set(env.to_json_obj()) == {"lower", "upper"}

    def test_depth_cap_count_passed_on(self):
        policy = RefinePolicy(tol=0.5, max_depth=2)
        hull = Interval(-9.0, 10.0)
        # the first level, on the doubled hull (-28, 29), leaves (-7, 0) and
        # (1, 8) open; the lower second level leaves two more, and the upper
        # one closes on its tail floor
        env = iterated_maximal(CHI01, policy, hull)
        assert env.depth_capped == 4
        assert env.depth_capped == (
            maximal_envelope(CHI01, policy, hull.expanded(hull.length)).depth_capped + 2
        )
        # b = chi_(0,1) vanishes |beta - b| f on (0, 1); on (-9, 0) and (1, 10)
        # the piece is Mf of chi_(0,1), with (-2.25, 0) and (1, 3.25) open
        comm = commutator_envelope(CHI01, CHI01, policy, hull)
        assert comm.depth_capped == 2
        assert comm.depth_capped == sum(
            maximal_envelope(CHI01, policy, Interval(a, b)).depth_capped for a, b in ((-9.0, 0.0), (1.0, 10.0))
        )
        assert iterated_maximal(CHI01, RefinePolicy(tol=0.5), hull).depth_capped == 0
        assert commutator_envelope(CHI01, CHI01, RefinePolicy(tol=0.5), hull).depth_capped == 0
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

    @pytest.mark.parametrize("block", [1, 5, stepfn._BLOCK])
    def test_matches_scalar_pair_loop(self, monkeypatch, block):
        # blocks of one row, of a few rows cut mid-row, and the default
        monkeypatch.setattr(stepfn, "_BLOCK", block)
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


# inputs where a row of the pair kernel attains its row bound
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


class TestEnvelopes:
    def test_upper_cell_is_endpoint_max(self):
        env = maximal_envelope(CHI01, RefinePolicy(tol=0.5, max_depth=2), Interval(-1.0, 2.0))
        # on (1, 2): Mf decreases from 1 to 1/2, so the upper value near 1+ is ~1
        assert env.upper(1.0 + 1e-9) <= 1.0 + 1e-12
        assert env.upper(1.5) >= maximal(CHI01, 1.5) - 1e-12

    def test_bracket_order_random(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            f = random_step(rng, max_cells=6)
            env = maximal_envelope(f, RefinePolicy(tol=0.08, max_depth=10))
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
        env2 = iterated_maximal(CHI01, RefinePolicy(tol=0.02, max_depth=16))
        # M^2 f >= Mf pointwise, checked at x = 4 via lower/upper sanity
        # (hull default covers [-1, 2]; use a wider hull for x = 4)
        env2w = iterated_maximal(CHI01, RefinePolicy(tol=0.02, max_depth=16), Interval(-5.0, 5.0))
        assert env2w.upper(4.0) >= maximal(CHI01, 4.0) - 1e-12
        assert env2.upper(0.5) >= 1.0 - 1e-9
        assert env2.lower(0.5) <= env2.upper(0.5)

    def test_iterated_bracket_contains_truth_samples(self):
        # brute-force M(Mf) lower estimates must sit inside the bracket
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 1.0))
        env2 = iterated_maximal(f, RefinePolicy(tol=0.02, max_depth=18))
        grid_pts = np.linspace(-0.4, 1.4, 21)
        mf_grid = Interval(-3.0, 3.0)
        dense = np.linspace(mf_grid.left, mf_grid.right, 2001)
        mf_vals = np.array([maximal(f, float(t)) for t in dense])
        mf_step = StepFunction(dense, np.minimum(mf_vals[:-1], mf_vals[1:]))
        for x in grid_pts:
            # mf_step under-approximates Mf at grid resolution, so allow a
            # small slack on both comparisons
            m2_under = maximal(mf_step, float(x))
            assert env2.upper(float(x)) >= m2_under - 2e-2 * m2_under
            assert env2.lower(float(x)) <= m2_under * (1 + 2e-2) + 1e-12

    def test_iterated_bracket_at_hull_edge(self):
        # M(M chi)(1.9) solved by a 1-D oracle: the best interval is
        # [-a*, 1.9] with (1.9+a)/(1+a) = log(1+a) + 1 + log 1.9; far mass
        # beyond the envelope hull must be absorbed by the tail term
        env = iterated_maximal(CHI01, RefinePolicy(tol=0.02, max_depth=16))
        a = np.linspace(0.0, 3.0, 2_000_001)
        vals = (np.log1p(a) + 1.0 + math.log(1.9)) / (1.9 + a)
        truth = float(np.max(vals))
        assert truth == pytest.approx(0.869, abs=2e-3)
        assert env.lower(1.9) <= truth + 1e-9
        assert env.upper(1.9) >= truth - 1e-9

    def test_abs_commutator_lower_is_certified(self):
        from morreylab.experiments import _abs_commutator_lower

        rng = np.random.default_rng(21)
        for _ in range(6):
            b = random_step(rng, max_cells=5, signed=True)
            f = random_step(rng, max_cells=6)
            lower = _abs_commutator_lower(b, f, RefinePolicy(tol=0.05, max_depth=12))
            hull = lower.support_hull()
            if hull is None:
                continue
            for x in rng.uniform(hull.left, hull.right, 40):
                exact = abs(commutator(b, f, float(x)))
                assert lower(float(x)) <= exact + 1e-9 * max(1.0, exact)

    def test_commutator_envelope_brackets_pointwise(self):
        b = StepFunction((-0.5, 0.5, 1.5), (1.0, -0.5))
        f = StepFunction((0.0, 1.0, 2.0), (1.0, 0.5))
        env = commutator_envelope(b, f, RefinePolicy(tol=0.05, max_depth=12))
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
