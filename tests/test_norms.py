import math
import tracemalloc

import numpy as np
import pytest

from morreylab.families import FamilySpec, resolve_family
from morreylab.maxops import RefinePolicy, maximal_envelope
from morreylab.experiments import build_counterexample
from morreylab.norms import (
    NormEstimate,
    _oscillation_rows,
    _psi_max,
    _two_level_oscillation_sup,
    bmo_p_seminorm,
    bmo_seminorm,
    characterization_functional,
    morrey_norm,
    weak_type_morrey_check,
    weak_zygmund_morrey_norm,
    zygmund_morrey_norm,
)
from morreylab.orlicz import LLOG, _llog_rows, llog_functional, luxemburg_average, weak_llog_average
from morreylab import stepfn
from morreylab.stepfn import EnvelopePair, Interval, StepFunction, default_hull

CHI01 = StepFunction.indicator(0.0, 1.0)


def random_step(rng, max_cells=10):
    n = int(rng.integers(1, max_cells + 1))
    bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    while len(np.unique(bp)) != len(bp):
        bp = np.sort(rng.uniform(-2.0, 2.0, n + 1))
    vals = np.exp(rng.uniform(np.log(2.0**-4), np.log(2.0**4), n))
    return StepFunction(bp, vals)


class TestFamilies:
    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            resolve_family(FamilySpec(mode="dense", resolution=1200, cap=1000), CHI01)

    def test_deterministic_order(self):
        fam1 = resolve_family(FamilySpec(depth=4), CHI01)
        fam2 = resolve_family(FamilySpec(depth=4), CHI01)
        assert list(zip(fam1.lefts, fam1.rights)) == list(zip(fam2.lefts, fam2.rights))

    def test_cover_ratio_bounded(self):
        fam = resolve_family(FamilySpec(depth=8), CHI01)
        assert fam.cover_ratio_sup(fam.hull.length / 100.0) <= 4.0 + 1e-9

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            FamilySpec(mode="triadic")

    def test_matches_tuple_enumeration(self):
        rng = np.random.default_rng(90)
        inputs = [CHI01, build_counterexample(8)] + [random_step(rng, max_cells=8) for _ in range(4)]
        specs = [
            FamilySpec(depth=5),
            FamilySpec(mode="breakpoint_pairs"),
            FamilySpec(mode="dyadic", depth=7),
            FamilySpec(mode="dense", resolution=40),
            FamilySpec(depth=3, hull=Interval(-3.0, 2.5)),
        ]
        for f in inputs:
            for spec in specs:
                for extra in ((), (0.3,)):
                    fam = resolve_family(spec, f, extra)
                    want = tuple_enumeration(spec, f, extra)
                    got = np.stack((fam.lefts, fam.rights), axis=1)
                    assert len(fam) == len(want)
                    assert got.tobytes() == np.array(want).tobytes()

    def test_cap_raises_before_building_pairs(self):
        # 10^4 breakpoints give about 5e7 grid pairs; building them first
        # would take gigabytes
        rng = np.random.default_rng(91)
        f = StepFunction(np.sort(rng.uniform(-2.0, 2.0, 10_001)), rng.uniform(0.5, 2.0, 10_000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                resolve_family(FamilySpec(), f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


def tuple_enumeration(spec, f, extra_points=()):
    """The family as a sorted list of (left, right) tuples, enumerated one
    pair at a time into a set: the construction the endpoint arrays
    replaced."""
    hull = spec.hull or default_hull(f)
    bps = [b for b in (*f.breakpoints, *extra_points) if hull.left < b < hull.right]
    base = sorted({hull.left, hull.right, *bps})
    grid = None
    if spec.mode in ("auto", "breakpoint_pairs"):
        grid = list(base)
        if spec.mode == "auto":
            budget = min(spec.cap, 40_000)
            g = 0
            while g < min(spec.depth, 8):
                n_pts = len(base) + 2 ** (g + 1) + 1
                if n_pts * (n_pts - 1) // 2 + 3 * 2**spec.depth > budget:
                    break
                g += 1
            step = hull.length / (2**g)
            grid = sorted(set(grid) | {hull.left + j * step for j in range(2**g + 1)})
    if spec.mode == "dense":
        step = hull.length / spec.resolution
        grid = sorted(set(base) | {hull.left + j * step for j in range(spec.resolution + 1)})
    intervals = set()
    for i, a in enumerate(grid or []):
        for b in grid[i + 1 :]:
            intervals.add((a, b))
    if spec.mode in ("auto", "dyadic"):
        for d in range(spec.depth + 1):
            s = hull.length / (2**d)
            for j in range(2**d):
                intervals.add((hull.left + j * s, hull.left + (j + 1) * s))
            for j in range(2**d - 1):
                intervals.add((hull.left + j * s, hull.left + (j + 2) * s))
    return sorted(intervals)


def oscillation_oracle(b, q, p):
    """p-mean oscillation over one interval, summed cell by cell."""
    lens, vals = [], []
    for l, r, v in b.cells():
        lo, hi = max(l, q.left), min(r, q.right)
        if hi > lo:
            lens.append(hi - lo)
            vals.append(v)
    slack = q.length - math.fsum(lens)
    if slack > 0:
        lens.append(slack)
        vals.append(0.0)
    mean = math.fsum(le * v for le, v in zip(lens, vals)) / q.length
    return (math.fsum(le * abs(v - mean) ** p for le, v in zip(lens, vals)) / q.length) ** (1.0 / p)


class TestLevelSweep:
    """The family objectives from one level sweep against the per-interval
    functions, on every member of explicit families."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(92)
        randoms = [random_step(rng, max_cells=8) for _ in range(12)]
        signed = [
            StepFunction(f.breakpoints, np.asarray(f.values) * rng.choice([-1.0, 1.0], f.num_cells))
            for f in randoms[:6]
        ]
        fs = [CHI01, build_counterexample(8)] + randoms[6:] + signed
        specs = [FamilySpec(depth=d) for d in (3, 4, 5, 6)] + [FamilySpec(mode="dense", resolution=24)]
        return [(f, specs[i % len(specs)]) for i, f in enumerate(fs)]

    @staticmethod
    def long_cases():
        # 1000 unit cells alternating between two levels, so prefix sums
        # reach hundreds; the short members sit far along the support with
        # grid points off the breakpoints, many straddling a jump
        alt = np.arange(1000) % 2 == 0
        fs = [StepFunction(np.arange(1001.0), np.where(alt, 1.0, 3.0)),
              StepFunction(np.arange(1001.0), np.where(alt, 1.0, -2.5))]
        specs = [FamilySpec(mode="dense", resolution=12, hull=Interval(700.37, 703.11)),
                 FamilySpec(mode="dense", resolution=12, hull=Interval(998.93, 1001.4)),
                 FamilySpec(mode="dyadic", depth=6)]
        return [(f, spec) for f in fs for spec in specs]

    def test_llog_rows_match_one_window_solvers(self):
        for f, spec in self.cases() + self.long_cases():
            fam = resolve_family(spec, f)
            lux, func = _llog_rows(f, fam.lefts, fam.rights)
            for left, right, a, fn in zip(fam.lefts, fam.rights, lux, func):
                q = Interval(left, right)
                assert a == pytest.approx(luxemburg_average(f, q, LLOG), rel=1e-9, abs=0.0)
                assert fn == pytest.approx(llog_functional(f, q), rel=1e-12, abs=0.0)

    def test_oscillation_rows_match_cell_loop(self):
        for f, spec in self.cases() + self.long_cases():
            fam = resolve_family(spec, f)
            scale = f.sup_abs()
            for p in (1.0, 2.0, 3.0):
                osc = _oscillation_rows(f, fam.lefts, fam.rights, p)
                for left, right, o in zip(fam.lefts, fam.rights, osc):
                    want = oscillation_oracle(f, Interval(left, right), p)
                    assert o == pytest.approx(want, rel=1e-12, abs=1e-13 * scale)


class TestTwoLevelOscillation:
    def test_dominates_fine_grid(self):
        a = np.linspace(0.0, 1.0, 1_000_001)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, 8.0):
            fine = float(np.max(a * (1 - a) ** p + (1 - a) * a**p) ** (1.0 / p))
            got = _two_level_oscillation_sup(1.0, p)
            assert got >= fine


class TestMorrey:
    def test_chi_p1(self):
        est = morrey_norm(CHI01, 1.0, 0.5)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.upper_bound == pytest.approx(1.0, rel=1e-12)

    def test_chi_calibration_grid(self):
        # ||chi_Q||_{p, lam} = |Q|^(lam/p) exactly
        for size in (1.0, 4.0):
            f = StepFunction.indicator(0.0, size)
            for p in (1.0, 2.0):
                for lam in (0.25, 0.5, 0.75):
                    est = morrey_norm(f, p, lam)
                    want = size ** (lam / p)
                    assert est.value <= want * (1 + 1e-12)
                    assert est.upper_bound >= want * (1 - 1e-12)
                    assert est.value == pytest.approx(want, rel=1e-10)

    def test_zero(self):
        est = morrey_norm(StepFunction.zero(), 2.0, 0.5)
        assert est.value == 0.0 and est.upper_bound == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            morrey_norm(CHI01, 0.5, 0.5)
        with pytest.raises(ValueError):
            morrey_norm(CHI01, 1.0, 1.5)

    def test_value_reattained_and_homogeneous(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            f = random_step(rng)
            est = morrey_norm(f, 2.0, 0.5)
            assert est.value <= est.upper_bound * (1 + 1e-12)
            q = est.argmax_interval
            mass = sum(
                abs(v) ** 2 * (min(r, q.right) - max(l, q.left))
                for l, r, v in f.cells()
                if min(r, q.right) > max(l, q.left)
            )
            re = q.length ** ((0.5 - 1.0) / 2.0) * mass ** (1 / 2.0)
            assert re == pytest.approx(est.value, rel=1e-12)
            c = 3.0
            est2 = morrey_norm(f.scale(c), 2.0, 0.5)
            assert est2.value == pytest.approx(c * est.value, rel=1e-12)


def morrey_pair_oracle(f, p, lam):
    """The Morrey supremum over breakpoint pairs, one pair at a time."""
    b = np.asarray(f.breakpoints)
    w = np.abs(np.asarray(f.values)) ** p
    prefix = np.concatenate(([0.0], np.cumsum(w * np.diff(b))))
    best = 0.0
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            mass = prefix[j] - prefix[i]
            if mass > 0.0:
                best = max(best, (b[j] - b[i]) ** ((lam - 1.0) / p) * mass ** (1.0 / p))
    return best


def morrey_objective(f, p, lam, lefts, rights):
    """|Q|^((lam-1)/p) (int_Q |f|^p)^(1/p) per interval, from cell overlaps."""
    b = np.asarray(f.breakpoints)
    w = np.abs(np.asarray(f.values)) ** p
    lefts, rights = np.atleast_1d(lefts), np.atleast_1d(rights)
    mass = np.empty(len(lefts))
    for k in range(0, len(lefts), 64):  # 64 rows of overlaps at a time
        lo, hi = lefts[k : k + 64, None], rights[k : k + 64, None]
        mass[k : k + 64] = np.sum(w * np.maximum(np.minimum(b[1:], hi) - np.maximum(b[:-1], lo), 0.0), axis=1)
    return (rights - lefts) ** ((lam - 1.0) / p) * mass ** (1.0 / p)


class TestMorreyExact:
    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(70)
        # the supremum sits on the first cell, then on the last
        spike = StepFunction((0.0, 0.001, 1.0), (100.0, 1.0))
        spikes = [spike, StepFunction((-1.0, -0.001, 0.0), (1.0, 100.0))]
        for f in spikes + [random_step(rng, max_cells=40) for _ in range(12)]:
            for p in (1.0, 2.0, 3.0):
                for lam in (0.0, 0.25, 0.5, 1.0):
                    est = morrey_norm(f, p, lam)
                    assert est.family is None
                    assert est.value == est.upper_bound
                    assert est.value == morrey_pair_oracle(f, p, lam)
                    q = est.argmax_interval
                    assert q.left in f.breakpoints and q.right in f.breakpoints

    def test_no_family_reports_null(self):
        assert morrey_norm(CHI01, 2.0, 0.5).to_json_obj()["family"] is None

    def test_explicit_family_matches_interval_loop(self):
        rng = np.random.default_rng(71)
        spec = FamilySpec(depth=4)
        for _ in range(6):
            f = random_step(rng, max_cells=12)
            for p, lam in ((1.0, 0.5), (2.0, 0.25), (3.0, 0.75)):
                est = morrey_norm(f, p, lam, spec)
                fam = resolve_family(spec, f)
                b = np.asarray(f.breakpoints)
                w = np.abs(np.asarray(f.values)) ** p
                prefix = np.concatenate(([0.0], np.cumsum(w * np.diff(b))))

                def mass_to(x):
                    x = min(max(x, b[0]), b[-1])
                    i = min(max(int(np.searchsorted(b, x, side="right")) - 1, 0), len(w) - 1)
                    return prefix[i] + w[i] * (x - b[i])

                best = 0.0
                for left, right in zip(fam.lefts, fam.rights):
                    q = Interval(left, right)
                    mass = mass_to(q.right) - mass_to(q.left)
                    if mass > 0.0:
                        best = max(best, q.length ** ((lam - 1.0) / p) * mass ** (1.0 / p))
                assert est.family == spec
                assert est.value == best
                assert est.upper_bound == max(best, morrey_pair_oracle(f, p, lam))
                q = est.argmax_interval
                assert morrey_objective(f, p, lam, q.left, q.right)[0] == pytest.approx(est.value, rel=1e-12)

    def test_ten_thousand_cells(self):
        # the family-based norm raised above about 630 breakpoints; the
        # scan keeps O(m) memory, far below one m x m float array (800 MB)
        rng = np.random.default_rng(72)
        m = 10_000
        bp = np.sort(rng.uniform(-2.0, 2.0, m + 1))
        f = StepFunction(bp, np.exp(rng.uniform(np.log(2.0**-4), np.log(2.0**4), m)))
        assert f.num_cells == m
        tracemalloc.start()
        try:
            est = morrey_norm(f, 2.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert est.value == est.upper_bound
        q = est.argmax_interval
        assert morrey_objective(f, 2.0, 0.5, q.left, q.right)[0] == pytest.approx(est.value, rel=1e-12)
        lefts = rng.uniform(-2.5, 2.0, 1000)
        rights = lefts + np.exp(rng.uniform(np.log(1e-6), np.log(4.5), 1000))
        objective = morrey_objective(f, 2.0, 0.5, lefts, rights)
        assert np.all(objective <= est.upper_bound * (1 + 1e-12))


class TestZygmundMorrey:
    def test_chi_unit(self):
        est = zygmund_morrey_norm(CHI01, 0.5)
        assert est.value >= 1.0 - 1e-7
        assert est.upper_bound <= 2.0
        assert est.value <= est.upper_bound

    def test_chi_four(self):
        f = StepFunction.indicator(0.0, 4.0)
        est = zygmund_morrey_norm(f, 0.5)
        assert est.value >= 2.0 - 1e-6  # |Q0|^lam = 2 from Q0 itself
        assert est.upper_bound >= 2.0
        assert est.upper_bound <= 2.0 * 2.0  # within the factor-2 band

    def test_zero(self):
        est = zygmund_morrey_norm(StepFunction.zero(), 0.5)
        assert est.value == 0.0 and est.upper_bound == 0.0

    def test_weak_leq_strong(self):
        rng = np.random.default_rng(31)
        fam = FamilySpec(depth=6)
        for _ in range(8):
            f = random_step(rng, max_cells=6)
            s = zygmund_morrey_norm(f, 0.5, fam)
            w = weak_zygmund_morrey_norm(f, 0.5, fam)
            assert w.value <= s.value * (1 + 1e-6)

    def test_weak_chi(self):
        est = weak_zygmund_morrey_norm(CHI01, 0.5)
        assert est.value >= 1.0 - 1e-7

    def test_family_refinement_monotone(self):
        rng = np.random.default_rng(32)
        f = random_step(rng, max_cells=5)
        small = zygmund_morrey_norm(f, 0.5, FamilySpec(depth=3))
        big = zygmund_morrey_norm(f, 0.5, FamilySpec(depth=6))
        assert big.value >= small.value - 1e-9

    def test_homogeneity(self):
        rng = np.random.default_rng(33)
        f = random_step(rng, max_cells=5)
        fam = FamilySpec(depth=5)
        base = zygmund_morrey_norm(f, 0.5, fam)
        scaled = zygmund_morrey_norm(f.scale(5.0), 0.5, fam)
        assert scaled.value == pytest.approx(5.0 * base.value, rel=1e-6)

    def test_argmax_reattains_value(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            f = random_step(rng, max_cells=6)
            est = zygmund_morrey_norm(f, 0.5, FamilySpec(depth=5))
            q = est.argmax_interval
            again = q.length**0.5 * luxemburg_average(f, q, LLOG)
            assert again == pytest.approx(est.value, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            zygmund_morrey_norm(CHI01, 0.0)
        with pytest.raises(ValueError):
            weak_zygmund_morrey_norm(CHI01, 1.0)


def weak_pair_oracle(f, lam):
    """The weak Zygmund-Morrey supremum over breakpoint pairs, one interval
    at a time: the per-interval maximum the superlevel scan replaced."""
    b = f.breakpoints
    return max(
        Interval(b[i], b[j]).length ** lam * weak_llog_average(f, Interval(b[i], b[j]))
        for i in range(len(b))
        for j in range(i + 1, len(b))
    )


def weak_objective(f, lam, q):
    return q.length**lam * weak_llog_average(f, q)


class TestWeakZygmundExact:
    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(80)
        spikes = [
            StepFunction((0.0, 0.001, 1.0), (100.0, 1.0)),
            StepFunction((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 3.0, 1.0)),
        ]
        for f in spikes + [random_step(rng, max_cells=40) for _ in range(12)]:
            for lam in (0.25, 0.5, 0.75):
                est = weak_zygmund_morrey_norm(f, lam)
                assert est.family is None
                assert est.value == est.upper_bound
                assert est.value == pytest.approx(weak_pair_oracle(f, lam), rel=1e-12)
                q = est.argmax_interval
                assert weak_objective(f, lam, q) == pytest.approx(est.value, rel=1e-12)

    def test_no_family_reports_null(self):
        assert weak_zygmund_morrey_norm(CHI01, 0.5).to_json_obj()["family"] is None

    def test_explicit_family_matches_interval_loop(self):
        rng = np.random.default_rng(81)
        spec = FamilySpec(depth=4)
        for _ in range(6):
            f = random_step(rng, max_cells=10)
            for lam in (0.25, 0.5, 0.75):
                est = weak_zygmund_morrey_norm(f, lam, spec)
                fam = resolve_family(spec, f)
                loop = max(weak_objective(f, lam, Interval(l, r)) for l, r in zip(fam.lefts, fam.rights))
                assert est.family == spec
                assert est.value == pytest.approx(loop, rel=1e-12)
                assert est.upper_bound == weak_zygmund_morrey_norm(f, lam).value
                q = est.argmax_interval
                assert weak_objective(f, lam, q) == pytest.approx(est.value, rel=1e-12)

    def test_dominates_dense_wide_family(self):
        rng = np.random.default_rng(82)
        for _ in range(4):
            f = random_step(rng, max_cells=6)
            hull = f.support_hull().expanded(3.0 * f.support_hull().length)
            dense = FamilySpec(mode="dense", resolution=150, hull=hull)
            for lam in (0.25, 0.75):
                exact = weak_zygmund_morrey_norm(f, lam)
                rich = weak_zygmund_morrey_norm(f, lam, dense)
                assert rich.value <= exact.value * (1 + 1e-12)
                assert rich.upper_bound == exact.value

    def test_past_the_family_cap(self):
        # 640 cells: the default family would exceed its cap, which is why
        # the family-based norm raised on such inputs
        rng = np.random.default_rng(83)
        m = 640
        bp = np.sort(rng.uniform(-2.0, 2.0, m + 1))
        f = StepFunction(bp, np.exp(rng.uniform(np.log(2.0**-4), np.log(2.0**4), m)))
        assert f.num_cells == m
        with pytest.raises(ValueError, match="cap"):
            resolve_family(FamilySpec(), f)
        est = weak_zygmund_morrey_norm(f, 0.5)
        assert est.value == est.upper_bound
        assert weak_objective(f, 0.5, est.argmax_interval) == pytest.approx(est.value, rel=1e-12)
        for left in rng.uniform(-2.5, 2.0, 200):
            q = Interval(left, left + float(np.exp(rng.uniform(np.log(1e-4), np.log(4.5)))))
            assert weak_objective(f, 0.5, q) <= est.upper_bound * (1 + 1e-12)


class TestPairKernelBlocks:
    """The pair kernel over blocks of one row, of a few rows cut mid-row,
    and the default size give the same value and pair, the pair oracle's;
    in ATTAINED a row's maximum equals its row bound."""

    ATTAINED = [StepFunction.indicator(0.0, 1.0, 3.0), StepFunction((0.0, 1.0, 2.0), (1.0, 5.0))]

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        # at lam = 1/2 each of its two levels gives the weak norm 2
        tie = [StepFunction((0.0, 1.0, 4.0), (2.0, 1.0))]
        return self.ATTAINED + tie + [random_step(rng, max_cells=30) for _ in range(8)]

    @pytest.mark.parametrize("block", [1, 5])
    def test_morrey(self, monkeypatch, block):
        for f in self.inputs(85):
            for p in (1.0, 2.0):
                for lam in (0.25, 0.5, 1.0):
                    want = morrey_norm(f, p, lam)
                    with monkeypatch.context() as m:
                        m.setattr(stepfn, "_BLOCK", block)
                        est = morrey_norm(f, p, lam)
                    assert est.value == want.value == morrey_pair_oracle(f, p, lam)
                    assert est.argmax_interval == want.argmax_interval

    @pytest.mark.parametrize("block", [1, 5])
    def test_weak(self, monkeypatch, block):
        for f in self.inputs(86):
            for lam in (0.25, 0.5, 0.75):
                want = weak_zygmund_morrey_norm(f, lam)
                with monkeypatch.context() as m:
                    m.setattr(stepfn, "_BLOCK", block)
                    est = weak_zygmund_morrey_norm(f, lam)
                assert est.value == want.value == pytest.approx(weak_pair_oracle(f, lam), rel=1e-12)
                assert est.argmax_interval == want.argmax_interval


def psi_on_grid(lam, s):
    """psi(c) = c^lam / k at c = s e^(s-1), where k = e^(s-1) solves
    k (1 + log k) = c; s = 1 + log k runs over a fine grid, so c does too."""
    return np.exp(lam * (np.log(s) + s - 1.0) - (s - 1.0))


class TestPsiMax:
    S = 1.0 + np.linspace(0.0, 300.0, 600_001)

    def test_closed_form(self):
        for lam in (0.55, 0.6, 0.75, 0.9, 0.99):
            want = math.exp(1.0 - 2.0 * lam) * (lam / (1.0 - lam)) ** lam
            assert _psi_max(lam) == pytest.approx(want, rel=1e-12)
            psi = psi_on_grid(lam, self.S)
            assert psi.max() <= want * (1 + 1e-12)
            assert psi.max() >= want * (1 - 1e-7)

    def test_one_at_most_half(self):
        for lam in (0.1, 0.25, 0.5):
            assert _psi_max(lam) == 1.0
            assert psi_on_grid(lam, self.S).max() <= 1.0 + 1e-12


class TestCharacterization:
    def test_chi(self):
        est = characterization_functional(CHI01, 0.5)
        assert est.value >= 1.0 - 1e-9
        assert est.upper_bound >= est.value

    def test_zero(self):
        est = characterization_functional(StepFunction.zero(), 0.5)
        assert est.value == 0.0

    def test_sandwich_with_zygmund(self):
        rng = np.random.default_rng(34)
        fam = FamilySpec(depth=6)
        for _ in range(8):
            f = random_step(rng, max_cells=6)
            zm = zygmund_morrey_norm(f, 0.5, fam)
            ch = characterization_functional(f, 0.5, fam)
            assert zm.value <= ch.value * (1 + 1e-6)
            assert ch.value <= 2.0 * zm.value * (1 + 1e-6)


class TestBMO:
    def test_constant_vanishes(self):
        # a symbol constant on the scan hull has zero oscillation there;
        # the step universe has no globally constant nonzero function, so
        # the hull is kept inside the plateau
        b = StepFunction.indicator(-3.0, 3.0, 7.0)
        est = bmo_seminorm(b, FamilySpec(hull=Interval(-2.0, 2.0)))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert bmo_seminorm(StepFunction.zero()).value == 0.0

    def test_chi_half(self):
        # oscillation of an indicator over Q with overlap fraction a is
        # 2a(1-a); brute force put the sup at 1/2
        est = bmo_seminorm(CHI01, FamilySpec(hull=Interval(-2.0, 2.0)))
        assert est.value == pytest.approx(0.5, rel=1e-9)
        assert est.upper_bound >= 0.5

    def test_step_pair(self):
        b = StepFunction((0.0, 1.0, 2.0), (1.0, -1.0))
        est = bmo_seminorm(b, FamilySpec(hull=Interval(-2.0, 4.0)))
        assert est.value == pytest.approx(1.0, rel=1e-9)

    def test_p2_chi(self):
        est = bmo_p_seminorm(CHI01, 2.0, FamilySpec(hull=Interval(-2.0, 2.0)))
        assert est.value == pytest.approx(0.5, rel=1e-9)

    def test_p1_equals_seminorm(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            b = random_step(rng, max_cells=5)
            fam = FamilySpec(depth=5)
            assert bmo_p_seminorm(b, 1.0, fam).value == bmo_seminorm(b, fam).value

    def test_domain(self):
        with pytest.raises(ValueError):
            bmo_p_seminorm(CHI01, 0.5)


class TestWeakTypeMorreyCheck:
    def test_zero(self):
        z = StepFunction.zero()
        from morreylab.stepfn import EnvelopePair

        env = EnvelopePair(z, z)
        assert weak_type_morrey_check(z, 0.5, env) == 0.0

    def test_chi_finite_and_scale_invariant(self):
        env = maximal_envelope(CHI01, RefinePolicy(tol=0.02, max_depth=14))
        c1 = weak_type_morrey_check(CHI01, 0.5, env)
        assert c1 > 0.0 and math.isfinite(c1)
        f2 = CHI01.scale(2.0)
        env2 = maximal_envelope(f2, RefinePolicy(tol=0.02, max_depth=14))
        c2 = weak_type_morrey_check(f2, 0.5, env2)
        assert c2 == pytest.approx(c1, rel=1e-9)


    def test_matches_interval_level_oracle(self):
        # every interval between breakpoints of the lower envelope, every
        # jump level, with the strict superlevel set
        rng = np.random.default_rng(84)
        for _ in range(6):
            f = random_step(rng, max_cells=6)
            lower = random_step(rng, max_cells=10)
            got = weak_type_morrey_check(f, 0.5, EnvelopePair(lower, lower))
            norm = morrey_norm(f, 1.0, 0.5).upper_bound
            cells = list(lower.cells())
            best = 0.0
            b = lower.breakpoints
            for i in range(len(b)):
                for j in range(i + 1, len(b)):
                    for t in set(lower.values):
                        meas = sum(min(r, b[j]) - max(l, b[i]) for l, r, v in cells if v > t and min(r, b[j]) > max(l, b[i]))
                        best = max(best, t * meas / ((b[j] - b[i]) ** 0.5 * norm))
            assert got == pytest.approx(best, rel=1e-12)


class TestUpperBoundSoundness:
    """The certified upper bound must dominate the objective on families far
    richer than the one it was computed from."""

    def test_zygmund_upper_dominates_rich_family(self):
        rng = np.random.default_rng(60)
        for _ in range(4):
            f = random_step(rng, max_cells=5)
            est = zygmund_morrey_norm(f, 0.5, FamilySpec(depth=6))
            hull = f.support_hull().expanded(3.0 * f.support_hull().length)
            rich = zygmund_morrey_norm(
                f, 0.5, FamilySpec(mode="dense", resolution=150, hull=hull)
            )
            assert rich.value <= est.upper_bound * (1 + 1e-9)

    def test_weak_upper_dominates_rich_family(self):
        rng = np.random.default_rng(61)
        f = random_step(rng, max_cells=5)
        est = weak_zygmund_morrey_norm(f, 0.7, FamilySpec(depth=6))
        hull = f.support_hull().expanded(3.0 * f.support_hull().length)
        rich = weak_zygmund_morrey_norm(
            f, 0.7, FamilySpec(mode="dense", resolution=150, hull=hull)
        )
        assert rich.value <= est.upper_bound * (1 + 1e-9)

    def test_bmo_upper_dominates_rich_family(self):
        rng = np.random.default_rng(62)
        for _ in range(3):
            b = random_step(rng, max_cells=5)
            est = bmo_seminorm(b, FamilySpec(depth=6))
            hull = b.support_hull().expanded(3.0 * b.support_hull().length)
            rich = bmo_seminorm(b, FamilySpec(mode="dense", resolution=200, hull=hull))
            assert rich.value <= est.upper_bound * (1 + 1e-9)

    def test_truncated_hull_gives_infinite_upper(self):
        f = StepFunction.indicator(0.0, 1.0, 2.0)
        est = zygmund_morrey_norm(f, 0.5, FamilySpec(hull=Interval(0.2, 0.8)))
        assert est.upper_bound == math.inf


class TestNormEstimate:
    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            NormEstimate(2.0, 1.0, None, None)

    def test_json(self):
        est = morrey_norm(CHI01, 1.0, 0.5)
        obj = est.to_json_obj()
        assert set(obj) == {"value", "upper_bound", "argmax", "family"}
