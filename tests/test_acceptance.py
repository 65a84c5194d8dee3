"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a PASS line on success (run with -s to see them)."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from morreylab.experiments import (
    cb_chi_lower_check,
    corpus,
    pointwise_domination_suite,
    random_step_function,
    reevaluate_constant,
    standard_constant_reports,
    suite_counterexample,
)
from morreylab.maxops import (
    maximal,
    maximal_envelope,
)
from morreylab.norms import FamilySpec, bmo_seminorm, morrey_norm
from morreylab.orlicz import (
    LLOG,
    gauge_average,
    holder_check,
    llog_functional,
    luxemburg_average,
    weak_llog_average,
)
from morreylab.radial import RadialProfile, hardy_reduction_check, zm_radial_functional
from morreylab.stepfn import Interval, StepFunction
from oracles import brute_force_maximal

EXPECTED = json.loads((Path(__file__).parent / "expected_constants.json").read_text())
CHI01 = StepFunction.indicator(0.0, 1.0)


def test_criterion_01_exact_maximal_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    # unit-scale inputs: the 1e-12 absolute tolerance is meaningful only
    # when sup |f| is 1 (averages up to 2^8 put one ulp above it)
    fs = [
        (lambda g: g.scale(1.0 / g.sup_abs()))(random_step_function(rng, 20, signed=False))
        for _ in range(200)
    ]
    for i, f in enumerate(fs):
        hull = f.support_hull()
        xs = rng.uniform(hull.left - 1.0, hull.right + 1.0, 100)
        for x in xs:
            exact = maximal(f, float(x))
            rough = brute_force_maximal(f, float(x), samples=10_000, seed=i)
            assert exact >= rough - 1e-12
    # densified sampling converges to the exact value on unit-scale inputs
    for i, f in enumerate(fs[:5]):
        hull = f.support_hull()
        for x in (hull.left + 0.3 * hull.length, hull.right + 0.5):
            exact = maximal(f, float(x))
            dense = brute_force_maximal(
                f, float(x), samples=1_000_000, seed=1000 + i, zoom_rounds=16
            )
            assert abs(exact - dense) <= 1e-6 * max(1.0, exact)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS - exact maximal beats 10^4-sample brute force on "
          f"200x100 points, 10^6-sample gap <= 1e-6, in {elapsed:.1f}s")


def test_criterion_02_indicator_closed_forms():
    for x in np.linspace(0.0, 1.0, 1000):
        assert maximal(CHI01, float(x)) == pytest.approx(1.0, abs=1e-12)
    for x in np.linspace(1.0 + 1e-9, 50.0, 1000):
        assert maximal(CHI01, float(x)) == pytest.approx(1.0 / x, rel=1e-12)
    for x in np.linspace(-49.0, -1e-9, 1000):
        assert maximal(CHI01, float(x)) == pytest.approx(1.0 / (1.0 - x), rel=1e-12)
    print("ACCEPTANCE 2: PASS - M(chi) closed forms hold at 3000 points to 1e-12")


def test_criterion_03_luxemburg_calibration_and_sandwich():
    for size in (0.25, 1.0, 3.0):
        q = Interval(0.0, size)
        got = luxemburg_average(StepFunction.indicator(0.0, size), q, LLOG)
        assert got == pytest.approx(1.0, abs=1e-8)
    rng = np.random.default_rng(103)
    worst_resid = 0.0
    for _ in range(200):
        f = random_step_function(rng, 16, signed=False)
        for _ in range(20):
            a = float(rng.uniform(-0.5, 0.8))
            q = Interval(a, a + float(rng.uniform(0.05, 1.6)))
            lux = luxemburg_average(f, q, LLOG)
            func = llog_functional(f, q)
            if lux == 0.0:
                assert func == 0.0
                continue
            worst_resid = max(worst_resid, abs(gauge_average(f, q, LLOG, lux) - 1.0))
            assert lux <= func * (1.0 + 1e-7)
            assert func <= 2.0 * lux * (1.0 + 1e-7)
    assert worst_resid <= 1e-7
    print(f"ACCEPTANCE 3: PASS - unit calibration, fixed-point residual "
          f"{worst_resid:.2e} <= 1e-7, factor-2 sandwich on 200x20 windows")


def test_criterion_04_weak_average_calibration():
    for size in (0.25, 1.0, 3.0):
        q = Interval(0.0, size)
        got = weak_llog_average(StepFunction.indicator(0.0, size), q)
        assert got == pytest.approx(1.0, abs=1e-8)
    print("ACCEPTANCE 4: PASS - weak log-average of the indicator over its "
          "own interval is 1 to 1e-8")


def test_criterion_05_generalized_holder():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        f = random_step_function(rng, 12, signed=False)
        h = random_step_function(rng, 12, signed=False)
        a = float(rng.uniform(-1.0, 0.9))
        q = Interval(a, a + float(rng.uniform(0.1, 2.5)))
        lhs, rhs = holder_check(f, h, q)
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-12
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    print(f"ACCEPTANCE 5: PASS - generalized Holder holds on 200 pairs "
          f"(worst ratio {worst:.6f})")


def test_criterion_06_pointwise_dominations():
    rng = np.random.default_rng(106)
    for i in range(100):
        b = random_step_function(rng, 8, signed=(i % 2 == 0))
        f = random_step_function(rng, 10, signed=False)
        pts = list(rng.uniform(-0.5, 1.5, 50))
        res = pointwise_domination_suite(b, f, pts, with_c16=False)
        assert res.ok, res.violations[:2]
    print("ACCEPTANCE 6: PASS - commutator dominations hold exactly on "
          "100 pairs x 50 points")


def test_criterion_07_radial_closed_form():
    est = zm_radial_functional(RadialProfile(CHI01, 1), 0.5)
    want = 2.0 * math.exp(-0.5)
    assert est.value == pytest.approx(want, abs=1e-6)
    print(f"ACCEPTANCE 7: PASS - radial functional of the unit profile is "
          f"{est.value:.7f} = 2 e^(-1/2) within 1e-6")


def test_criterion_08_hardy_reduction_constant():
    rng = np.random.default_rng(108)
    combos = [(n, frac * n) for n in (1, 2, 3) for frac in (0.25, 0.5, 0.75)]
    done = 0
    while done < 100:
        n, lam = combos[done % len(combos)]
        k = int(rng.integers(1, 7))
        radii = np.sort(rng.uniform(0.05, 3.0, k))
        vals = np.sort(np.exp(rng.uniform(-2.0, 2.0, k)))[::-1]
        p = RadialProfile(
            StepFunction(np.concatenate(([0.0], radii)), vals), n, nonincreasing=True
        )
        lhs, rhs, bound = hardy_reduction_check(p, lam)
        assert lhs <= bound * (1.0 + 1e-9)
        done += 1
    print("ACCEPTANCE 8: PASS - averaging reduction with constant 1/(n-lambda) "
          "holds on 100 profiles across n in {1,2,3}")


def test_criterion_09_counterexample_divergence():
    start = time.perf_counter()
    rep = suite_counterexample((8, 16, 32, 64), 0.5)
    elapsed = time.perf_counter() - start
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["input_norms_stable"]["ok"], by_name["input_norms_stable"]
    assert by_name["lower_bound_grows"]["ok"], by_name["lower_bound_grows"]
    assert by_name["growth_slope"]["ok"], by_name["growth_slope"]
    assert by_name["mf_window_profile"]["ok"], by_name["mf_window_profile"]
    assert elapsed < 300.0
    print(f"ACCEPTANCE 9: PASS - bounded input norms (spread "
          f"{by_name['input_norms_stable']['spread']:.3f}) against lower-bound "
          f"growth {by_name['lower_bound_grows']['growth']:.2f} and slope "
          f"{by_name['growth_slope']['slope']:.2f}, in {elapsed:.1f}s")


def test_criterion_10_morrey_indicator_calibration():
    for size in (1.0, 4.0):
        f = StepFunction.indicator(0.0, size)
        for p in (1.0, 2.0):
            for lam in (0.25, 0.5, 0.75):
                est = morrey_norm(f, p, lam)
                want = size ** (lam / p)
                assert est.value <= want * (1.0 + 1e-12)
                assert est.upper_bound >= want * (1.0 - 1e-12)
    print("ACCEPTANCE 10: PASS - Morrey brackets contain |Q|^(lambda/p) on the "
          "{1,2}x{0.25,0.5,0.75}x{1,4} grid")


def test_criterion_11_weak_type_constants_locked():
    reports = standard_constant_reports()
    assert set(reports) == set(EXPECTED)
    for key, rep in reports.items():
        want = EXPECTED[key]["constant"]
        assert math.isfinite(rep.constant)
        assert rep.constant == pytest.approx(want, rel=1e-9), key
    # witnesses reproduce their constants
    for key in ("weak_type_M2", "weak_type_Cb", "weak_type_MbCommutator"):
        from morreylab.experiments import ConstantReport

        exp = EXPECTED[key]
        rep = ConstantReport(exp["inequality"], exp["corpus"], exp["constant"], exp["witness"])
        assert reevaluate_constant(rep) == pytest.approx(exp["constant"], rel=1e-9)
    # dilation sanity: both sides scale linearly
    from morreylab.experiments import LOOSE, _zygmund_integral
    from morreylab.maxops import iterated_maximal
    from morreylab.stepfn import distribution

    f = corpus(11, 2, 8, False)[1]
    t = 0.75
    base = distribution(iterated_maximal(f, LOOSE).lower, t) / _zygmund_integral(f, t)
    g = f.dilate(4.0)
    scaled = distribution(iterated_maximal(g, LOOSE).lower, t) / _zygmund_integral(g, t)
    assert scaled == pytest.approx(base, rel=1e-9)
    print("ACCEPTANCE 11: PASS - weak-type constants finite, within the 5% "
          "regression lock, witnesses reproduce, dilation invariant")


def test_criterion_12_commutator_indicator_lower_bound():
    rng = np.random.default_rng(112)
    for _ in range(100):
        b = random_step_function(rng, 10, signed=True)
        left = float(rng.uniform(0.0, 0.5))
        q0 = Interval(left, left + float(rng.uniform(0.1, 0.5)))
        lhs, rhs = cb_chi_lower_check(b, q0)
        assert lhs >= rhs - 1e-9
    print("ACCEPTANCE 12: PASS - indicator lower bound for the maximal "
          "commutator holds on 100 random pairs")


def test_criterion_13_bmo_calibration():
    est = bmo_seminorm(CHI01, FamilySpec(hull=Interval(-2.0, 2.0)))
    assert est.value <= 0.5 * (1.0 + 1e-9)
    assert est.upper_bound >= 0.5 * (1.0 - 1e-9)
    assert est.value == pytest.approx(0.5, rel=1e-9)
    print("ACCEPTANCE 13: PASS - BMO seminorm of the unit indicator brackets 1/2")
