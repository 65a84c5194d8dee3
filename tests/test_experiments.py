import json
import math
from pathlib import Path

import numpy as np
import pytest

from morreylab.experiments import (
    CONSTANTS,
    CounterexampleSpec,
    build_counterexample,
    cb_chi_lower_check,
    corpus,
    counterexample_mf_window_deviation,
    m2_lower_bound,
    pointwise_domination_suite,
    random_step_function,
    reevaluate_constant,
    standard_constant_reports,
    suite_counterexample,
    suite_holder,
    suite_pointwise,
    suite_radial,
    suite_weaktype,
)
from morreylab.norms import zygmund_morrey_norm
from morreylab.stepfn import Interval, StepFunction

EXPECTED = json.loads((Path(__file__).parent / "expected_constants.json").read_text())


class TestCounterexampleConstruction:
    def test_k1_is_unit_bump(self):
        assert build_counterexample(1) == StepFunction.indicator(-1.0, 1.0)

    def test_k2_hump_position(self):
        f = build_counterexample(2)
        a1 = math.log(1.0 + math.e) ** 2
        assert a1 == pytest.approx(1.7246562599032103, abs=1e-12)
        assert f(a1 + 0.5) == 1.0
        assert f(-a1 - 0.5) == 1.0
        assert f(a1 - 0.1) == 0.0

    def test_humps_disjoint_unit_length(self):
        spec = CounterexampleSpec(64)
        spec.validate()
        for k in range(64):
            assert spec.half_gap(k) > 0.0
        f = build_counterexample(64)
        mass = sum((r - l) for l, r, v in f.cells() if v == 1.0)
        assert mass == pytest.approx(2.0 * 64, rel=1e-12)

    def test_upper_monotone_in_k(self):
        a = zygmund_morrey_norm(build_counterexample(2), 0.5).value
        b = zygmund_morrey_norm(build_counterexample(4), 0.5).value
        assert b >= a - 1e-9

    def test_k1_bracket_near_sqrt2(self):
        # single bump on [-1, 1]: the interval itself contributes
        # |Q0|^(1/2) * 1 = sqrt 2, the indicator calibration scale
        est = zygmund_morrey_norm(build_counterexample(1), 0.5)
        assert est.value >= math.sqrt(2.0) - 1e-6
        assert est.upper_bound >= est.value
        assert est.value <= 2.0 * math.sqrt(2.0)


class TestLowerBoundChain:
    def test_k2_formula(self):
        # chain value at k = 2: a_2^(lam-1) * (ln^2 m_1 - 1)/2
        spec = CounterexampleSpec(2)
        m1 = spec.half_gap(1)
        want = spec.hump_start(2) ** (-0.5) * (math.log(m1) ** 2 - 1.0) / 2.0
        assert m2_lower_bound(2) == pytest.approx(want, rel=1e-12)

    def test_growth_and_monotone(self):
        lows = [m2_lower_bound(K) for K in (8, 16, 32, 64)]
        assert all(a <= b for a, b in zip(lows, lows[1:]))
        assert lows[-1] / lows[0] >= 1.5

    def test_domain(self):
        with pytest.raises(ValueError):
            m2_lower_bound(1)

    def test_mf_window_profile_exact(self):
        assert counterexample_mf_window_deviation(8) <= 1e-9


class TestWeakTypeConstants:
    def test_m2_report_locked(self):
        from morreylab.experiments import _reports

        rep = _reports({"weak_type_M2": CONSTANTS["weak_type_M2"]})["weak_type_M2"]
        want = EXPECTED["weak_type_M2"]["constant"]
        assert rep.constant == pytest.approx(want, rel=1e-9)

    def test_witness_reevaluates(self):
        for key in (
            "weak_type_M2", "weak_type_Cb", "weak_type_MbCommutator", "weak_morrey_M2", "commutator_vs_bmo_m2"
        ):
            exp = EXPECTED[key]
            from morreylab.experiments import ConstantReport

            rep = ConstantReport(
                exp["inequality"], exp["corpus"], exp["constant"], exp["witness"]
            )
            again = reevaluate_constant(rep)
            assert again == pytest.approx(exp["constant"], rel=1e-9)

    def test_unknown_op_rejected(self):
        from morreylab.experiments import _witness_lower

        with pytest.raises(ValueError):
            _witness_lower("M3", corpus(1, 2, 3, False)[0], None)

    def test_dilation_invariance(self):
        # both sides of the weak-type inequality scale linearly under
        # dilation, so the best ratio is unchanged
        from morreylab.experiments import LOOSE, _zygmund_integral
        from morreylab.maxops import iterated_maximal
        from morreylab.stepfn import distribution

        f = corpus(11, 3, 8, False)[2]
        t = 1.25
        base = distribution(iterated_maximal(f, LOOSE).lower, t) / _zygmund_integral(f, t)
        g = f.dilate(4.0)
        scaled = distribution(iterated_maximal(g, LOOSE).lower, t) / _zygmund_integral(g, t)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_zero_envelope_contributes_zero(self):
        from morreylab.experiments import _best_level_ratio

        ratio, level = _best_level_ratio(StepFunction.zero(), StepFunction.indicator(0, 1), 1.0)
        assert ratio == 0.0

    def test_m2_indicator_level_ratio_finite(self):
        from morreylab.experiments import LOOSE, _zygmund_integral
        from morreylab.maxops import iterated_maximal
        from morreylab.stepfn import distribution

        chi = StepFunction.indicator(0.0, 1.0)
        lower = iterated_maximal(chi, LOOSE).lower
        t = 0.25
        meas = distribution(lower, t)
        assert meas > 0.0
        ratio = meas / _zygmund_integral(chi, t)
        assert math.isfinite(ratio) and ratio > 0.0


class TestWeakMorreyConstant:
    def test_homogeneity_of_ratio(self):
        from morreylab.experiments import LOOSE
        from morreylab.maxops import iterated_maximal
        from morreylab.norms import weak_zygmund_morrey_norm, zygmund_morrey_norm

        f = corpus(11, 1, 6, False)[0]
        def ratio(g):
            lower = iterated_maximal(g, LOOSE).lower
            return (
                weak_zygmund_morrey_norm(lower, 0.5).value
                / zygmund_morrey_norm(g, 0.5).value
            )

        assert ratio(f.scale(2.0)) == pytest.approx(ratio(f), rel=1e-6)


class TestDominations:
    def test_constant_symbol_all_zero(self):
        b = StepFunction.indicator(-5.0, 5.0, 2.0)
        f = StepFunction.indicator(0.0, 1.0)
        res = pointwise_domination_suite(b, f, [0.1, 0.5, 0.9], with_c16=False)
        assert res.ok

    def test_random_pairs_hold(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            b = random_step_function(rng, 6, signed=True)
            f = random_step_function(rng, 8, signed=False)
            pts = list(rng.uniform(-0.5, 1.5, 25))
            res = pointwise_domination_suite(b, f, pts, with_c16=False)
            assert res.ok, res.violations[:3]

    def test_c16_reported(self):
        rng = np.random.default_rng(51)
        b = random_step_function(rng, 5, signed=True)
        f = random_step_function(rng, 6, signed=False)
        res = pointwise_domination_suite(b, f, [0.2, 0.5, 0.8])
        assert res.c16 is None or math.isfinite(res.c16)

    def test_c16_at_the_hull_right_end(self):
        # the upper side of M^2 f at default_hull(f).right = 2 is read at
        # the point, not off a step function that ends there
        f = StepFunction.indicator(0.0, 1.0)
        b = StepFunction((0.0, 0.5, 1.0), (1.0, -1.0))
        res = pointwise_domination_suite(b, f, [2.0])
        assert type(res.c16) is float
        assert res.c16 == pytest.approx(0.58174, rel=1e-5)
        assert res.c16_witness == {"x": 2.0}


class TestCbChiLower:
    def test_constant_symbol(self):
        b = StepFunction.indicator(-2.0, 2.0, 3.0)
        lhs, rhs = cb_chi_lower_check(b, Interval(0.0, 1.0))
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert lhs >= -1e-12

    def test_half_indicator(self):
        # oscillation of chi_[0, 0.5] over (0,1) is 1/2, so rhs = 1/4
        b = StepFunction.indicator(0.0, 0.5)
        lhs, rhs = cb_chi_lower_check(b, Interval(0.0, 1.0))
        assert rhs == pytest.approx(0.25, rel=1e-12)
        assert lhs >= rhs - 1e-9

    def test_random_suite(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            b = random_step_function(rng, 8, signed=True)
            left = float(rng.uniform(0.0, 0.5))
            q0 = Interval(left, left + float(rng.uniform(0.1, 0.5)))
            lhs, rhs = cb_chi_lower_check(b, q0)
            assert lhs >= rhs - 1e-9


class TestRegressionLocks:
    def test_all_locked_constants_within_drift(self):
        reports = standard_constant_reports()
        assert set(reports) == set(EXPECTED)
        for key, rep in reports.items():
            want = EXPECTED[key]["constant"]
            assert rep.constant == pytest.approx(want, rel=1e-9), key

    @pytest.mark.parametrize("signed", [False, True])
    def test_draws_keep_their_stream(self, signed):
        # the corpora and every locked constant read these bits: the draws
        # equal the array-sorted formula below, value for value
        def formula(rng, max_cells):
            n = int(rng.integers(1, max_cells + 1))
            bp = np.sort(rng.uniform(0.0, 1.0, n + 1))
            while not (np.diff(bp) > 0).all():
                bp = np.sort(rng.uniform(0.0, 1.0, n + 1))
            vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), n))
            if signed:
                vals = vals * rng.choice([-1.0, 1.0], n)
            return StepFunction(bp.tolist(), vals.tolist())

        for seed in range(20):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for max_cells in (1, 5, 12, 24) * 8:
                f, g = random_step_function(got, max_cells, signed), formula(want, max_cells)
                assert (f.breakpoints, f.values) == (g.breakpoints, g.values)

    def test_records_match_the_lock_file(self):
        # the lock file stores each record's inequality and corpus as the
        # registry draws it; only the four bands and the BMO-scaled pointwise
        # constant are observed rather than certified
        assert set(CONSTANTS) == set(EXPECTED)
        for key, record in CONSTANTS.items():
            assert (record.inequality, record.corpus) == (EXPECTED[key]["inequality"], EXPECTED[key]["corpus"]), key
        observed = {key for key, record in CONSTANTS.items() if record.kind != "certified"}
        assert observed == {
            "commutator_vs_bmo_m2",
            "orlicz_vs_m2_band_lo",
            "orlicz_vs_m2_band_hi",
            "radial_vs_interval_band_lo",
            "radial_vs_interval_band_hi",
        }

    def test_expected_file_structure(self):
        for key, obj in EXPECTED.items():
            assert {"inequality", "corpus", "constant", "witness"} <= set(obj)
            assert math.isfinite(obj["constant"])


class TestSuites:
    def test_pointwise(self):
        rep = suite_pointwise(seed=7, pairs=5, points=8)
        assert rep["ok"], [c for c in rep["checks"] if not c["ok"]][:3]

    def test_holder(self):
        rep = suite_holder(seed=7, n_pairs=50)
        assert rep["ok"]

    def test_radial(self):
        rep = suite_radial(seed=7, count=18)
        assert rep["ok"]

    def test_counterexample_small(self):
        rep = suite_counterexample((4, 8), 0.5)
        # growth checks are calibrated for K up to 64; here just structure
        assert {"rows", "checks", "ok"} <= set(rep)
        assert [r["K"] for r in rep["rows"]] == [4, 8]

    def test_weaktype(self):
        rep = suite_weaktype(seed=7)
        assert rep["ok"], [c for c in rep["checks"] if not c["ok"]][:3]
