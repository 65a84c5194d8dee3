import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from morreylab import cli, radial
from morreylab.cli import main
from morreylab.radial import RadialProfile
from morreylab.stepfn import StepFunction


@pytest.fixture
def chi01_file(tmp_path):
    path = tmp_path / "chi01.json"
    path.write_text(StepFunction.indicator(0.0, 1.0).to_json())
    return str(path)


@pytest.fixture
def chi04_file(tmp_path):
    path = tmp_path / "chi04.json"
    path.write_text(StepFunction.indicator(0.0, 4.0).to_json())
    return str(path)


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.json"
    obj = {
        "dimension": 1,
        "profile": {"breakpoints": [0.0, 1.0], "values": [1.0]},
        "nonincreasing": True,
    }
    path.write_text(json.dumps(obj))
    return str(path)


class TestMaxfn:
    def test_closed_form_point(self, chi01_file, capsys):
        assert main(["maxfn", "--input", chi01_file, "--op", "M", "--at", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x,value"
        x, v = out[1].split(",")
        assert float(v) == pytest.approx(0.5, rel=1e-12)

    def test_m2_bracket(self, chi01_file, capsys):
        assert main(["maxfn", "--input", chi01_file, "--op", "M2", "--at", "0.5", "--tol", "0.05"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        x, lo, hi = (float(t) for t in line.split(","))
        assert lo <= 1.0 + 1e-9
        assert hi >= 1.0 - 1e-9
        assert lo <= hi

    def test_m2_notes_cells_open_at_float_resolution(self, chi01_file, capsys, monkeypatch):
        argv = ["maxfn", "--input", chi01_file, "--op", "M2", "--at", "0.5", "--tol", "0.05"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        real = cli.iterated_maximal_at
        monkeypatch.setattr(cli, "iterated_maximal_at", lambda *a: (*real(*a)[:2], 3))
        assert main(argv) == 0
        noted = capsys.readouterr()
        assert noted.out == plain.out
        assert noted.err == "note: 3 envelope cells reached float resolution above --tol\n"

    def test_m2_brackets_within_tol(self, m2_corpus, tmp_path, capsys):
        # the m2-bracket corpus at its grid: every printed bracket meets
        # --tol, and no cell is left open, so no note is printed
        for i, f in enumerate(m2_corpus):
            path = tmp_path / f"f{i:02d}.json"
            path.write_text(f.to_json())
            assert main(["maxfn", "--input", str(path), "--op", "M2", "--tol", "0.05", "--grid=-0.5:1.5:17"]) == 0
            out = capsys.readouterr()
            assert out.err == ""
            rows = [[float(t) for t in ln.split(",")] for ln in out.out.splitlines()[1:]]
            assert len(rows) == 17
            assert all(0.0 < lo <= hi and hi - lo <= 0.05 * hi for _, lo, hi in rows)

    def test_m2_bracket_never_inverted(self, tmp_path, capsys):
        # lower and upper close on a plateau near x = -0.8 here, and used
        # to print as [38.74128976866414, 38.74128976866413]
        rng = np.random.default_rng(20150416)
        for _ in range(2):
            bp = np.sort(rng.uniform(0.0, 1.0, 11))
            vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), 10))
        f = StepFunction(-bp[::-1], vals[::-1])
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        argv = ["maxfn", "--input", str(path), "--op", "M2", "--tol", "0.05", "--grid=-1.5:0.5:17"]
        assert main(argv) == 0
        rows = [[float(t) for t in ln.split(",")] for ln in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 17
        assert all(0.0 <= lo <= hi for _, lo, hi in rows)
        assert rows[5][1:] == pytest.approx([38.7412897686641] * 2, rel=1e-14)

    def test_empty_function(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(StepFunction.zero().to_json())
        assert main(["maxfn", "--input", str(path), "--op", "M", "--grid", "0:1:5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert all(float(ln.split(",")[1]) == 0.0 for ln in lines)

    def test_symbol_required(self, chi01_file, capsys):
        assert main(["maxfn", "--input", chi01_file, "--op", "Cb", "--at", "0.5"]) == 2

    def test_parse_error_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\noops,2.0\n1.0,\n")
        assert main(["maxfn", "--input", str(bad), "--op", "M", "--at", "0"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_17_digit_roundtrip(self, tmp_path, capsys):
        f = StepFunction((0.0, 1.0 / 3.0), (math.pi,))
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        assert main(["maxfn", "--input", str(path), "--op", "M", "--at", "0.1"]) == 0
        val = capsys.readouterr().out.strip().splitlines()[1].split(",")[1]
        assert float(val) == math.pi

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_m2_bad_tol_exit_2(self, chi01_file, tol, capsys):
        assert main(["maxfn", "--input", chi01_file, "--op", "M2", "--at", "0.5", f"--tol={tol}"]) == 2
        assert "tol" in capsys.readouterr().err

    def test_m2_cell_budget_exit_2(self, tmp_path, capsys):
        # the default tol on 1000 cells needs more envelope cells than the budget
        rng = np.random.default_rng(5)
        f = StepFunction(np.sort(rng.uniform(0.0, 1.0, 1001)), np.exp(rng.uniform(-3.0, 3.0, 1000)))
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        assert main(["maxfn", "--input", str(path), "--op", "M2", "--at", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "budget" in err and "loosen tol" in err

    def test_m2_second_level_on_a_large_first_envelope(self, tmp_path, capsys):
        # the first envelope of 200 cells at the default tol has over 50,000
        # cells; the second level takes tangent queries on its suffix hulls
        rng = np.random.default_rng(6)
        f = StepFunction(np.sort(rng.uniform(0.0, 1.0, 201)), np.exp(rng.uniform(-3.0, 3.0, 200)))
        path = tmp_path / "f.json"
        path.write_text(f.to_json())
        start = time.process_time()
        assert main(["maxfn", "--input", str(path), "--op", "M2", "--grid=-0.5:1.5:17"]) == 0
        assert time.process_time() - start < 5.0
        rows = [[float(t) for t in ln.split(",")] for ln in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 17
        assert all(0.0 < lo <= hi for _, lo, hi in rows)

    @pytest.mark.parametrize("op", [["--op", "M"], ["--op", "Malpha", "--alpha", "0.5"]])
    @pytest.mark.parametrize("points", [["--at", "nan"], ["--at", "0.5,inf"], ["--grid=-inf:1:3"], ["--grid=0:nan:3"]])
    def test_non_finite_points_exit_2(self, chi01_file, op, points, capsys):
        assert main(["maxfn", "--input", chi01_file, *op, *points]) == 2
        assert capsys.readouterr().out == ""

    def test_directory_input_exit_2(self, tmp_path, capsys):
        assert main(["maxfn", "--input", str(tmp_path), "--op", "M", "--at", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestNorm:
    def test_morrey_chi04(self, chi04_file, capsys):
        assert main([
            "norm", "--input", chi04_file, "--kind", "morrey", "--p", "2", "--lambda", "0.5",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] <= math.sqrt(2.0) * (1 + 1e-12)
        assert obj["upper_bound"] >= math.sqrt(2.0) * (1 - 1e-12)

    def test_zm_radial(self, profile_file, capsys):
        assert main(["norm", "--input", profile_file, "--kind", "zm-radial", "--lambda", "0.5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == pytest.approx(2.0 * math.exp(-0.5), abs=1e-6)

    def test_bmo_constant_symbol(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(StepFunction.indicator(-9.0, 9.0, 4.0).to_json())
        # value over the default hull is positive (support edges oscillate),
        # but the estimate must be a valid bracket
        assert main(["norm", "--input", str(path), "--kind", "bmo"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] <= obj["upper_bound"]

    def test_missing_file(self, capsys):
        assert main(["norm", "--input", "does-not-exist.json", "--kind", "bmo"]) == 2

    def test_morrey_without_family_is_exact(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(StepFunction((0.0, 0.3, 1.0, 1.5), (2.0, -1.0, 4.0)).to_json())
        assert main(["norm", "--input", str(path), "--kind", "morrey", "--p", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["family"] is None
        assert obj["value"] == obj["upper_bound"] > 0.0

    def test_weak_zygmund_without_family_is_exact(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(StepFunction((0.0, 0.3, 1.0, 1.5), (2.0, -1.0, 4.0)).to_json())
        assert main(["norm", "--input", str(path), "--kind", "weak-zygmund"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["family"] is None
        assert obj["value"] == obj["upper_bound"] > 0.0

    @pytest.mark.parametrize(
        "kind, flag",
        [("morrey", ["--family", "auto"]), ("weak-zygmund", ["--depth", "4"]), ("zm-radial", ["--cap", "100"])],
    )
    def test_family_flags_rejected_on_exact_kinds(self, chi01_file, profile_file, kind, flag, capsys):
        path = profile_file if kind == "zm-radial" else chi01_file
        assert main(["norm", "--input", path, "--kind", kind, *flag]) == 2
        err = capsys.readouterr().err
        assert "apply only to --kind bmo, bmo-p" in err

    @pytest.mark.parametrize("kind", ["zygmund", "characterization"])
    def test_family_flags_rejected_on_searched_kinds(self, chi01_file, kind, capsys):
        assert main(["norm", "--input", chi01_file, "--kind", kind, "--family", "dyadic"]) == 2
        assert "apply only to --kind bmo, bmo-p" in capsys.readouterr().err
        assert main(["norm", "--input", chi01_file, "--kind", kind]) == 0
        assert json.loads(capsys.readouterr().out)["family"] is None

    def test_family_flags_accepted_on_family_kinds(self, chi01_file, capsys):
        assert main(["norm", "--input", chi01_file, "--kind", "bmo", "--family", "dyadic"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["family"]["mode"] == "dyadic"

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf", "0.5"])
    def test_bmo_p_rejects_p_outside_one_to_inf(self, chi01_file, p, capsys):
        assert main(["norm", "--input", chi01_file, "--kind", "bmo-p", f"--p={p}"]) == 2
        assert "p must satisfy 1 <= p < inf" in capsys.readouterr().err


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["maxfn", "--op", "M", "--at", "0.5", "--format", "json"],
            ["verify", "--suite", "holder", "--format", "json"],
            ["norm", "--kind", "morrey", "--n", "3"],
            ["norm", "--kind", "morrey", "--tol", "1e-3"],
            ["radial", "--op", "zm", "--format", "json"],
        ],
    )
    def test_removed_flags_rejected(self, chi01_file, profile_file, argv, capsys):
        path = profile_file if argv[0] == "radial" else chi01_file
        assert main(argv[:1] + ["--input", path] + argv[1:]) == 2

    def test_shared_parser_leaks_no_state(self, chi01_file, capsys):
        calls = [
            ["maxfn", "--input", chi01_file, "--op", "M", "--at", "2,0.5"],
            ["norm", "--input", chi01_file, "--kind", "morrey", "--p", "2"],
            ["maxfn", "--input", chi01_file, "--op", "M", "--grid", "0:2:5"],
        ]
        together = []
        for argv in calls:
            assert main(argv) == 0
            together.append(capsys.readouterr().out)
        # each call alone, in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for argv, out in zip(calls, together):
            alone = subprocess.run(
                [sys.executable, "-m", "morreylab.cli", *argv], env=env, capture_output=True, text=True
            )
            assert alone.returncode == 0
            assert alone.stdout == out


class TestVerify:
    def test_holder_suite_green(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--suite", "holder", "--seed", "7", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] is True

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = main(["verify", "--suite", "radial", "--seed", "3", "--out", str(a)])
        code_b = main(["verify", "--suite", "radial", "--seed", "3", "--out", str(b)])
        assert code_a == code_b == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_usage_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_failing_assertion_exit_1(self, tmp_path):
        # seed 3 produces a corpus where the constant-1 Holder form is
        # exceeded (ratio ~1.005), so the suite honestly reports failure
        out = tmp_path / "r.json"
        code = main(["verify", "--suite", "holder", "--seed", "3", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        bad = [c for c in rep["checks"] if not c["ok"]]
        assert bad and bad[0]["name"] == "holder_all_pairs"

    def test_verify_all_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = main(["verify", "--suite", "all", "--seed", "7", "--K", "4,8", "--out", str(a)])
        code_b = main(["verify", "--suite", "all", "--seed", "7", "--K", "4,8", "--out", str(b)])
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes()
        rep = json.loads(a.read_text())
        assert rep["parts"]["counterexample"]["ks"] == [4, 8]
        assert code_a == (0 if rep["ok"] else 1)


class TestCounterexampleCmd:
    def test_table_csv(self, capsys):
        assert main(["counterexample", "--K", "4,8", "--format", "csv"]) in (0, 1)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "K,f_norm_lo,f_norm_hi,Mf_lower_bound,ratio"
        assert out[1].startswith("4,")
        assert out[2].startswith("8,")


class TestRadialCmd:
    def test_hardy_values(self, profile_file, capsys):
        assert main(["radial", "--input", profile_file, "--op", "hardy", "--at", "2"]) == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert float(line.split(",")[1]) == pytest.approx(0.5, rel=1e-12)

    def test_hardy_grid_builds_no_inner_integral(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(7)
        bp = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 2.0, 12))))
        p = RadialProfile(StepFunction(bp, rng.uniform(0.5, 4.0, 12)), 2)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(p.to_json_obj()))
        build, builds = radial.inner_integral, []
        monkeypatch.setattr(radial, "inner_integral", lambda q: builds.append(q) or build(q))
        assert main(["radial", "--input", str(path), "--op", "hardy", "--grid=0.1:2:50"]) == 0
        assert not builds
        # the same bytes as the Hardy operator at each point on its own
        xs = [0.1 + i * ((2.0 - 0.1) / 49) for i in range(50)]
        want = ["x,value"] + [f"{x:.17g},{radial.hardy(p, x):.17g}" for x in xs]
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_reduction(self, profile_file, capsys):
        assert main(["radial", "--input", profile_file, "--op", "reduction", "--lambda", "0.5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["holds"] is True
        assert obj["bound"] == pytest.approx(2.0 * obj["rhs"], rel=1e-12)

    @pytest.mark.parametrize(
        "field", [{"dimension": 2.5}, {"dimension": "3"}, {"dimension": True}, {"nonincreasing": "false"}]
    )
    @pytest.mark.parametrize("argv", [["radial", "--op", "zm"], ["norm", "--kind", "zm-radial"]])
    def test_loose_profile_fields_exit_2(self, tmp_path, field, argv, capsys):
        # dimension must be a JSON integer and nonincreasing a JSON boolean
        obj = {"dimension": 1, "profile": {"breakpoints": [0.0, 1.0], "values": [1.0]}, "nonincreasing": True}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({**obj, **field}))
        assert main([argv[0], "--input", str(path), *argv[1:], "--lambda", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def hardy_at(tmp_path, breakpoints, values, x):
        obj = {"dimension": 400, "profile": {"breakpoints": breakpoints, "values": values}}
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(obj))
        return main(["radial", "--input", str(path), "--op", "hardy", "--at", x])

    def test_hardy_underflow_on_first_piece(self, tmp_path, capsys):
        # 0.005^400 underflows to 0; on the first piece, I = 3 t^400 / 400,
        # the Hardy value is the first cell's
        assert self.hardy_at(tmp_path, [0.0, 0.01, 1.0], [3.0, 1.0], "0.005") == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(3.0, rel=1e-15)

    def test_hardy_underflow_past_first_piece(self, tmp_path, capsys):
        # 0.005^400 underflows to 0; summed over the cells, the first adds
        # 3 (0.001 / 0.005)^400, about 8e-280, and the second 1 - 0.2^400,
        # which rounds to 1
        assert self.hardy_at(tmp_path, [0.0, 0.001, 0.01], [3.0, 1.0], "0.005") == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("argv", [["radial", "--op", "zm"], ["norm", "--kind", "zm-radial"]])
    def test_overflow_exit_2(self, tmp_path, argv, capsys):
        # at radius 0.01, 0.01^(0.5 - 400) is out of floating-point range; at
        # radius 10, the inner integral's 10^400 is
        for radius in (0.01, 10.0):
            obj = {"dimension": 400, "profile": {"breakpoints": [0.0, radius], "values": [1.0]}, "nonincreasing": True}
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(obj))
            assert main([argv[0], "--input", str(path), *argv[1:], "--lambda", "0.5"]) == 2
            assert capsys.readouterr().err.startswith("error:")
