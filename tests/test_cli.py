import json
import math

import numpy as np
import pytest

from morreylab.cli import main
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

    def test_thread_cap_deterministic(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = main(["verify", "--suite", "all", "--seed", "7", "--K", "4,8", "--out", str(a)])
        monkeypatch.setenv("MORREYLAB_THREADS", "3")
        code_b = main(["verify", "--suite", "all", "--seed", "7", "--K", "4,8", "--out", str(b)])
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes()


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

    def test_reduction(self, profile_file, capsys):
        assert main(["radial", "--input", profile_file, "--op", "reduction", "--lambda", "0.5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["holds"] is True
        assert obj["bound"] == pytest.approx(2.0 * obj["rhs"], rel=1e-12)
