"""Workloads: seeded inputs, task lists and output checks.

A task is one call of ``morreylab.cli.main(argv)``.  Each workload turns the
run seed into a fixed multiset of same-sized tasks and writes the input
files they read; the program sees only those files and the argv.  Every
output is checked here, with numpy and the generated inputs, never with the
program's own code.  See README.md in this directory for why each workload
was chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")

REL_TOL = {"maxfn-large": 1e-12, "norm-bracket": 1e-12, "verify-suites": 1e-9}
NORM_KINDS = ("morrey", "zygmund", "weak-zygmund", "bmo", "characterization")
HOLDER_CHECKS = {
    "holder_all_pairs",
    "holder_classical_bound",
    "luxemburg_fixed_point",
    "llog_sandwich",
    "submultiplicative_log",
}
RADIAL_CHECKS = {"hardy_reduction", "radial_closed_form", "hardy_factor_two_all"}


@dataclass
class Task:
    id: str
    argv: list[str]
    kind: str  # "M", "M2", "norm:<kind>" or "verify:<suite>"
    bp: list[float] = field(default_factory=list)
    vals: list[float] = field(default_factory=list)
    grid: list[float] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    quick_tasks: list[Task]
    pass_s: float  # one pass at the commit that defined the benchmark, 2-vCPU host
    min_passes: int  # keeps at least 10 samples beyond the tail percentile

    def passes(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.pass_s))

    @property
    def inputs(self) -> list[str]:
        return sorted({t.argv[t.argv.index("--input") + 1] for t in self.tasks if "--input" in t.argv})


@dataclass
class Outcome:
    problems: list[str]
    gaps: list[float]  # relative bracket gaps (upper - lower) / upper


# ---------------------------------------------------------------------------
# inputs


def _random_step(rng: np.random.Generator, cells: int, signed: bool = False) -> tuple[list[float], list[float]]:
    """Exactly ``cells`` cells on (0, 1), values log-uniform in [2^-8, 2^8]."""
    while True:
        bp = np.sort(rng.uniform(0.0, 1.0, cells + 1))
        if np.all(np.diff(bp) > 0.0):
            break
    vals = np.exp(rng.uniform(math.log(2.0**-8), math.log(2.0**8), cells))
    if signed:
        vals = vals * rng.choice([-1.0, 1.0], cells)
    return bp.tolist(), vals.tolist()


def _bump(K: int) -> tuple[list[float], list[float]]:
    """The divergence example's even function with K unit bumps a side,
    bumps at k^2 ln^2(k + e); as ``experiments.build_counterexample(K)``."""
    starts = [k * k * math.log(k + math.e) ** 2 for k in range(1, K)]
    humps = [(-a - 1.0, -a) for a in reversed(starts)] + [(-1.0, 1.0)] + [(a, a + 1.0) for a in starts]
    bp, vals = [humps[0][0]], []
    for left, right in humps:
        if left > bp[-1]:
            vals.append(0.0)
            bp.append(left)
        vals.append(1.0)
        bp.append(right)
    return bp, vals


def _grid(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _write(workdir: Path, name: str, bp: list[float], vals: list[float]) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"breakpoints": bp, "values": vals}))
    return str(path)


CORPUS_SEED = 20150416  # fixed corpora: the run seed only mirrors their functions


def _mirror(bp: list[float], vals: list[float]) -> tuple[list[float], list[float]]:
    """x -> -x; every operator here is reflection invariant."""
    return [-b for b in reversed(bp)], vals[::-1]


def _maxfn_large(rng: np.random.Generator, workdir: Path) -> list[Task]:
    """16 fresh random 1000-cell functions: the cost of M at m = 1000 is set
    by m alone, so a fresh draw per seed costs the same."""
    tasks = []
    for i in range(16):
        bp, vals = _random_step(rng, 1000)
        path = _write(workdir, f"large{i:02d}", bp, vals)
        argv = ["maxfn", "--input", path, "--op", "M", "--grid=-0.25:1.25:16"]
        tasks.append(Task(f"f{i:02d}", argv, "M", bp, vals, _grid(-0.25, 1.25, 16)))
    return tasks


def _m2_bracket(rng: np.random.Generator, workdir: Path) -> list[Task]:
    """A fixed corpus of 16 ten-cell functions, each mirrored (grid too) or
    not: M2 cost is heavy-tailed in the input, so fresh draws would make a
    run's cost depend on the seed."""
    corpus_rng = np.random.default_rng([CORPUS_SEED, 2])
    tasks = []
    for i in range(16):
        bp, vals = _random_step(corpus_rng, 10)
        lo, hi = -0.5, 1.5
        if rng.integers(2):
            (bp, vals), lo, hi = _mirror(bp, vals), -hi, -lo
        path = _write(workdir, f"small{i:02d}", bp, vals)
        argv = ["maxfn", "--input", path, "--op", "M2", "--tol", "0.05", f"--grid={lo}:{hi}:17"]
        tasks.append(Task(f"f{i:02d}", argv, "M2", bp, vals, _grid(lo, hi, 17)))
    return tasks


def _norm_bracket(rng: np.random.Generator, workdir: Path) -> list[Task]:
    """A fixed corpus of three 12-cell functions (random signs for bmo), each
    mirrored or not, plus the K = 8 bump; five norm kinds on each."""
    corpus_rng = np.random.default_rng([CORPUS_SEED, 3])
    inputs = []
    for i in range(3):
        bp, vals = _random_step(corpus_rng, 12)
        signed = (np.array(vals) * corpus_rng.choice([-1.0, 1.0], len(vals))).tolist()
        if rng.integers(2):
            (bp, vals), (_, signed) = _mirror(bp, vals), _mirror(bp, signed)
        inputs.append((f"r{i}", bp, vals, signed))
    bp, vals = _bump(8)
    inputs.append(("bump8", bp, vals, vals))
    tasks = []
    for name, bp, vals, signed in inputs:
        for kind in NORM_KINDS:
            fvals = signed if kind == "bmo" else vals
            path = _write(workdir, f"{name}-{'signed' if kind == 'bmo' else 'abs'}", bp, fvals)
            argv = ["norm", "--input", path, "--kind", kind] + (["--p", "2"] if kind == "morrey" else [])
            tasks.append(Task(f"{name}-{kind}", argv, f"norm:{kind}", bp, fvals))
    return tasks


def _verify_suites(rng: np.random.Generator, workdir: Path) -> list[Task]:
    """Suite seeds 0-19, holder and radial: a fixed set, so the holder
    failures (a known defect) are the same share in every run."""
    return [
        Task(f"{suite}-{s}", ["verify", "--suite", suite, "--seed", str(s)], f"verify:{suite}")
        for s in range(20)
        for suite in ("holder", "radial")
    ]


_BUILDERS = {
    # name: (builder, nominal pass seconds, min passes, quick-mode tasks)
    "maxfn-large": (_maxfn_large, 0.75, 2, 2),
    "m2-bracket": (_m2_bracket, 3.4, 2, 2),
    "norm-bracket": (_norm_bracket, 13.6, 2, 5),
    "verify-suites": (_verify_suites, 4.4, 2, 2),
}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's tasks for ``seed``, in a seeded order; quick mode takes
    the first tasks of the unshuffled list."""
    builder, pass_s, min_passes, quick = _BUILDERS[name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    tasks = builder(rng, workdir)
    order = [tasks[i] for i in rng.permutation(len(tasks))]
    return Workload(name, order, tasks[:quick], pass_s, min_passes)


# ---------------------------------------------------------------------------
# output checks


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _csv_rows(text: str, header: str) -> list[list[float]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [[float(c) for c in line.split(",")] for line in lines[1:]]


def _value_at(t: Task, x: float) -> float:
    """|f| on the cell holding x (0 off the support)."""
    k = int(np.searchsorted(t.bp, x, side="right")) - 1
    return abs(t.vals[k]) if 0 <= k < len(t.vals) else 0.0


def _check_points(t: Task, rows: list[list[float]], width: int) -> list[str]:
    if len(rows) != len(t.grid) or any(len(r) != width for r in rows):
        return [f"expected {len(t.grid)} rows of {width} columns"]
    if any(not _close(r[0], x, 1e-15) for r, x in zip(rows, t.grid)):
        return ["evaluation points differ from the grid"]
    return []


def check(t: Task, rc: int | None, out: str, ref) -> Outcome:
    """Check one task's exit code and output.  ``ref`` is the stored
    reference output for this task at the default seed, or None."""
    try:
        return _check(t, rc, out, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome([f"malformed output: {exc}"], [])


def _check(t: Task, rc: int | None, out: str, ref) -> Outcome:
    if t.kind.startswith("verify:"):
        return _check_verify(t, rc, out, ref)
    if rc != 0:
        return Outcome([f"exit code {rc}"], [])
    if t.kind == "M":
        sup = max(abs(v) for v in t.vals)
        rows = _csv_rows(out, "x,value")
        problems = _check_points(t, rows, 2)
        for x, mf in rows if not problems else []:
            if not _value_at(t, x) * (1 - 1e-12) <= mf <= sup * (1 + 1e-12):
                problems.append(f"Mf({x}) = {mf} outside [|f(x)|, sup|f|]")
        if ref is not None and not problems:
            for (x, mf), (_, want) in zip(rows, ref):
                if not _close(mf, want, REL_TOL["maxfn-large"]):
                    problems.append(f"Mf({x}) = {mf!r}, reference {want!r}")
        return Outcome(problems, [])
    if t.kind == "M2":
        rows = _csv_rows(out, "x,lower,upper")
        problems = _check_points(t, rows, 3)
        gaps = []
        for x, lo, up in rows if not problems else []:
            # 1e-12 absorbs the rounding of a bracket that closes on a plateau
            if not 0.0 <= lo <= up * (1 + 1e-12):
                problems.append(f"bracket at {x} is [{lo}, {up}]")
            if up > 0.0:
                gaps.append((up - lo) / up)
        if ref is not None and not problems:
            for (x, lo, up), (_, rlo, rup) in zip(rows, ref):
                if lo > rup or rlo > up:
                    problems.append(f"bracket at {x} misses the reference [{rlo}, {rup}]")
        return Outcome(problems, gaps)
    # norm:<kind>
    est = json.loads(out)
    value, upper = float(est["value"]), float(est["upper_bound"])
    problems = []
    if not 0.0 <= value <= upper * (1 + 1e-12):
        problems.append(f"bracket [{value}, {upper}] is inverted")
    if t.kind == "norm:morrey" and not _close(value, upper, REL_TOL["norm-bracket"]):
        problems.append(f"morrey bracket [{value}, {upper}] is not exact")
    if ref is not None:
        rlo, rup = ref
        if value > rup * (1 + 1e-12) or rlo > upper * (1 + 1e-12):
            problems.append(f"bracket [{value}, {upper}] misses the reference [{rlo}, {rup}]")
        if t.kind == "norm:morrey" and not _close(value, rlo, REL_TOL["norm-bracket"]):
            problems.append(f"morrey norm {value!r}, reference {rlo!r}")
    return Outcome(problems, [(upper - value) / upper] if upper > 0.0 else [])


def _numbers(obj) -> list[float]:
    """Every number in a report, in a fixed order."""
    if isinstance(obj, bool):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _numbers(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return []


def _check_verify(t: Task, rc: int | None, out: str, ref) -> Outcome:
    suite = t.kind.split(":", 1)[1]
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    ok = all(c["ok"] for c in report["checks"])
    problems = []
    if report["suite"] != suite or report["seed"] != int(t.argv[-1]):
        problems.append("report names another suite or seed")
    if report["ok"] != ok or rc != (0 if ok else 1):
        problems.append(f"exit code {rc} and ok={report['ok']} disagree with the checks")
    required = HOLDER_CHECKS if suite == "holder" else RADIAL_CHECKS
    if not required <= set(names):
        problems.append(f"missing checks {sorted(required - set(names))}")
    if ref is not None:
        got = [names, [c["ok"] for c in report["checks"]], _numbers(report["checks"]), _numbers(report["constants"])]
        want = [ref["names"], ref["oks"], ref["numbers"], ref["constants"]]
        if got[:2] != want[:2] or len(got[2]) != len(want[2]) or len(got[3]) != len(want[3]):
            problems.append("check names or outcomes differ from the reference")
        elif not all(_close(a, b, REL_TOL["verify-suites"]) or abs(a - b) <= 1e-12 for a, b in zip(got[2] + got[3], want[2] + want[3])):
            problems.append("check constants differ from the reference by more than 1e-9")
    return Outcome(problems, [])


def reference_of(t: Task, out: str):
    """The stored form of a task's output, as ``check`` compares it."""
    if t.kind == "M":
        return _csv_rows(out, "x,value")
    if t.kind == "M2":
        return _csv_rows(out, "x,lower,upper")
    if t.kind.startswith("norm:"):
        est = json.loads(out)
        return [est["value"], est["upper_bound"]]
    report = json.loads(out)
    return {
        "names": [c["name"] for c in report["checks"]],
        "oks": [c["ok"] for c in report["checks"]],
        "numbers": _numbers(report["checks"]),
        "constants": _numbers(report["constants"]),
    }


def load_references(name: str, seed: int) -> dict:
    """Stored outputs by task id; there are none for other seeds."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(REFERENCES.read_text())[name]
