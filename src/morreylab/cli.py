"""Command-line front end: evaluate operators and norms on step-function
files, run verification suites, and emit reports as JSON or CSV.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All numbers print with 17 significant digits and a '.' decimal separator.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import experiments
from .maxops import iterated_maximal_at, maximal, maximal_commutator
from .maxops import commutator as bracket_commutator
from .maxops import fractional_maximal
from .norms import (
    FamilySpec,
    bmo_p_seminorm,
    bmo_seminorm,
    characterization_functional,
    morrey_norm,
    weak_zygmund_morrey_norm,
    zygmund_morrey_norm,
)
from .radial import RadialProfile, hardy, hardy_reduction_check, zm_radial_functional, zm_radial_functional_M
from .stepfn import Interval, StepFunction


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class UsageError(Exception):
    pass


def _load_step(path: str) -> StepFunction:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        return StepFunction.from_csv_text(text)
    try:
        return StepFunction.from_json(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_profile(path: str) -> RadialProfile:
    try:
        obj = json.loads(Path(path).read_text())
        return RadialProfile.from_json_obj(obj)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _family_from_args(args) -> FamilySpec | None:
    if args.family is None and args.depth is None and args.cap is None:
        return None
    kwargs = {}
    if args.family is not None:
        kwargs["mode"] = args.family
    if args.depth is not None:
        kwargs["depth"] = args.depth
    if args.cap is not None:
        kwargs["cap"] = args.cap
    return FamilySpec(**kwargs)


def _points_from_args(args) -> list[float]:
    pts: list[float] = []
    if args.at:
        for chunk in args.at.split(","):
            pts.append(float(chunk))
    if args.grid:
        try:
            lo, hi, count = args.grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise UsageError(f"bad --grid spec {args.grid!r}; expected lo:hi:count") from exc
        if count < 2 or hi <= lo:
            raise UsageError("grid needs hi > lo and count >= 2")
        step = (hi - lo) / (count - 1)
        pts.extend(lo + i * step for i in range(count))
    if not pts:
        raise UsageError("no evaluation points; pass --at or --grid")
    if not all(map(math.isfinite, pts)):
        raise UsageError("evaluation points must be finite")
    return pts


def cmd_maxfn(args) -> int:
    f = _load_step(args.input)
    pts = _points_from_args(args)
    rows: list[str] = []
    if args.op == "M":
        rows.append("x,value")
        rows += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(pts, maximal(f, pts))]
    elif args.op == "Malpha":
        rows.append("x,value")
        rows += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(pts, fractional_maximal(f, args.alpha, pts))]
    elif args.op in ("Cb", "bracket"):
        if not args.symbol:
            raise UsageError(f"--op {args.op} requires --symbol")
        b = _load_step(args.symbol)
        op = maximal_commutator if args.op == "Cb" else bracket_commutator
        rows.append("x,value")
        rows += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(pts, op(b, f, pts))]
    elif args.op == "M2":
        lo_hull = min(pts + [0.0]) - 1.0
        hi_hull = max(pts + [0.0]) + 1.0
        hull = f.support_hull()
        if hull is not None:
            lo_hull = min(lo_hull, hull.left - hull.length)
            hi_hull = max(hi_hull, hull.right + hull.length)
        lower, upper, capped = iterated_maximal_at(f, pts, args.tol, Interval(lo_hull, hi_hull))
        if capped:
            print(f"note: {capped} envelope cells reached float resolution above --tol", file=sys.stderr)
        rows.append("x,lower,upper")
        rows += [f"{_fmt(x)},{_fmt(lo)},{_fmt(hi)}" for x, lo, hi in zip(pts, lower, upper)]
    else:  # pragma: no cover - argparse limits choices
        raise UsageError(f"unknown op {args.op!r}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_norm(args) -> int:
    fam = _family_from_args(args)
    if fam is not None and args.kind not in ("bmo", "bmo-p"):
        raise UsageError("--family, --depth and --cap apply only to --kind bmo, bmo-p")
    if args.kind in ("zm-radial", "zm-radial-m"):
        p = _load_profile(args.input)
        if args.kind == "zm-radial":
            est = zm_radial_functional(p, args.lam)
        else:
            est = zm_radial_functional_M(p, args.lam)
    else:
        f = _load_step(args.input)
        if args.kind == "morrey":
            est = morrey_norm(f, args.p, args.lam)
        elif args.kind == "zygmund":
            est = zygmund_morrey_norm(f, args.lam)
        elif args.kind == "weak-zygmund":
            est = weak_zygmund_morrey_norm(f, args.lam)
        elif args.kind == "bmo":
            est = bmo_seminorm(f, fam)
        elif args.kind == "bmo-p":
            est = bmo_p_seminorm(f, args.p, fam)
        elif args.kind == "characterization":
            est = characterization_functional(f, args.lam)
        else:  # pragma: no cover
            raise UsageError(f"unknown norm kind {args.kind!r}")
    _emit(json.dumps(est.to_json_obj(), sort_keys=True) + "\n", args.out)
    return 0


def _ks_from_args(args) -> tuple[int, ...]:
    if not args.K:
        return (8, 16, 32, 64)
    try:
        return tuple(int(k) for k in args.K.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --K list {args.K!r}") from exc


def _counterexample_csv(rows: list[dict]) -> str:
    out = ["K,f_norm_lo,f_norm_hi,Mf_lower_bound,ratio"]
    for r in rows:
        out.append(
            ",".join(
                [
                    str(r["K"]),
                    _fmt(r["f_norm_lo"]),
                    _fmt(r["f_norm_hi"]),
                    _fmt(r["Mf_lower_bound"]),
                    _fmt(r["ratio"]),
                ]
            )
        )
    return "\n".join(out) + "\n"


def cmd_verify(args) -> int:
    if args.suite == "all":
        report = experiments.suite_all(args.seed, _ks_from_args(args))
    elif args.suite == "counterexample":
        report = experiments.suite_counterexample(_ks_from_args(args))
    else:
        report = experiments.SUITES[args.suite](args.seed)
    _emit(json.dumps(report, sort_keys=True, default=float) + "\n", args.out)
    return 0 if report["ok"] else 1


def cmd_counterexample(args) -> int:
    report = experiments.suite_counterexample(_ks_from_args(args), args.lam)
    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True, default=float) + "\n", args.out)
    else:
        _emit(_counterexample_csv(report["rows"]), args.out)
    return 0 if report["ok"] else 1


def cmd_radial(args) -> int:
    p = _load_profile(args.input)
    if args.op == "hardy":
        pts = _points_from_args(args)
        rows = ["x,value"] + [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(pts, hardy(p, pts))]
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    if args.op == "reduction":
        lhs, rhs, bound = hardy_reduction_check(p, args.lam)
        obj = {"lhs": lhs, "rhs": rhs, "bound": bound, "holds": lhs <= bound * (1 + 1e-9)}
        _emit(json.dumps(obj, sort_keys=True) + "\n", args.out)
        return 0 if obj["holds"] else 1
    est = zm_radial_functional(p, args.lam) if args.op == "zm" else zm_radial_functional_M(p, args.lam)
    _emit(json.dumps(est.to_json_obj(), sort_keys=True) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later calls; parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="morreylab",
        description="maximal operators, log-average norms and verification suites on step functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maxfn", help="evaluate M, M_alpha, C_b, [M,b] or the M^2 bracket on a point grid")
    p.add_argument("--input", required=True)
    p.add_argument("--symbol", default=None, help="symbol b for Cb/bracket")
    p.add_argument("--op", choices=("M", "Malpha", "Cb", "bracket", "M2"), required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--at", default=None, help="comma-separated evaluation points")
    p.add_argument("--grid", default=None, help="lo:hi:count uniform grid")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-3,
        help=(
            "tolerance for M2: each printed bracket has (upper - lower) <= tol * upper "
            "unless a note on stderr counts envelope cells left open at float resolution"
        ),
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_maxfn)

    p = sub.add_parser("norm", help="norm estimates with certified brackets")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--kind",
        choices=(
            "morrey",
            "zygmund",
            "weak-zygmund",
            "bmo",
            "bmo-p",
            "characterization",
            "zm-radial",
            "zm-radial-m",
        ),
        required=True,
    )
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--family", choices=("auto", "breakpoint_pairs", "dyadic", "dense"), default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*experiments.SUITES, "all"), required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--K", default=None, help="comma-separated bump counts for the counterexample suite")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample", help="emit the divergence table")
    p.add_argument("--K", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("radial", help="radial profile functionals and the Hardy operator")
    p.add_argument("--input", required=True)
    p.add_argument("--op", choices=("hardy", "zm", "zm-m", "reduction"), required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--at", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_radial)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
