"""Command-line front end: bounds, envelopes, extremal data, verification.

Output is machine-oriented and reproducible: floats print with 17
significant digits, field order is fixed, and a given flag set always
produces the same bytes.  Files are written to a temporary sibling and
renamed into place, so a failed run never leaves a partial file.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from .bounds import (
    _fmt,
    axis_bound,
    classical_bound,
    directional_bound,
    envelope_to_json,
    region_envelope,
)
from .errors import OracleError, QuadratureError, SolverError
from .mapping import boundary_map, constraint_residuals
from .solver import ProblemSpec

__all__ = ["build_parser", "main"]


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target, tmp = os.path.abspath(out), None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".part-")
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode of a plain write, not mkstemp's 0600
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except OSError as exc:  # invalid input, named by the path asked for, not the temporary file
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _spec_from(args) -> ProblemSpec:
    return ProblemSpec(n=args.n, m=args.m, r=args.r, a=args.a, b=args.b)


def _add_problem_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="domain ball dimension")
    sub.add_argument("--m", type=int, required=True, help="target dimension is m + 1")
    sub.add_argument("--r", type=float, required=True, help="radius of the closed sub-ball")
    sub.add_argument("--a", type=_vector, required=True, help="center mean, m comma-separated floats")
    sub.add_argument("--b", type=float, required=True, help="center mean of the last coordinate")


def _cmd_bound(args) -> int:
    spec = _spec_from(args)
    if args.e is None:
        direction = np.zeros(spec.m + 1)
        direction[0] = 1.0
        result = axis_bound(spec)
    else:
        direction = np.asarray(args.e, dtype=float)
        if direction.shape != (spec.m + 1,):
            raise ValueError(f"direction needs {spec.m + 1} components, got {direction.size}")
        if not np.isfinite(direction).all():
            raise ValueError(f"direction must be finite, got --e={direction}")
        if not direction.any():
            raise ValueError("direction must be a nonzero vector")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(direction))
        if not 1e-150 < norm < np.inf:  # the sum of squares left the normal range
            direction = direction / np.abs(direction).max()
            norm = float(np.linalg.norm(direction))
        direction = direction / norm
        result = directional_bound(spec, direction)
    solution = result.witness.solution
    mean_res, mass_res = result.residuals
    if args.format == "json":
        e_txt = ", ".join(_fmt(v) for v in direction)
        text = (
            "{\n"
            f'  "value": {_fmt(result.value)},\n'
            f'  "e": [{e_txt}],\n'
            f'  "branch": "{result.witness.branch}",\n'
            f'  "mean_residual": {_fmt(mean_res)},\n'
            f'  "mass_residual": {_fmt(mass_res)},\n'
            f'  "iterations": {solution.iterations}\n'
            "}\n"
        )
    else:
        text = (
            "value,mean_residual,mass_residual,iterations,branch\n"
            f"{_fmt(result.value)},{_fmt(mean_res)},{_fmt(mass_res)},"
            f"{solution.iterations},{result.witness.branch}\n"
        )
    _emit(text, args.out)
    return 0


def _cmd_region(args) -> int:
    env = region_envelope(_spec_from(args), count=args.directions, scheme=args.scheme, seed=args.seed)
    _emit(envelope_to_json(env), args.out)
    return 0


def _cmd_extremal(args) -> int:
    spec = _spec_from(args)
    if args.nodes < 2:
        raise ValueError(f"need at least 2 latitude samples, got {args.nodes}")
    bmap = boundary_map(spec)
    solution = bmap.solution
    mean_res, mass_res = constraint_residuals(bmap)
    grid = np.linspace(-1.0, 1.0, args.nodes)
    table = bmap.components(grid)  # rows: u_1..u_m, v
    lam_txt = ", ".join(_fmt(v) for v in solution.lam)
    mu_txt = "null" if solution.mu is None else _fmt(solution.mu)
    if args.format == "json":
        sample_rows = ",\n".join(
            "      [" + ", ".join(_fmt(v) for v in (grid[k], *table[:, k])) + "]"
            for k in range(grid.size)
        )
        warn_txt = ", ".join(f'"{w}"' for w in solution.warnings)
        text = (
            "{\n"
            f'  "branch": "{bmap.branch}",\n'
            f'  "lambda": [{lam_txt}],\n'
            f'  "mu": {mu_txt},\n'
            f'  "mean_residual": {_fmt(mean_res)},\n'
            f'  "mass_residual": {_fmt(mass_res)},\n'
            f'  "iterations": {solution.iterations},\n'
            f'  "warnings": [{warn_txt}],\n'
            '  "columns": ["t", '
            + ", ".join(f'"u{j + 1}"' for j in range(spec.m))
            + ', "v"],\n'
            '  "samples": [\n'
            f"{sample_rows}\n"
            "  ]\n"
            "}\n"
        )
    else:
        lines = [
            f"# branch = {bmap.branch}",
            f"# lambda = {lam_txt}",
            f"# mu = {mu_txt}",
            f"# mean_residual = {_fmt(mean_res)}",
            f"# mass_residual = {_fmt(mass_res)}",
            f"# iterations = {solution.iterations}",
        ]
        lines.extend(f"# warning: {w}" for w in solution.warnings)
        lines.append("t," + ",".join(f"u{j + 1}" for j in range(spec.m)) + ",v")
        for k in range(grid.size):
            lines.append(",".join(_fmt(v) for v in (grid[k], *table[:, k])))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_classical(args) -> int:
    value = classical_bound(args.n, args.r)
    if args.format == "json":
        text = (
            "{\n"
            f'  "n": {args.n},\n'
            f'  "r": {_fmt(args.r)},\n'
            f'  "value": {_fmt(value)}\n'
            "}\n"
        )
    else:
        text = f"n,r,value\n{args.n},{_fmt(args.r)},{_fmt(value)}\n"
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import CRITERIA, run_suite  # only verify needs the criteria

    if args.suite == "full":
        names = list(CRITERIA)
    else:
        names = [part.strip() for part in args.suite.split(",") if part.strip()]
        unknown = [name for name in names if name not in CRITERIA]
        if unknown or not names:
            said = f"unknown suite name(s) {', '.join(unknown)}" if unknown else f"empty suite {args.suite!r}"
            raise ValueError(f"{said}; choose from full, {', '.join(CRITERIA)}")
    lines = []
    all_passed = True
    for name in names:
        try:
            res = run_suite([name])[0]
        except (SolverError, OracleError, QuadratureError, ValueError) as exc:
            lines.append(f"FAIL {name}: aborted: {exc}")
            all_passed = False
            continue
        if res.passed:
            # timing stays out of the pass line to keep bytes reproducible
            lines.append(f"PASS {res.name}: {res.detail}")
        else:
            lines.append(f"FAIL {res.name}: {res.detail} [elapsed {res.elapsed:.1f}s]")
            all_passed = False
    passed_count = sum(line.startswith("PASS") for line in lines)
    lines.append(f"{passed_count}/{len(names)} criteria passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-schwarz",
        description="Sharp Schwarz-type bounds for harmonic maps between unit balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="sharp bound for <F, e> on the closed r-ball")
    _add_problem_flags(bound)
    bound.add_argument("--e", type=_vector, default=None, help="target direction, m + 1 floats")
    bound.add_argument("--format", choices=("json", "csv"), default="json")
    bound.add_argument("--out", default=None, help="write to this path instead of stdout")
    bound.set_defaults(handler=_cmd_bound)

    region = sub.add_parser("region", help="half-space envelope of the image of the r-ball")
    _add_problem_flags(region)
    region.add_argument("--directions", type=int, default=64, help="number of directions")
    region.add_argument(
        "--scheme", choices=("auto", "grid", "fibonacci", "random"), default="auto"
    )
    region.add_argument("--seed", type=int, default=0)
    region.add_argument("--out", default=None)
    region.set_defaults(handler=_cmd_region)

    extremal = sub.add_parser("extremal", help="multipliers and sampled extremal datum")
    _add_problem_flags(extremal)
    extremal.add_argument("--nodes", type=int, default=33, help="latitude sample count")
    extremal.add_argument("--format", choices=("json", "csv"), default="csv")
    extremal.add_argument("--out", default=None)
    extremal.set_defaults(handler=_cmd_extremal)

    classical = sub.add_parser("classical", help="centered bound (a = 0, b = 0) for dimension n")
    classical.add_argument("--n", type=int, required=True)
    classical.add_argument("--r", type=float, required=True)
    classical.add_argument("--format", choices=("json", "csv"), default="json")
    classical.add_argument("--out", default=None)
    classical.set_defaults(handler=_cmd_classical)

    verify = sub.add_parser("verify", help="run acceptance criteria and report pass/fail")
    verify.add_argument(
        "--suite",
        default="full",
        help="comma-separated criterion names, or 'full' (default)",
    )
    verify.add_argument("--out", default=None)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
