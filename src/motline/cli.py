"""Command-line interface.

Exit codes: 0 success, 2 parse/usage error, 3 infeasible or not in convex
order, 4 internal invariant breach.  All JSON output is canonical (sorted
keys, 17-significant-digit floats), so results compare byte for byte with
direct library calls.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import (
    ConvexOrderError,
    InputError,
    InternalError,
    MotlineError,
    ParseError,
    SizeGuardError,
)
from .jsonio import (
    canonical_dumps,
    coupling_to_dict,
    load_coupling,
    load_json,
    load_measure,
)
from .lab import continuity_sweep, example1_family1, example1_family2, projection_stability
from .measures import barycentre_report, convex_order, is_martingale
from .mot import CostSpec, KappaSpec, kappa_objective, monotonicity_check, mot_solve, penalized_ot
from .nested import nd_lower_bound, nested_w_p, project_to_martingale
from .rearrangement import CascadeStep, rearrange

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4


def parse_cost(text: str) -> CostSpec:
    """Cost flag syntax: abs | square | call:K | poly:i,j,c[;i,j,c...]"""
    if text == "abs":
        return CostSpec.absolute()
    if text == "square":
        return CostSpec.squared()
    if text.startswith("call:"):
        try:
            return CostSpec.call(float(text[5:]))
        except ValueError as exc:
            raise ParseError(f"bad strike in {text!r}") from exc
    if text.startswith("poly:"):
        terms = []
        try:
            for chunk in text[5:].split(";"):
                i, j, c = chunk.split(",")
                terms.append((int(i), int(j), float(c)))
        except ValueError as exc:
            raise ParseError(f"bad polynomial term in {text!r}") from exc
        return CostSpec.polynomial(terms)
    raise ParseError(f"unknown cost spec {text!r}")


def _resolve_cost(args) -> CostSpec:
    """Pick between --cost and --cost-matrix (an explicit grid wins)."""
    matrix_path = getattr(args, "cost_matrix", None)
    if matrix_path:
        data = load_json(matrix_path)
        try:
            return CostSpec.from_matrix(data["matrix"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"cannot read cost matrix {matrix_path}: {exc}") from exc
    return parse_cost(args.cost)


def _write(args, text: str) -> None:
    """Write the command's output to --out, or to stdout without it; an
    unwritable --out is a usage error."""
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {args.out}: {exc}") from exc


def _emit(args, payload: dict) -> None:
    _write(args, canonical_dumps(payload) + "\n")


def _cmd_check(args) -> int:
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    ordered = convex_order(mu, nu)
    _emit(args, {
        "convex_order": ordered,
        "mu": {"mean": mu.mean, "second_moment": mu.moment(2), "atoms": len(mu)},
        "nu": {"mean": nu.mean, "second_moment": nu.moment(2), "atoms": len(nu)},
    })
    return EXIT_OK if ordered else EXIT_INFEASIBLE


def _cmd_mot_solve(args) -> int:
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    value, plan = mot_solve(mu, nu, _resolve_cost(args))
    _emit(args, {"value": value, "plan": coupling_to_dict(plan)})
    return EXIT_OK


def _cmd_mot_penalized(args) -> int:
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    value = penalized_ot(mu, nu, _resolve_cost(args), args.L)
    _emit(args, {"value": value, "L": args.L})
    return EXIT_OK


def _cmd_mot_check_monotone(args) -> int:
    pi = load_coupling(args.pi)
    if not is_martingale(pi, args.tol_mart):
        raise InputError("input coupling is not a martingale coupling")
    report = monotonicity_check(pi, parse_cost(args.cost), args.samples,
                                args.subset_size, args.seed)
    _emit(args, {
        "samples": report.samples,
        "subset_size": report.subset_size,
        "violations": [{"sample": s, "points": list(points), "old": old, "new": new}
                       for s, points, old, new in report.violations],
        "n_violations": report.n_violations,
    })
    return EXIT_OK


def _cmd_mot_kappa(args) -> int:
    pi = load_coupling(args.pi)
    reference = load_coupling(args.kappa)
    if args.chat == "match":
        chat = lambda x1, x2, y2: abs(x2 - y2)  # noqa: E731
    else:
        cost = parse_cost(args.chat)
        chat = lambda x1, x2, y2: float(cost.evaluate(x1, y2))  # noqa: E731
    spec = KappaSpec(reference, chat)
    value = kappa_objective(pi, spec)
    _emit(args, {"value": value})
    return EXIT_OK


def _cmd_nd_dist(args) -> int:
    a = load_coupling(args.a)
    b = load_coupling(args.b)
    value, plan = nested_w_p(a, b, args.p)
    _emit(args, {"value": value, "p": args.p, "plan_cost": plan.cost})
    return EXIT_OK


def _cmd_project(args) -> int:
    pi = load_coupling(args.pi)
    result = project_to_martingale(pi)
    if result.lower_bound > result.value + 1e-9:
        raise InternalError("sandwich violated: lower bound exceeds projection value")
    _emit(args, {
        "value": result.value,
        "lower_bound": result.lower_bound,
        "projected": coupling_to_dict(result.projected),
    })
    return EXIT_OK


def _cmd_rearrange(args) -> int:
    pi = load_coupling(args.pi)
    result = rearrange(pi, args.tol_mart)
    lines = []
    for step in result.trace:
        if isinstance(step, CascadeStep):
            lines.append({
                "type": "cascade",
                "t1": list(step.tuples.t1()),
                "t2": list(step.tuples.t2()),
                "a": step.a,
                "m": step.m,
                "epsilon": step.epsilon_after,
            })
        else:
            rec = step.record
            lines.append({
                "type": "switch",
                "x1_minus": rec.x1_minus,
                "x1_plus": rec.x1_plus,
                "x2_minus": rec.x2_minus,
                "x2_plus": rec.x2_plus,
                "lambda": rec.mass_moved,
                "epsilon": step.epsilon_after,
            })
    summary = {
        "cost_bound": result.cost_bound,
        "epsilon_initial": result.epsilon_initial,
        "steps": result.steps,
        "snap_value": result.snap_value,
        "support_radius": result.support_radius,
        "output": coupling_to_dict(result.output),
    }
    if result.epsilon_initial > result.cost_bound + 1e-9:
        raise InternalError("sandwich violated: cost bound below initial deviation")
    _write(args, "".join(canonical_dumps(line) + "\n" for line in lines + [summary]))
    return EXIT_OK


def _cmd_lab_example1(args) -> int:
    if args.family == 1:
        pi, expected = example1_family1(args.n)
    else:
        pi, expected = example1_family2(args.n)
    eps = nd_lower_bound(pi)
    projection = project_to_martingale(pi)
    bound = rearrange(pi, args.tol_mart).cost_bound
    payload = {
        "family": args.family,
        "n": args.n,
        "epsilon": {"computed": eps, "expected": expected["epsilon"]},
        "projection": {"computed": projection.value, "expected": expected["projection"]},
        "cost_bound": bound,
    }
    _emit(args, payload)
    mismatch = (abs(eps - expected["epsilon"]) > 1e-9
                or abs(projection.value - expected["projection"]) > 1e-7)
    if mismatch:
        raise InternalError("computed values deviate from the family's exact values")
    return EXIT_OK


def _cmd_lab_continuity(args) -> int:
    mu = load_measure(args.mu)
    nu = load_measure(args.nu)
    result = continuity_sweep(mu, nu, parse_cost(args.cost), args.p, args.scales, args.seed)
    _write_sweep(args, result)
    return EXIT_OK


def _cmd_lab_stability(args) -> int:
    pi = load_coupling(args.pi)
    result = projection_stability(pi, args.scales, args.seed)
    _write_sweep(args, result)
    return EXIT_OK


def _write_sweep(args, result) -> None:
    if args.format == "csv":
        _write(args, result.to_csv())
    else:
        _emit(args, {"rows": [dict(row) for row in result.rows],
                     "metadata": result.metadata,
                     "monotone": result.monotone})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motline",
        description="Martingale optimal transport on the real line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="convex-order report for two measure files")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    mot_parser = sub.add_parser("mot", help="martingale transport commands")
    mot_sub = mot_parser.add_subparsers(dest="subcommand", required=True)

    p = mot_sub.add_parser("solve", help="optimal value and coupling")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--cost", default="abs")
    p.add_argument("--cost-matrix", help="JSON file {\"matrix\": [[...]]} over the supports")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mot_solve)

    p = mot_sub.add_parser("penalized", help="deviation-penalized transport value")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--cost", default="abs")
    p.add_argument("--cost-matrix", help="JSON file {\"matrix\": [[...]]} over the supports")
    p.add_argument("--L", type=float, default=1.0, help="Lipschitz constant of the cost")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mot_penalized)

    p = mot_sub.add_parser("check-monotone", help="sampled competitor search")
    p.add_argument("pi")
    p.add_argument("--cost", default="abs")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--subset-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-mart", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mot_check_monotone)

    p = mot_sub.add_parser("kappa", help="kernel-extended objective of a coupling")
    p.add_argument("pi")
    p.add_argument("--kappa", required=True, help="coupling file whose kernel is the reference")
    p.add_argument("--chat", default="match",
                   help="'match' for |x2-y2|, or a cost spec applied to (x1, y2)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_mot_kappa)

    p = sub.add_parser("nd-dist", help="nested Wasserstein distance of two couplings")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nd_dist)

    p = sub.add_parser("project", help="martingale projection of a coupling")
    p.add_argument("pi")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("rearrange", help="martingale rearrangement with trace")
    p.add_argument("pi")
    p.add_argument("--tol-mart", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rearrange)

    lab_parser = sub.add_parser("lab", help="instance generators and sweeps")
    lab_sub = lab_parser.add_subparsers(dest="subcommand", required=True)

    p = lab_sub.add_parser("example1", help="counterexample family, expected vs computed")
    p.add_argument("--family", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol-mart", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lab_example1)

    p = lab_sub.add_parser("continuity", help="value sweep under marginal perturbation")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--cost", default="abs")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--scales", type=float, nargs="+", default=[0.1, 0.01, 0.001])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lab_continuity)

    p = lab_sub.add_parser("stability", help="projection sweep under marginal perturbation")
    p.add_argument("pi")
    p.add_argument("--scales", type=float, nargs="+", default=[0.1, 0.01, 0.001])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lab_stability)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the parse exit code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConvexOrderError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InputError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MotlineError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
