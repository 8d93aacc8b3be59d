"""Command-line surface.

Exit codes: 0 success, 2 invalid input, 3 degenerate step distribution,
4 solver contradiction, 5 unresolved-path fraction exceeded.  The
environment variable ``MODWALK_SEED`` supplies ``--seed`` when the flag is
absent.  Rationals are accepted and emitted as ``p/q`` strings alongside
full-precision decimals.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .boundary import Cylinder
from .denjoy import DenjoyParams, cylinder_mass, pi_to_params, question_mark
from .group import GroupMeasure, parse_word
from .mediant import (
    LRCode,
    cf_to_lr,
    cf_value,
    lr_to_cf,
    lr_to_interval,
    rational_to_cf,
    rational_to_lr,
)
from .montecarlo import SimConfig, UnresolvedPathsError, estimate_alpha, simulate
from .solver import (
    DegenerateStepError,
    SolverContradictionError,
    StepOnS,
    denjoy_membership_residual,
    example_ex0,
    example_ex1,
    example_ex2,
    harmonic_params,
    minkowski_residual,
    residual,
    solve_master,
)

__all__ = ["main"]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def _json_weights(text: str, what: str) -> dict:
    # Numbers parse to exact Fractions, as quoted weights do; the library
    # validates each weight (group._weight).  A repeated key is refused, not
    # silently overwritten by its last value.
    data = json.loads(text, parse_float=Fraction, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    return data


def _step_from_json(text: str) -> StepOnS:
    return StepOnS.from_json_dict(_json_weights(text, "step distribution"))


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("MODWALK_SEED", "1"))


def _cmd_solve(args) -> str | dict:
    mu = _step_from_json(args.mu)
    triple = solve_master(mu, args.tol)
    res = residual(mu, triple)
    mink = minkowski_residual(mu)
    params = pi_to_params(triple)
    if args.format == "csv":
        row = [triple.x, triple.y, triple.ybar, params.alpha, params.p, *res, mink]
        return (
            "x,y,ybar,alpha,p,residual1,residual2,residual3,minkowski_residual\n"
            + ",".join(repr(float(v)) for v in row)
        )
    return {
        "x": float(triple.x),
        "y": float(triple.y),
        "ybar": float(triple.ybar),
        "alpha": float(params.alpha),
        "p": float(params.p),
        "residuals": [float(r) for r in res],
        "minkowski_residual": float(mink),
        # The solution is exact when it solves the system exactly; a bisection
        # midpoint is a Fraction too, but leaves nonzero residuals.
        "exact": {
            "minkowski_residual": str(mink),
            **({} if any(res) else {
                "x": str(triple.x),
                "y": str(triple.y),
                "ybar": str(triple.ybar),
                "alpha": str(params.alpha),
                "p": str(params.p),
            }),
        },
    }


def _cmd_classify(args) -> dict:
    if not (args.tol >= 0 and math.isfinite(args.tol)):
        raise ValueError(f"tol must be nonnegative and finite, got {args.tol}")
    mu = _step_from_json(args.mu)
    defect = denjoy_membership_residual(mu, args.alpha)
    params = harmonic_params(mu)
    return {
        "alpha": float(args.alpha),
        "residual": float(defect),
        "residual_exact": str(defect),
        "is_member": abs(defect) <= Fraction(args.tol),  # exact: a float is a dyadic
        "tol": args.tol,
        "harmonic_alpha": float(params.alpha),
        "harmonic_p": float(params.p),
    }


def _cmd_simulate(args) -> str:
    mu = GroupMeasure.from_json_dict(_json_weights(args.mu, "measure"))
    cfg = SimConfig(
        paths=args.paths,
        steps=args.steps,
        seed=_seed(args),
        depth=args.depth,
        allow_short_steps=args.allow_short_steps,
    )
    targets = [parse_word(t) for t in args.targets.split(",") if t] if args.targets else []
    report = simulate(mu, cfg, targets=targets)
    if args.format == "csv":
        return report.to_csv().rstrip("\n")
    return report.to_json()


def _cmd_qmark(args) -> dict:
    value = question_mark(args.x, args.depth)
    return {
        "x": str(args.x),
        "depth": args.depth,
        "dyadic": str(value),
        "decimal": float(value),
    }


def _code_dict(code: LRCode) -> dict:
    return {"stem": code.stem, "tail": code.tail}


def _interval_dict(word: str) -> dict:
    iv = lr_to_interval(word)
    return {
        "interval": {"left": str(iv.left), "right": str(iv.right)},
        "mediant": str(iv.mediant()),
    }


def _cmd_encode(args) -> dict:
    given = [name for name in ("rational", "lr", "cf") if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError("pass exactly one of --rational, --lr, --cf")
    if args.rational is not None:
        codes = rational_to_lr(args.rational)
        payload = {
            "rational": str(args.rational),
            "stem": codes.stem,
            "codes": {"left": _code_dict(codes.left), "right": _code_dict(codes.right)},
            "cf": list(rational_to_cf(args.rational)),
            **_interval_dict(codes.stem),
        }
    elif args.lr is not None:
        payload = {
            "lr": args.lr,
            "cf": list(lr_to_cf(args.lr)),
            **_interval_dict(args.lr),
        }
    else:
        text = args.cf.strip()
        digits = json.loads(text) if text.startswith("[") else [int(d) for d in text.split(",") if d.strip()]
        word = cf_to_lr(digits)
        payload = {"cf": digits, "lr": word}
        if digits:
            payload["value"] = str(cf_value(digits))
    return payload


def _cmd_measure(args) -> dict:
    params = DenjoyParams(args.alpha, args.p)
    cyl = Cylinder.canonical(parse_word(args.cylinder))
    mass = cylinder_mass(params, cyl)
    return {
        "alpha": str(args.alpha),
        "p": str(args.p),
        "cylinder": str(cyl),
        "mass": float(mass),
        "mass_exact": str(mass),
    }


# The parameters each example reads, with their defaults.
_EXAMPLE_FLAGS = {
    "ex0": {"t": Fraction(1, 2)},
    "ex1": {"bbar": Fraction(1, 2), "bbar2": Fraction(1, 3), "t": Fraction(1, 2)},
    "ex2": {"bbar": Fraction(1, 2)},
}


def _cmd_example(args) -> dict:
    given = {f: getattr(args, f) for f in ("bbar", "bbar2", "t") if getattr(args, f) is not None}
    stray = [f"--{f}" for f in given if f not in _EXAMPLE_FLAGS[args.name]]
    if stray:
        raise ValueError(f"{args.name} does not read {', '.join(stray)}")
    given = {**_EXAMPLE_FLAGS[args.name], **given}
    if args.name == "ex0":
        report = example_ex0(ts=(given["t"],))
        step = report.pair[0].combine(report.pair[1], given["t"])
        class_alpha = report.alpha_common
    elif args.name == "ex1":
        report = example_ex1(given["bbar"], given["bbar2"], given["t"])
        step = report.combination
        class_alpha = 0.5
    else:
        report = example_ex2(given["bbar"])
        step = report.mu_prime
        class_alpha = 0.5
    payload = report.as_dict()
    if args.simulate:
        cfg = SimConfig(paths=args.paths, steps=args.steps, seed=_seed(args), depth=args.depth)
        est = estimate_alpha(step.to_group_measure(), cfg)
        payload["simulation"] = {
            "paths": cfg.paths,
            "steps": cfg.steps,
            "seed": cfg.seed,
            **est.as_dict(class_alpha, harmonic_params(step).alpha),
        }
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modwalk",
        description="Harmonic measures of random walks on the modular group Z2 * Z3",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The Monte Carlo flags of simulate and example --simulate.
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--paths", type=int, default=100_000)
    sampling.add_argument("--steps", type=int, default=400)
    sampling.add_argument("--depth", type=int, default=3)
    sampling.add_argument("--seed", type=int, default=None, help="default: $MODWALK_SEED, else 1")

    p = sub.add_parser("solve", help="passage probabilities and harmonic parameters")
    p.add_argument("--mu", required=True, help='step weights, e.g. \'{"a":"1/3","b":"1/3","bb":"1/3"}\'')
    p.add_argument("--tol", type=float, default=1e-15)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("classify", help="membership residual for a Denjoy class")
    p.add_argument("--mu", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("simulate", parents=[sampling], help="Monte Carlo passage and cylinder estimates")
    p.add_argument("--mu", required=True, help='measure as word weights, e.g. \'{"a":"1/3","ba":"2/3"}\'')
    p.add_argument("--targets", default="", help="comma-separated words")
    p.add_argument("--allow-short-steps", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("qmark", help="Minkowski question-mark function at a rational")
    p.add_argument("--x", type=_fraction, required=True)
    p.add_argument("--depth", type=int, default=64)
    p.set_defaults(handler=_cmd_qmark)

    p = sub.add_parser("encode", help="rational / LR-word / continued-fraction conversions")
    p.add_argument("--rational", type=_fraction)
    p.add_argument("--lr")
    p.add_argument("--cf")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("measure", help="cylinder mass of a Denjoy-family measure")
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--p", type=_fraction, required=True)
    p.add_argument("--cylinder", required=True)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("example", parents=[sampling], help="compound-walk counterexample reports")
    p.add_argument("name", choices=("ex0", "ex1", "ex2"))
    p.add_argument("--t", type=_fraction, help="ex0, ex1 (default 1/2)")
    p.add_argument("--bbar", type=_fraction, help="ex1, ex2 (default 1/2)")
    p.add_argument("--bbar2", type=_fraction, help="ex1 (default 1/3)")
    p.add_argument("--simulate", action="store_true")
    p.set_defaults(handler=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = args.handler(args)
        if not isinstance(output, str):  # a JSON payload
            output = json.dumps(output, indent=2, sort_keys=True)
    except DegenerateStepError as exc:
        print(f"error: degenerate step distribution: {exc}", file=sys.stderr)
        return 3
    except SolverContradictionError as exc:
        print(f"error: solver contradiction: {exc}", file=sys.stderr)
        return 4
    except UnresolvedPathsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
