"""Command-line surface with machine-readable (JSON / CSV) output.

Every run echoes its fully resolved configuration so reports are
reproducible from the output alone.  Exit status: 0 on success, 1 when
the reader closes stdout early, 2 on domain/usage errors, 3 when the oracle
battery finds a mismatch.  Each command imports the engine module it runs,
so a process loads no other.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from .errors import ConvergenceError, DomainError
from .exponents import Exponents, as_fraction

SCHEMA = "capatree/1"
_FAMILY_FIELDS = ("m", "C", "beta", "gamma", "table", "tail_rule")  # one flag each, --tail-rule for tail_rule


def _family(args):
    """The family flags given, read as a sequence spec; a missing, bad or unused field is named."""
    from .dobinski import spec_from_json

    data = {name: getattr(args, name) for name in ("family", *_FAMILY_FIELDS) if getattr(args, name) is not None}
    for name in ("table", "tail_rule"):  # the JSON-valued flags
        if name in data:
            data[name] = json.loads(data[name])
    return spec_from_json(data)


def _report_json(report) -> dict:
    out = report.to_json()
    log2 = out["value_log2"]  # None for a zero value
    out["value_linear"] = None if log2 is None or abs(log2) > 1020 else 2.0 ** log2
    return out


# ----------------------------------------------------------------------
# command implementations: each returns (result_dict, csv_rows, exit_code)
# ----------------------------------------------------------------------

def _cmd_cap_cylinder(args):
    from .capacity import capacity_recursive
    from .tree import CylinderSet

    e = Exponents(args.a, args.p)
    words = json.loads(args.set)
    if not isinstance(words, list):
        raise DomainError("cylinder set JSON must be an array of bit strings")
    cyl = CylinderSet.from_words(words)
    report = _report_json(capacity_recursive(cyl, e))
    rows = [report | {"generators": " ".join(cyl.generators)}]
    return report | {"generators": list(cyl.generators)}, rows, 0


def _cmd_cap_component(args):
    from .capacity import cap_component

    e = Exponents(args.a, args.p)
    report = _report_json(cap_component(args.n, args.kappa, e))
    result = report | {"n": args.n, "kappa": args.kappa}
    return result, [result], 0


def _cmd_classify(args):
    from . import dobinski

    e = Exponents(args.a, args.p)
    if args.family == "dobinski":
        if given := [f"--{name.replace('_', '-')}" for name in _FAMILY_FIELDS if getattr(args, name) is not None]:
            raise DomainError(f"the dobinski family takes no family flags, got {', '.join(given)}")
        verdict = dobinski.dobinski_full(e)
    else:
        verdict = dobinski.classify(_family(args), e)
    result = verdict.to_json()
    rows = [{"outcome": result["outcome"], "condition": result["condition"]}]
    return result, rows, 0


def _cmd_bounds(args):
    from . import dobinski

    e = Exponents(args.a, args.p)
    lower, upper = dobinski.capacity_bounds(_family(args), e, args.n_max)
    result = {
        "lower": _report_json(lower),
        "upper": None if upper is None else _report_json(upper),
        "upper_is_finite": upper is not None,
    }
    return result, [{"bound": "lower"} | result["lower"], {"bound": "upper"} | (result["upper"] or {})], 0


def _cmd_ratios(args):
    from . import dobinski

    e = Exponents(args.a, args.p)
    report = dobinski.comparability_report(e, (args.n_from, args.n_to), _family(args))
    return report, report["rows"], 0


def _cmd_dimension(args):
    from . import dobinski

    spec = _family(args)
    ap_values = [as_fraction(tok) for tok in args.ap_grid.split(",") if tok.strip()]
    p_values = [as_fraction(tok) for tok in args.p_grid.split(",") if tok.strip()]
    for p in p_values:  # before ap / p divides by it
        if p <= 1:
            raise DomainError(f"need p > 1, got p={p}")
    grid = [(ap / p, p) for ap in ap_values for p in p_values]
    bracket = dobinski.dimension_profile(spec, grid)
    result = bracket.to_json()
    return result, list(bracket.points), 0


def _cmd_oracle_check(args):
    from . import oracle  # imports numpy, which no other command needs

    rows = oracle.agreement_battery(
        count=args.count,
        seed=args.seed,
        max_depth=args.max_depth,
        tol=args.tol,
    )
    mismatches = [r for r in rows if not r["ok"]]
    result = {
        "count": len(rows),
        "mismatches": len(mismatches),
        "max_rel_diff": max(r["rel_diff"] for r in rows),
        "rows": rows,
    }
    return result, rows, 3 if mismatches else 0


def _cmd_circle_capacity(args):
    from . import circle

    e = Exponents(args.a, args.p)
    integral, err = circle.kernel_integral(e.a)
    value = integral ** (-e.p_f)
    result = {
        "value": value,
        "kernel_integral": integral,
        "quad_error": abs(err) * e.p_f * value / integral,
    }
    return result, [result], 0


def _cmd_product_identity(args):
    from . import circle

    lhs, rhs = circle.product_identity(args.x, args.N)
    result = {"lhs_partial": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs)}
    return result, [result], 0


def _cmd_run_lengths(args):
    from . import circle

    stream = circle.DigitStream.from_rational(args.x)
    entries = [rl.to_json() for rl in circle.run_lengths(stream, args.N)]
    score = circle.membership_score(stream, args.N)
    result = {
        "dyadic": stream.dyadic,
        "entries": entries,
        "score": "inf" if math.isinf(score) else score,
        "note": "limsup membership is a tail property; finite horizons only witness lower bounds",
    }
    return result, entries, 0


# ----------------------------------------------------------------------
# parser and dispatch
# ----------------------------------------------------------------------

def _add_exponent_args(sub):
    sub.add_argument("--a", required=True, help="exponent a as a rational, e.g. 1/2")
    sub.add_argument("--p", required=True, help="exponent p as a rational, e.g. 2")


def _add_family_args(sub, allow_dobinski: bool = False):
    choices = ["geometric", "power", "linear", "growth", "custom"]
    if allow_dobinski:
        choices.append("dobinski")
    sub.add_argument("--family", required=True, choices=choices)
    sub.add_argument("--m", type=int, help="geometric family parameter")
    sub.add_argument("--C", help="rational coefficient for power/linear/growth")
    sub.add_argument("--beta", help="rational power exponent")
    sub.add_argument("--gamma", help="rational exponential rate (growth family)")
    sub.add_argument("--table", help="custom family table as JSON, e.g. [[1,2],[2,5]]")
    sub.add_argument("--tail-rule", dest="tail_rule", help="custom family tail rule as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capatree",
        description="Discrete (a,p)-capacities on the dyadic tree, limsup-set "
        "classification, and circle-side potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("cap-cylinder", help="capacity of a finite union of cylinders")
    _add_exponent_args(s)
    s.add_argument("--set", required=True, help='cylinder set as a JSON array, e.g. ["0","10"]')
    s.set_defaults(fn=_cmd_cap_cylinder)

    s = sub.add_parser("cap-component", help="capacity of the run set D(n, kappa)")
    _add_exponent_args(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--kappa", type=int, required=True)
    s.set_defaults(fn=_cmd_cap_component)

    s = sub.add_parser("classify", help="positive/zero/indeterminate verdict for a limsup set")
    _add_exponent_args(s)
    _add_family_args(s, allow_dobinski=True)
    s.set_defaults(fn=_cmd_classify)

    s = sub.add_parser(
        "bounds",
        help="lower bound for the union of the first n-max run sets; "
        "proven upper bound for the limsup set (null unless it classifies Zero)",
    )
    _add_exponent_args(s)
    _add_family_args(s)
    s.add_argument("--n-max", dest="n_max", type=int, required=True)
    s.set_defaults(fn=_cmd_bounds)

    s = sub.add_parser("ratios", help="component capacity vs comparison quantity")
    _add_exponent_args(s)
    _add_family_args(s)
    s.add_argument("--n-from", dest="n_from", type=int, default=1)
    s.add_argument("--n-to", dest="n_to", type=int, required=True)
    s.set_defaults(fn=_cmd_ratios)

    s = sub.add_parser("dimension", help="Hausdorff dimension bracket over an exponent grid")
    _add_family_args(s)
    s.add_argument("--ap-grid", dest="ap_grid", required=True, help="comma list of rational a*p values")
    s.add_argument("--p-grid", dest="p_grid", required=True, help="comma list of rational p values")
    s.set_defaults(fn=_cmd_dimension)

    s = sub.add_parser("oracle-check", help="randomized recursion-vs-oracle battery")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--count", type=int, default=200)
    s.add_argument("--max-depth", dest="max_depth", type=int, default=8)
    s.add_argument("--tol", type=float, default=1e-5)
    s.set_defaults(fn=_cmd_oracle_check)

    s = sub.add_parser("circle-capacity", help="Riesz capacity of the whole circle (quad_error: rounding bound)")
    _add_exponent_args(s)
    s.set_defaults(fn=_cmd_circle_capacity)

    s = sub.add_parser("product-identity", help="tangent product vs squared-sine closed form")
    s.add_argument("--x", required=True, help="rational point of (0,1), e.g. 1/3")
    s.add_argument("--N", type=int, required=True, help="number of product terms (<= 64)")
    s.set_defaults(fn=_cmd_product_identity)

    s = sub.add_parser("run-lengths", help="binary run lengths of a rational point")
    s.add_argument("--x", required=True, help="rational point of [0,1]")
    s.add_argument("--N", type=int, required=True, help="number of positions (1..10000)")
    s.set_defaults(fn=_cmd_run_lengths)

    for s in sub.choices.values():
        s.add_argument("--format", choices=["json", "csv"], default="json")
        s.add_argument("--output", help="write to this path instead of stdout")
    return parser


def _resolved_config(args) -> dict:
    skip = {"fn", "command", "format", "output"}
    given = {key: value for key, value in sorted(vars(args).items()) if key not in skip and value is not None}
    return {"command": args.command} | given


def _emit_json(config: dict, result: dict) -> str:
    return json.dumps(
        {"schema": SCHEMA, "config": config, "result": result},
        sort_keys=True,
        indent=2,
    )


def _emit_csv(config: dict, rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA}\n")
    for key, value in sorted(config.items()):
        buf.write(f"# {key}={value}\n")
    if rows:
        fields = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _csv_cell(value) for key, value in row.items()})
    return buf.getvalue()


def _csv_cell(value):
    if value is None or isinstance(value, float) and not math.isfinite(value):
        return ""
    return json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, rows, status = args.fn(args)
    except (DomainError, ValueError) as exc:
        print(f"capatree: error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"capatree: oracle failure: {exc}", file=sys.stderr)
        return 3
    config = _resolved_config(args)
    text = _emit_json(config, result) if args.format == "json" else _emit_csv(config, rows)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + ("\n" if not text.endswith("\n") else ""))
        except OSError as exc:
            print(f"capatree: error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (as `| head` does): point stdout at
            # devnull so the flush at exit cannot fail again, and stop quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
