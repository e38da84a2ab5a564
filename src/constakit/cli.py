"""Command-line front end for factoring, products, powers, and verification.

Field elements cross the boundary as coefficient arrays over the prime
field (a bare integer works at prime level), never as opaque labels, so
the same JSON that a command prints can be fed back in unchanged.  All
output is byte-deterministic: keys sorted, lists in canonical order.

Each command is one function that returns a `Report` holding all three
renderings (the JSON document, the CSV header and rows, the text lines);
`main` writes the one `--format` names.  Exit codes: 0 success, 1 a
verification failed, 2 bad input.  Every `ValueError` is bad input,
argument errors included, and so is an `--out` path that cannot be
written: each is printed as a JSON error object.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import codes as cd
from .cdft import CodeParams, build_basis
from .field import FieldCtx, build_field
from .numbertheory import mult_order_mod
from .oracle import oracle_schur_product
from .poly import Poly
from .verify import field_for_cardinality, run_grid_verification


class Report:
    """One command's result: its exit status and every rendering of it."""

    def __init__(self, doc: dict, status: int, header: list, rows: list, lines: list):
        self.doc, self.status, self.header, self.rows, self.lines = doc, status, header, rows, lines


# -- element and polynomial marshalling -----------------------------------


def parse_element(field: FieldCtx, obj):
    """Element from an int (constant) or a coefficient array over F_p."""
    if type(obj) is int:
        return field.elem(obj % field.p)
    if isinstance(obj, list):
        return field.elem(obj)
    raise ValueError(f"not a field element: {obj!r}")


def element_out(e):
    """Canonical JSON form: an int at prime level, else coefficient arrays."""
    return e.ctx.rep_to_nested(e.rep)


def parse_poly(field: FieldCtx, obj) -> Poly:
    if not isinstance(obj, list):
        raise ValueError(f"a polynomial is a list of coefficients, got {obj!r}")
    return Poly.from_elements([parse_element(field, c) for c in obj]) if obj else Poly.zero(field)


def poly_out(f: Poly) -> list:
    return [element_out(c) for c in f]


def _json_flag(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{flag}: not valid JSON: {text!r}") from exc


def _cell(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- shared assembly -------------------------------------------------------


def _field_from_args(args) -> FieldCtx:
    degrees = _json_flag(args.degrees, "--degrees") if args.degrees else []
    if type(degrees) is int:
        degrees = [degrees]
    if not isinstance(degrees, list) or not all(type(d) is int and d >= 1 for d in degrees):
        raise ValueError(f"--degrees: expected positive integers, got {args.degrees!r}")
    return build_field(args.p, degrees)


def _params(field: FieldCtx, n: int, lam_text: str) -> CodeParams:
    return CodeParams(field, n, parse_element(field, _json_flag(lam_text, "--lambda")))


def _code_from_spec(field: FieldCtx, n: int, lam_text: str, kind: str, text: str):
    params = _params(field, n, lam_text)
    obj = _json_flag(text, f"--{kind}")
    if kind == "generator":
        return cd.code_from_generator(params, parse_poly(field, obj))
    if not isinstance(obj, list) or not all(type(j) is int for j in obj):
        raise ValueError(f"--gen-set: expected residues mod n, got {text!r}")
    return cd.code_from_generating_set(params, None, obj)


def describe_code(c: cd.ConstaCode) -> dict:
    """The JSON descriptor of a nonzero code."""
    pat = cd.pattern_polynomial(c)
    return {
        "q": c.params.q,
        "n": c.params.n,
        "lambda": element_out(c.params.lam),
        "generator": poly_out(c.generator),
        "G": list(c.gen_set),
        "dim": c.dim,
        "pattern": {"v": pat.v, "alpha": element_out(pat.alpha)},
        "degenerate": not pat.is_trivial,
    }


# -- commands --------------------------------------------------------------


def cmd_factor(args) -> Report:
    field = _field_from_args(args)
    params = _params(field, args.n, args.lam)
    basis = build_basis(params)
    factors, lam = basis.irreducible_factors(), element_out(params.lam)
    b = {
        "delta": element_out(basis.delta),
        "xi": element_out(basis.delta_pow(basis.xi_exp)),
        "beta": element_out(basis.delta_pow(basis.beta_exp)),
        "t": basis.frobenius_shift,
        "m1": mult_order_mod(params.q, params.n),
        "m2": params.splitting_degree,
        "orbits": [list(orb) for orb in basis.orbits()],
    }
    doc = {
        "params": {
            "p": field.p,
            "degrees": list(field.degrees),
            "q": params.q,
            "n": params.n,
            "lambda": lam,
        },
        "basis": b,
        "factors": [poly_out(f) for f in factors],
    }
    rows = [
        [params.q, params.n, _cell(lam), _cell(f), _cell(orb)]
        for f, orb in zip(doc["factors"], b["orbits"])
    ]
    lines = [
        f"x^{params.n} - lambda over GF({params.q}), lambda = {_cell(lam)}",
        f"basis: delta={_cell(b['delta'])} xi={_cell(b['xi'])} "
        f"beta={_cell(b['beta'])} t={b['t']} m1={b['m1']} m2={b['m2']}",
    ]
    lines += [f"orbit {_cell(orb)}: {f}" for f, orb in zip(factors, b["orbits"])]
    return Report(doc, 0, ["q", "n", "lambda", "factor", "orbit"], rows, lines)


def _collect_codes(args, field: FieldCtx) -> list:
    specs = [("generator", g) for g in args.generator or []]
    specs += [("gen-set", s) for s in args.gen_set or []]
    if not 1 <= len(specs) <= 2:
        raise ValueError("give one code (squared) or two codes via --generator/--gen-set")
    if len(args.lam) not in (1, len(specs)):
        raise ValueError("--lambda must appear once, or once per code")
    # one code is squared; one --lambda serves both codes
    return [
        _code_from_spec(field, args.n, lam, kind, text)
        for (kind, text), lam in zip((specs * 2)[:2], (args.lam * 2)[:2])
    ]


def _product_report(method: str, code: cd.ConstaCode, oracle: tuple | None) -> dict:
    """One method's product; agrees_with_oracle is None when a method runs alone."""
    return {
        "method": method,
        "generator": poly_out(code.generator),
        "G": list(code.gen_set),
        "dim": code.dim,
        "agrees_with_oracle": None if oracle is None else (code.dim, code.generator) == oracle,
    }


def _products(method: str, c1: cd.ConstaCode, c2: cd.ConstaCode) -> tuple[dict, int]:
    """The methods' product reports; a single method runs alone, unchecked."""
    spectral = {"sumset": cd.schur_product_sumset, "gcd": cd.schur_product_gcd}
    if method in spectral:
        return {"reports": [_product_report(method, spectral[method](c1, c2), None)]}, 0
    basis = cd.product_basis(c1, c2)
    oracle = oracle_schur_product(c1, c2)
    oracle_code = cd.code_from_generator(basis.params, oracle[1], basis)
    if method == "oracle":
        return {"reports": [_product_report(method, oracle_code, None)]}, 0
    by_sum = cd.schur_product_sumset(c1, c2)
    by_gcd = cd.schur_product_gcd(c1, c2)

    reports = {
        "sumset": _product_report("sumset", by_sum, oracle),
        "gcd": _product_report("gcd", by_gcd, oracle),
        "oracle": _product_report("oracle", oracle_code, oracle),
    }
    agree = all(r["agrees_with_oracle"] for r in reports.values()) and (
        by_sum.gen_set == by_gcd.gen_set == oracle_code.gen_set
    )
    out = {"agree": agree, "reports": [reports[m] for m in ("sumset", "gcd", "oracle")]}
    return out, 0 if agree else 1


def cmd_product(args) -> Report:
    doc, status = _products(args.method, *_collect_codes(args, _field_from_args(args)))
    rows, lines = [], []
    for r in doc["reports"]:
        rows.append(
            [r["method"], _cell(r["generator"]), _cell(r["G"]), r["dim"], r["agrees_with_oracle"]]
        )
        lines.append(
            f"{r['method']}: dim={r['dim']} G={_cell(r['G'])} "
            f"generator={_cell(r['generator'])} agrees_with_oracle={r['agrees_with_oracle']}"
        )
    if "agree" in doc:
        lines.append(f"agree: {doc['agree']}")
    header = ["method", "generator", "G", "dim", "agrees_with_oracle"]
    return Report(doc, status, header, rows, lines)


def cmd_powers(args) -> Report:
    field = _field_from_args(args)
    code_flags = {"generator": args.generator, "gen-set": args.gen_set}
    given = [(kind, text) for kind, text in code_flags.items() if text is not None]
    if len(given) == 2:
        raise ValueError("give the code as --generator or --gen-set, not both")
    if not given:
        raise ValueError("give the code as --generator or --gen-set")
    c = _code_from_spec(field, args.n, args.lam, *given[0])
    report = cd.bounds_report(c)
    code, dims = describe_code(c), list(report["dims"])
    bounds = {name: report[name] for name in ("square_fills", "regularity_bound", "bias_bound")}
    doc = {
        "params": {"p": field.p, "degrees": list(field.degrees)},
        "code": code,
        "dims": dims,
        "r": report["r"],
        "fills": dims[-1] == c.params.n,
        "bounds": bounds,
    }
    lines = [
        f"[{code['n']},{code['dim']}] code over GF({code['q']}), "
        f"G={_cell(code['G'])} degenerate={code['degenerate']}",
        f"dims={_cell(dims)} r={doc['r']} fills={doc['fills']}",
    ]
    values, flags = [], []
    for name, rec in sorted(bounds.items()):
        val = rec.get("bound")
        values.append(f"{name}={'na' if val is None else repr(val)}")
        flags.append(f"{name}={rec.get('holds', rec.get('applicable'))}")
        lines.append(f"{name}: {_cell(rec)}")
    row = [
        code["q"], code["n"], _cell(code["lambda"]), _cell(code["generator"]),
        code["dim"], doc["r"], ";".join(values), ";".join(flags),
    ]
    header = ["q", "n", "lambda", "generator", "dim", "r", "bounds", "flags"]
    return Report(doc, 0, header, [row], lines)


def cmd_verify(args) -> Report:
    qs = _json_flag(args.grid_q, "--grid-q")
    if type(qs) is int:
        qs = [qs]
    if not isinstance(qs, list) or not qs or not all(type(q) is int for q in qs):
        raise ValueError(f"--grid-q: expected prime powers, got {args.grid_q!r}")
    if len(qs) > 8 or max(qs) > 32 or args.grid_n > 16:
        raise ValueError("grid too large: at most 8 field sizes, q <= 32, n <= 16")
    if args.grid_n < 1:
        raise ValueError("--grid-n must be >= 1")
    for q in qs:
        field_for_cardinality(q)
    doc = run_grid_verification(qs, args.grid_n, corrupt=args.inject_corruption)
    header = ["points", "codes_checked", "pairs_checked", "failures"]
    lines = [
        f"points={doc['points']} codes={doc['codes_checked']} "
        f"pairs={doc['pairs_checked']} failures={doc['failures']}"
    ]
    if doc["first_counterexample"] is not None:
        lines.append(f"first counterexample: {_cell(doc['first_counterexample'])}")
    return Report(doc, 0 if doc["failures"] == 0 else 1, header, [[doc[h] for h in header]], lines)


# -- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors are bad input like any other, not a usage dump."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="constakit")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument("--out", help="write output to this file instead of stdout")

    def common(sp, lam_action="store"):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--degrees", help="extension degrees over F_p, e.g. 2 or [2,2]")
        sp.add_argument("--n", type=int, required=True, help="code length")
        sp.add_argument(
            "--lambda", dest="lam", action=lam_action, required=True,
            help="constacyclic constant as a coefficient array (or int)",
        )
        output(sp)

    sp = sub.add_parser("factor", help="factor x^n - lambda and report the root basis")
    sp.set_defaults(run=cmd_factor)
    common(sp)

    sp = sub.add_parser("product", help="componentwise product of two codes")
    sp.set_defaults(run=cmd_product)
    common(sp, lam_action="append")
    sp.add_argument("--generator", action="append", help="code generator coefficients")
    sp.add_argument("--gen-set", action="append", help="code generating set residues")
    sp.add_argument("--method", choices=("sumset", "gcd", "oracle", "all"), default="all")

    sp = sub.add_parser("powers", help="dimension sequence, regularity, and bounds")
    sp.set_defaults(run=cmd_powers)
    common(sp)
    sp.add_argument("--generator", help="code generator coefficients")
    sp.add_argument("--gen-set", help="code generating set residues")

    sp = sub.add_parser("verify", help="cross-check every method on a grid of codes")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("--grid-q", default="[2,3,5]", help="field sizes, e.g. 4 or [2,3,5]")
    sp.add_argument("--grid-n", type=int, default=10, help="largest code length")
    output(sp)
    sp.add_argument("--inject-corruption", action="store_true", help=argparse.SUPPRESS)
    return parser


def _render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.run(args)
        if args.format == "json":
            rendered = _render_json(report.doc)
        elif args.format == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(report.header)
            writer.writerows(report.rows)
            rendered = buf.getvalue()
        else:
            rendered = "\n".join(report.lines) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(rendered)
    except (ValueError, OSError) as exc:
        sys.stdout.write(_render_json({"error": str(exc)}))
        return 2

    if not args.out:
        sys.stdout.write(rendered)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
