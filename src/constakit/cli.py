"""Command-line front end for factoring, products, powers, and verification.

Field elements cross the boundary as coefficient arrays over the prime
field (a bare integer works at prime level), never as opaque labels, so
the same JSON that a command prints can be fed back in unchanged.  All
output is byte-deterministic: keys sorted, lists in canonical order.
Exit codes: 0 success, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import codes as cd
from .cdft import CodeParams, RootBasis, build_basis
from .field import FieldCtx, build_field
from .numbertheory import mult_order_mod
from .oracle import oracle_schur_product
from .poly import Poly
from .verify import field_for_cardinality, run_grid_verification


class CliError(Exception):
    """Input problem; rendered as a JSON error object with exit code 2."""


# -- element and polynomial marshalling -----------------------------------


def parse_element(field: FieldCtx, obj):
    """Element from an int (constant) or a coefficient array over F_p."""
    if isinstance(obj, bool):
        raise CliError(f"not a field element: {obj!r}")
    if isinstance(obj, int):
        return build_field(field.p, []).elem(obj % field.p).lift(field)
    if isinstance(obj, list):
        try:
            return field.elem(obj)
        except (ValueError, TypeError) as exc:
            raise CliError(str(exc)) from exc
    raise CliError(f"not a field element: {obj!r}")


def element_out(e):
    """Canonical JSON form: an int at prime level, else coefficient arrays."""
    return e.ctx.rep_to_nested(e.rep)


def parse_poly(field: FieldCtx, obj) -> Poly:
    if not isinstance(obj, list):
        raise CliError(f"a polynomial is a list of coefficients, got {obj!r}")
    return Poly.from_elements([parse_element(field, c) for c in obj]) if obj else Poly.zero(field)


def poly_out(f: Poly) -> list:
    return [element_out(c) for c in f]


def _json_flag(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{flag}: not valid JSON: {text!r}") from exc


# -- shared assembly -------------------------------------------------------


def _field_from_args(args) -> FieldCtx:
    degrees = _json_flag(args.degrees, "--degrees") if args.degrees else []
    if isinstance(degrees, int):
        degrees = [degrees]
    if not isinstance(degrees, list) or not all(
        isinstance(d, int) and d >= 1 for d in degrees
    ):
        raise CliError(f"--degrees: expected positive integers, got {args.degrees!r}")
    try:
        return build_field(args.p, degrees)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _params(field: FieldCtx, n: int, lam_text: str) -> CodeParams:
    lam = parse_element(field, _json_flag(lam_text, "--lambda"))
    try:
        return CodeParams(field, n, lam)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _code_from_spec(field: FieldCtx, n: int, lam_text: str, kind: str, text: str):
    params = _params(field, n, lam_text)
    obj = _json_flag(text, f"--{kind}")
    try:
        if kind == "generator":
            return cd.code_from_generator(params, parse_poly(field, obj))
        if not isinstance(obj, list) or not all(isinstance(j, int) for j in obj):
            raise CliError(f"--gen-set: expected residues mod n, got {text!r}")
        return cd.code_from_generating_set(params, None, obj)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def describe_code(c: cd.ConstaCode) -> dict:
    """The JSON code descriptor; pattern is null for the zero code."""
    out = {
        "q": c.params.q,
        "n": c.params.n,
        "lambda": element_out(c.params.lam),
        "generator": poly_out(c.generator),
        "G": list(c.gen_set),
        "dim": c.dim,
    }
    if c.is_zero:
        out["pattern"] = None
        out["degenerate"] = None
    else:
        pat = cd.pattern_polynomial(c)
        out["pattern"] = {"v": pat.v, "alpha": element_out(pat.alpha)}
        out["degenerate"] = not pat.is_trivial
    return out


def _basis_report(basis: RootBasis) -> dict:
    params = basis.params
    return {
        "delta": element_out(basis.delta),
        "xi": element_out(basis.delta_pow(basis.xi_exp)),
        "beta": element_out(basis.delta_pow(basis.beta_exp)),
        "t": basis.frobenius_shift,
        "m1": mult_order_mod(params.q, params.n),
        "m2": params.splitting_degree,
        "orbits": [list(orb) for orb in basis.orbits()],
    }


# -- commands --------------------------------------------------------------


def cmd_factor(args, field: FieldCtx) -> tuple[dict, int]:
    params = _params(field, args.n, args.lam)
    try:
        basis = build_basis(params)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = {
        "params": {
            "p": field.p,
            "degrees": list(field.degrees),
            "q": params.q,
            "n": params.n,
            "lambda": element_out(params.lam),
        },
        "basis": _basis_report(basis),
        "factors": [poly_out(f) for f in basis.irreducible_factors()],
    }
    return result, 0


def _collect_codes(args, field: FieldCtx) -> list:
    lams = args.lam or []
    if not lams:
        raise CliError("--lambda is required")
    specs = [("generator", g) for g in args.generator or []]
    specs += [("gen_set", s) for s in args.gen_set or []]
    if not 1 <= len(specs) <= 2:
        raise CliError("give one code (squared) or two codes via --generator/--gen-set")
    if len(lams) not in (1, len(specs)):
        raise CliError("--lambda must appear once, or once per code")
    if len(specs) == 1:
        specs = specs * 2
    if len(lams) == 1:
        lams = lams * 2
    kinds = {"generator": "generator", "gen_set": "gen-set"}
    return [
        _code_from_spec(field, args.n, lam, kinds[kind], text)
        for (kind, text), lam in zip(specs, lams)
    ]


def _product_report(method: str, code: cd.ConstaCode, oracle: tuple | None) -> dict:
    """One method's product; agrees_with_oracle is None when the oracle was not run."""
    return {
        "method": method,
        "generator": poly_out(code.generator),
        "G": list(code.gen_set),
        "dim": code.dim,
        "agrees_with_oracle": None if oracle is None else (code.dim, code.generator) == oracle,
    }


def cmd_product(args, field: FieldCtx) -> tuple[dict, int]:
    c1, c2 = _collect_codes(args, field)
    spectral = {"sumset": cd.schur_product_sumset, "gcd": cd.schur_product_gcd}
    try:
        if args.method in spectral:
            code = spectral[args.method](c1, c2)
            return {"reports": [_product_report(args.method, code, None)]}, 0
        by_sum = cd.schur_product_sumset(c1, c2)
        by_gcd = cd.schur_product_gcd(c1, c2)
        oracle = oracle_schur_product(c1, c2)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    oracle_code = cd.code_from_generator(by_sum.params, oracle[1], by_sum.basis)

    reports = {
        "sumset": _product_report("sumset", by_sum, oracle),
        "gcd": _product_report("gcd", by_gcd, oracle),
        "oracle": _product_report("oracle", oracle_code, oracle),
    }
    if args.method != "all":
        rep = reports[args.method]
        return {"reports": [rep]}, 0 if rep["agrees_with_oracle"] else 1
    agree = all(r["agrees_with_oracle"] for r in reports.values()) and (
        by_sum.gen_set == by_gcd.gen_set == oracle_code.gen_set
    )
    out = {"agree": agree, "reports": [reports[m] for m in ("sumset", "gcd", "oracle")]}
    return out, 0 if agree else 1


def cmd_powers(args, field: FieldCtx) -> tuple[dict, int]:
    if args.generator is not None and args.gen_set is not None:
        raise CliError("give the code as --generator or --gen-set, not both")
    if args.generator is not None:
        c = _code_from_spec(field, args.n, args.lam, "generator", args.generator)
    elif args.gen_set is not None:
        c = _code_from_spec(field, args.n, args.lam, "gen-set", args.gen_set)
    else:
        raise CliError("give the code as --generator or --gen-set")
    try:
        report = cd.bounds_report(c)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    dims = report["dims"]
    result = {
        "params": {"p": field.p, "degrees": list(field.degrees)},
        "code": describe_code(c),
        "dims": list(dims),
        "r": report["r"],
        "fills": dims[-1] == c.params.n,
        "bounds": {
            "square_fills": report["square_fills"],
            "regularity_bound": report["regularity_bound"],
            "bias_bound": report["bias_bound"],
        },
    }
    return result, 0


def cmd_verify(args, _field=None) -> tuple[dict, int]:
    qs = _json_flag(args.grid_q, "--grid-q")
    if isinstance(qs, int):
        qs = [qs]
    if not isinstance(qs, list) or not qs or not all(isinstance(q, int) for q in qs):
        raise CliError(f"--grid-q: expected prime powers, got {args.grid_q!r}")
    if len(qs) > 8 or max(qs) > 32 or args.grid_n > 16:
        raise CliError("grid too large: at most 8 field sizes, q <= 32, n <= 16")
    if args.grid_n < 1:
        raise CliError("--grid-n must be >= 1")
    for q in qs:
        try:
            field_for_cardinality(q)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    report = run_grid_verification(qs, args.grid_n, corrupt=args.inject_corruption)
    return report, 0 if report["failures"] == 0 else 1


# -- rendering -------------------------------------------------------------


def _render_json(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _csv_rows(command: str, result: dict) -> tuple[list[str], list[list]]:
    if command == "factor":
        p = result["params"]
        header = ["q", "n", "lambda", "factor", "orbit"]
        rows = [
            [p["q"], p["n"], _cell(p["lambda"]), _cell(f), _cell(orb)]
            for f, orb in zip(result["factors"], result["basis"]["orbits"])
        ]
    elif command == "product":
        header = ["method", "generator", "G", "dim", "agrees_with_oracle"]
        rows = [
            [r["method"], _cell(r["generator"]), _cell(r["G"]), r["dim"], r["agrees_with_oracle"]]
            for r in result["reports"]
        ]
    elif command == "powers":
        code = result["code"]
        bounds, flags = [], []
        for name, rec in sorted(result["bounds"].items()):
            val = rec.get("bound")
            bounds.append(f"{name}={'na' if val is None else repr(val)}")
            flags.append(f"{name}={rec.get('holds', rec.get('applicable'))}")
        header = ["q", "n", "lambda", "generator", "dim", "r", "bounds", "flags"]
        rows = [[
            code["q"], code["n"], _cell(code["lambda"]), _cell(code["generator"]),
            code["dim"], result["r"], ";".join(bounds), ";".join(flags),
        ]]
    else:
        header = ["points", "codes_checked", "pairs_checked", "failures"]
        rows = [[result[h] for h in header]]
    return header, rows


def _render_csv(command: str, result: dict) -> str:
    header, rows = _csv_rows(command, result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_text(command: str, result: dict, field: FieldCtx | None) -> str:
    lines = []
    if command == "factor":
        p, b = result["params"], result["basis"]
        lines.append(f"x^{p['n']} - lambda over GF({p['q']}), lambda = {_cell(p['lambda'])}")
        lines.append(
            f"basis: delta={_cell(b['delta'])} xi={_cell(b['xi'])} "
            f"beta={_cell(b['beta'])} t={b['t']} m1={b['m1']} m2={b['m2']}"
        )
        for f, orb in zip(result["factors"], b["orbits"]):
            lines.append(f"orbit {_cell(orb)}: {parse_poly(field, f)}")
    elif command == "product":
        for r in result["reports"]:
            lines.append(
                f"{r['method']}: dim={r['dim']} G={_cell(r['G'])} "
                f"generator={_cell(r['generator'])} agrees_with_oracle={r['agrees_with_oracle']}"
            )
        if "agree" in result:
            lines.append(f"agree: {result['agree']}")
    elif command == "powers":
        code = result["code"]
        lines.append(
            f"[{code['n']},{code['dim']}] code over GF({code['q']}), "
            f"G={_cell(code['G'])} degenerate={code['degenerate']}"
        )
        lines.append(f"dims={_cell(result['dims'])} r={result['r']} fills={result['fills']}")
        for name, rec in sorted(result["bounds"].items()):
            lines.append(f"{name}: {_cell(rec)}")
    else:
        lines.append(
            f"points={result['points']} codes={result['codes_checked']} "
            f"pairs={result['pairs_checked']} failures={result['failures']}"
        )
        if result["first_counterexample"] is not None:
            lines.append(f"first counterexample: {_cell(result['first_counterexample'])}")
    return "\n".join(lines) + "\n"


# -- entry point ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="constakit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, lam_action="store"):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--degrees", help="extension degrees over F_p, e.g. 2 or [2,2]")
        sp.add_argument("--n", type=int, required=True, help="code length")
        sp.add_argument(
            "--lambda", dest="lam", action=lam_action, required=True,
            help="constacyclic constant as a coefficient array (or int)",
        )
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("factor", help="factor x^n - lambda and report the root basis")
    common(sp)

    sp = sub.add_parser("product", help="componentwise product of two codes")
    common(sp, lam_action="append")
    sp.add_argument("--generator", action="append", help="code generator coefficients")
    sp.add_argument("--gen-set", action="append", help="code generating set residues")
    sp.add_argument("--method", choices=("sumset", "gcd", "oracle", "all"), default="all")

    sp = sub.add_parser("powers", help="dimension sequence, regularity, and bounds")
    common(sp)
    sp.add_argument("--generator", help="code generator coefficients")
    sp.add_argument("--gen-set", help="code generating set residues")

    sp = sub.add_parser("verify", help="cross-check every method on a grid of codes")
    sp.add_argument("--grid-q", default="[2,3,5]", help="field sizes, e.g. 4 or [2,3,5]")
    sp.add_argument("--grid-n", type=int, default=10, help="largest code length")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sp.add_argument("--out", help="write output to this file instead of stdout")
    sp.add_argument("--inject-corruption", action="store_true", help=argparse.SUPPRESS)
    return parser


_HANDLERS = {
    "factor": cmd_factor,
    "product": cmd_product,
    "powers": cmd_powers,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # verify builds its own fields; every other command works in one.
        field = None if args.command == "verify" else _field_from_args(args)
        result, status = _HANDLERS[args.command](args, field)
    except CliError as exc:
        sys.stdout.write(_render_json({"error": str(exc)}))
        return 2

    if args.format == "json":
        rendered = _render_json(result)
    elif args.format == "csv":
        rendered = _render_csv(args.command, result)
    else:
        rendered = _render_text(args.command, result, field)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return status


if __name__ == "__main__":
    sys.exit(main())
