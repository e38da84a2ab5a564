"""Spans and counters around constakit's public calls, for the traced run.

``Tracer.install`` replaces each traced function where it is looked up: in
every constakit module namespace that binds it (``codes`` imports
``poly_gcd`` by name, ``verify`` calls ``oracle.rref`` through the module),
on the class for methods, and on each ``FieldCtx`` for the arithmetic
closures the kernels fetch (``ctx.mul``, ``ctx.add``, ...).  Contexts are
counted from the moment they are built, so the splitting fields an upper
level captures are counted too.  ``uninstall`` puts every original back.

Span rules:

* A call opens a span unless it runs inside a span of the same metric
  (``forward_poly`` calling ``forward``) or inside a ``poly`` span.  Poly
  spans are leaves: Euclid's gcd is its divisions, so ``poly.gcd`` keeps
  them.
* A span's self time is its duration minus the spans it opened; ``.calls``
  counts spans opened.
* Field arithmetic is counted, never timed: its time stays in the self time
  of the span that called it.  ``mul`` counts ``mul`` and ``scale``; ``add``
  counts ``add``, ``sub`` and ``neg``.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
from collections import Counter
from time import perf_counter

#: metric -> (owner, function names).  An owner is a module, or
#: "module:Class" for methods.
SPANS = {
    "field.build": ("constakit.field:FieldCtx", ("_make_prime", "_make_extension")),
    "field.find_order": ("constakit.field", ("find_element_of_order", "elem_order")),
    "numbertheory": (
        "constakit.numbertheory",
        ("is_prime", "factorint", "divisors", "mult_order_mod"),
    ),
    "poly.mul": ("constakit.poly:Poly", ("__mul__",)),
    "poly.divmod": ("constakit.poly:Poly", ("__divmod__",)),
    "poly.gcd": ("constakit.poly", ("poly_gcd", "poly_xgcd")),
    "zn.sumset": ("constakit.zn", ("sumset", "iterated_sumset")),
    "zn.coset_bias": ("constakit.zn", ("smallest_coset", "fourier_bias")),
    "cdft.build_basis": ("constakit.cdft", ("build_basis",)),
    "cdft.forward": (
        "constakit.cdft:RootBasis",
        ("forward", "forward_poly", "forward_extended"),
    ),
    "cdft.inverse": ("constakit.cdft:RootBasis", ("inverse",)),
    "cdft.family": (
        "constakit.cdft:BasisFamily",
        ("__init__", "basis_for_exponent", "basis_for_lambda"),
    ),
    "cdft.factors": (
        "constakit.cdft:RootBasis",
        ("irreducible_factors", "linear_factor_product"),
    ),
    "codes.product_gcd": ("constakit.codes", ("schur_product_gcd",)),
    "codes.product_sumset": ("constakit.codes", ("schur_product_sumset",)),
    "codes.from_generator": ("constakit.codes", ("code_from_generator",)),
    "codes.from_gen_set": ("constakit.codes", ("code_from_generating_set",)),
    "codes.dual": ("constakit.codes", ("dual_generating_set",)),
    "codes.powers": (
        "constakit.codes",
        ("schur_power", "dimension_sequence", "factored_power_generator"),
    ),
    "codes.pattern": (
        "constakit.codes",
        ("pattern_polynomial", "pattern_of_product", "core_code"),
    ),
    "codes.bounds": ("constakit.codes", ("bounds_report",)),
    "oracle.product": ("constakit.oracle", ("oracle_schur_product",)),
    "oracle.rref": ("constakit.oracle", ("rref",)),
    "oracle.dual": ("constakit.oracle", ("oracle_dual",)),
    "oracle.pattern": ("constakit.oracle", ("oracle_pattern",)),
    "verify": ("constakit.verify", ("run_grid_verification", "field_for_cardinality")),
    "cli": ("constakit.cli", ("main",)),
}

#: Self-time metric names that do not follow "<span>.s".
TIME_NAMES = {
    "field.build": "field.build_s",
    "field.find_order": "field.find_order_s",
    "verify": "verify.self_s",
    "cli": "cli.self_s",
}

KINDS = ("prime", "tabulated", "vector")
#: FieldCtx attribute -> slot in a context's counters.
_MUL, _SCALE, _ADD, _INV = range(4)
_FIELD_OPS = {"mul": _MUL, "scale": _SCALE, "add": _ADD, "sub": _ADD, "neg": _ADD, "inv": _INV}


def _counted(fn, counts, slot):
    def op(*args):
        counts[slot] += 1
        return fn(*args)

    return op


def _mul_ns(ctx, mul, rng, pairs=64, rounds=5) -> float:
    """Best-of-rounds time of one ctx.mul on random nonzero elements, in ns."""
    top = ctx.cardinality - 1
    args = [
        (ctx.rep_from_index(rng.randint(1, top)), ctx.rep_from_index(rng.randint(1, top)))
        for _ in range(pairs)
    ]
    best = float("inf")
    for _ in range(rounds):
        start = perf_counter()
        for a, b in args:
            mul(a, b)
        best = min(best, perf_counter() - start)
    return best / pairs * 1e9


class Tracer:
    """Per-metric span counts and self times, plus per-context field op counts."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        # Frames are [metric, time covered by child spans, is a leaf]; the
        # root frame stands for the benchmark's own code.
        self._stack = [[None, 0.0, False]]
        self._patches = []  # (object, attribute, original value)
        self._fields = []  # (ctx, counters, original mul)
        self._after = {
            "_make_prime": lambda args, ctx: self._count_field(ctx),
            "_make_extension": lambda args, ctx: self._count_field(ctx),
            "run_grid_verification": self._count_verify,
        }
        self._before = {"rref": self._count_rows}

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        owners = [
            (metric, importlib.import_module(owner.partition(":")[0]), owner.partition(":")[2], names)
            for metric, (owner, names) in SPANS.items()
        ]
        modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "constakit"]
        for metric, module, class_name, names in owners:
            for name in names:
                if class_name:
                    cls = getattr(module, class_name)
                    raw = vars(cls)[name]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._span(metric, name, raw.__func__))
                    else:
                        wrapped = self._span(metric, name, raw)
                    self._patch(cls, name, wrapped)
                    continue
                raw = getattr(module, name)
                wrapped = self._span(metric, name, raw)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is raw:
                            self._patch(m, attr, wrapped)
        for ctx in sys.modules["constakit.field"]._FIELD_CACHE.values():
            self._count_field(ctx)

    def uninstall(self) -> None:
        for obj, attr, raw in reversed(self._patches):
            setattr(obj, attr, raw)
        self._patches.clear()

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    # -- spans and counters ---------------------------------------------

    def _span(self, metric: str, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        leaf = metric.startswith("poly.")
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(args)
            top = stack[-1]
            if top[2] or top[0] == metric:
                result = fn(*args, **kwargs)
            else:
                frame = [metric, 0.0, leaf]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    stack[-1][1] += elapsed
                    calls[metric] += 1
                    self_s[metric] += elapsed - frame[1]
            if after:
                after(args, result)
            return result

        return traced

    def _count_field(self, ctx) -> None:
        counts = [0, 0, 0, 0]
        raw_mul = ctx.mul
        for attr, slot in _FIELD_OPS.items():
            self._patch(ctx, attr, _counted(getattr(ctx, attr), counts, slot))
        self._fields.append((ctx, counts, raw_mul))

    def _count_rows(self, args) -> None:
        self.extra["oracle.rref.rows"] += len(args[1])

    def _count_verify(self, args, report) -> None:
        self.extra["verify.pairs"] += report["pairs_checked"]
        self.extra["verify.checks"] += sum(report["checks"].values())

    # -- results ------------------------------------------------------------

    def metrics(self, seed: int) -> dict:
        """Every metric the tracer knows, by name; mul_ns is timed here."""
        out = {}
        for metric in SPANS:
            out[f"{metric}.calls"] = self.calls[metric]
            out[TIME_NAMES.get(metric, f"{metric}.s")] = self.self_s[metric]
        for name in ("oracle.rref.rows", "verify.pairs", "verify.checks"):
            out[name] = self.extra[name]
        pairs = self.extra["verify.pairs"]
        # Base: ordered pairs checked; each oracle product is one cache miss.
        out["oracle.cache_hit_ratio"] = 1 - self.calls["oracle.product"] / pairs if pairs else 0.0

        rng = random.Random(seed)
        mul_calls, add_calls, plain_muls, ns_weighted = Counter(), Counter(), Counter(), Counter()
        inv_calls = 0
        for ctx, counts, raw_mul in self._fields:
            mul_calls[ctx.kind] += counts[_MUL] + counts[_SCALE]
            add_calls[ctx.kind] += counts[_ADD]
            inv_calls += counts[_INV]
            if counts[_MUL]:
                plain_muls[ctx.kind] += counts[_MUL]
                ns_weighted[ctx.kind] += counts[_MUL] * _mul_ns(ctx, raw_mul, rng)
        for kind in KINDS:
            out[f"field.mul.calls.{kind}"] = mul_calls[kind]
            out[f"field.add.calls.{kind}"] = add_calls[kind]
            weight = plain_muls[kind]
            out[f"field.mul_ns.{kind}"] = ns_weighted[kind] / weight if weight else 0.0
        out["field.inv.calls"] = inv_calls
        return out
