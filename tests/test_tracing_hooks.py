"""The traced benchmark's hooks still name the package's functions.

perfbench/tracing.py wraps constakit's functions and field operations by
name.  These tests load it without running a benchmark and look every name
up the way ``Tracer.install`` does, so a rename in ``src`` that would leave
the traced run wrapping nothing, or failing, shows up here.
"""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from constakit import build_field
from constakit.field import FieldCtx

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_owner_and_name_resolves(tracing):
    hooked = set()
    for metric, (owner, names) in tracing.SPANS.items():
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        for name in names:
            if class_name:
                raw = vars(getattr(module, class_name))[name]
                if isinstance(raw, staticmethod):
                    raw = raw.__func__
            else:
                raw = getattr(module, name)
            assert inspect.isfunction(raw), (metric, owner, name)
            hooked.add(name)
    # The tracer counts fields as FieldCtx's two staticmethods build them.
    for name in ("_make_prime", "_make_extension"):
        assert isinstance(vars(FieldCtx)[name], staticmethod)
        assert name in tracing.SPANS["field.build"][1]
    tracer = tracing.Tracer()
    assert set(tracer._before) | set(tracer._after) <= hooked


def test_field_ops_and_kinds_match_the_contexts(tracing):
    contexts = [build_field(2, []), build_field(2, [2]), build_field(2, [13])]
    assert tuple(ctx.kind for ctx in contexts) == tracing.KINDS
    for ctx in contexts:
        for attr in tracing._FIELD_OPS:
            assert callable(getattr(ctx, attr)), (ctx, attr)
    field_module = importlib.import_module("constakit.field")
    assert {ctx.kind for ctx in field_module._FIELD_CACHE.values()} <= set(tracing.KINDS)


def test_traced_oracle_product_counts_its_rref_rows(tracing, negacyclic_example, hamming_example):
    """The tracer reads len() of rref's rows, so the oracle must hand rref a
    sized sequence; a lazy one would fail the traced benchmark run."""
    from constakit import oracle_schur_product

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oracle_schur_product(negacyclic_example, negacyclic_example)[0] == 3
        assert oracle_schur_product(hamming_example, hamming_example)[0] == 7
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["oracle.rref.calls"] == 2
    assert metrics["oracle.rref.rows"] > 0
