"""The seven value classes share one contract: frozen, compared by value,
hashed by value, and refusing any assignment with AttributeError."""

import dataclasses

import pytest

from constakit import (
    CodeParams,
    ConstaCode,
    PatternPoly,
    Poly,
    ZnSet,
    build_basis,
    build_field,
    code_from_generating_set,
)
from constakit.field import FieldElem

F3 = build_field(3, [])
F5 = build_field(5, [])
PARAMS = CodeParams(F3, 4, F3.elem(2))
BASIS = build_basis(PARAMS)
CODE = code_from_generating_set(PARAMS, None, [2, 3])

# Each maker builds a fresh instance equal to the last one it built.
MAKERS = {
    "FieldElem": lambda: F3.elem(2),
    "Poly": lambda: Poly.from_indices(F3, [1, 2, 1]),
    "ZnSet": lambda: ZnSet(4, [3, 2, 6]),
    "CodeParams": lambda: CodeParams(F3, 4, F3.elem(2)),
    "Spectrum": lambda: BASIS.forward([F3.elem(1), F3.elem(2)]),
    "ConstaCode": lambda: ConstaCode(CODE.params, CODE.generator, CODE.basis, CODE.gen_set),
    "PatternPoly": lambda: PatternPoly(4, 2, F3.elem(2)),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_value_classes_are_frozen_and_hash_by_value(name):
    make = MAKERS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and dataclasses.is_dataclass(a)
    assert a is not b and a == b and hash(a) == hash(b)
    for f in dataclasses.fields(a):
        with pytest.raises(AttributeError):
            setattr(a, f.name, getattr(a, f.name))
    with pytest.raises(AttributeError):
        a.stray = 1


def test_field_elements_and_polys_are_slotted_and_keyed_by_context():
    assert not hasattr(F3.elem(1), "__dict__")
    assert not hasattr(Poly.one(F3), "__dict__")
    assert F3.elem(1).rep == F5.elem(1).rep and F3.elem(1) != F5.elem(1)
    assert Poly.one(F3).coeffs == Poly.one(F5).coeffs and Poly.one(F3) != Poly.one(F5)
    assert (F3.elem(1) == 1) is False and (F3.zero() == 0) is False
    assert isinstance(F3.elem(1), FieldElem)
