"""The seven value classes share one contract, poly.Value's: frozen, compared
by value, hashed by value, refusing any assignment or deletion with
AttributeError, and copied to an equal value."""

import copy

import pytest

from constakit import (
    CodeParams,
    ConstaCode,
    PatternPoly,
    Poly,
    ZnSet,
    basis_family,
    build_basis,
    build_field,
    code_from_generating_set,
)
from constakit.field import FieldElem
from constakit.poly import Value

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
    assert type(a).__name__ == name and isinstance(a, Value)
    assert a is not b and a == b and hash(a) == hash(b)
    for f in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.stray = 1


def test_field_elements_and_polys_are_slotted_and_keyed_by_context():
    assert not hasattr(F3.elem(1), "__dict__")
    assert not hasattr(Poly.one(F3), "__dict__")
    assert F3.elem(1).rep == F5.elem(1).rep and F3.elem(1) != F5.elem(1)
    assert Poly.one(F3).coeffs == Poly.one(F5).coeffs and Poly.one(F3) != Poly.one(F5)
    assert (F3.elem(1) == 1) is False and (F3.zero() == 0) is False
    assert isinstance(F3.elem(1), FieldElem)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_value_classes_copy_to_an_equal_value(name):
    a = MAKERS[name]()
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_fields_families_bases_and_elements_copy_to_themselves():
    """Contexts compare by identity and families are memoized per process,
    so a copy that were a new object would equal nothing."""
    family = basis_family(F3, 4)
    for x in (F3, family, BASIS, F3.elem(2), Poly.one(F3)):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert copy.deepcopy(F3.elem(2)) + F3.elem(1) == F3.zero()


def test_deep_copied_spectrum_inverts_on_its_basis():
    spectrum = BASIS.forward([F3.elem(1), F3.elem(2)])
    twin = copy.deepcopy(spectrum)
    assert twin.basis is BASIS and twin.inverse() == spectrum.inverse()
    assert [x.project(F3) for x in twin.inverse()] == [F3.elem(1), F3.elem(2), F3.zero(), F3.zero()]


@pytest.mark.parametrize("cls", [FieldElem, Poly])
def test_hand_written_inits_set_every_field(cls):
    """FieldElem and Poly set their fields through their slots' setters, so a
    field must be a slot, and each slot a field, for __init__ to set it."""
    assert cls._fields == cls.__slots__


@pytest.mark.parametrize("built,canonical", [
    (lambda: FieldElem(F3, 2), lambda: F3.elem(2)),
    (lambda: FieldElem(build_field(2, [13]), (1,) + (0,) * 12), lambda: build_field(2, [13]).elem(1)),
    (lambda: Poly(F3, [1, 2, 0]), lambda: Poly.from_indices(F3, [1, 2])),
    (lambda: Poly._of(F3, (1, 2)), lambda: Poly.from_indices(F3, [1, 2])),
], ids=["FieldElem-prime", "FieldElem-vector", "Poly", "Poly._of"])
def test_values_built_by_init_are_frozen_slotted_values(built, canonical):
    a, b = built(), canonical()
    assert a == b and hash(a) == hash(b) and not hasattr(a, "__dict__")
    for f in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
    ctx, value = (getattr(a, f) for f in type(a)._fields)
    moved = type(a)(F5, value)  # FieldElem(F5, a.rep), Poly(F5, a.coeffs)
    assert type(a)(ctx, value) == a and moved.ctx is F5 and moved != a


@pytest.mark.parametrize("shown, expected", [
    (lambda: repr(BASIS), "RootBasis(n=4, lam=2, beta=delta^1 in GF(3^2))"),
    (lambda: repr(basis_family(F3, 4)), "BasisFamily(q=3, n=4, o=2)"),
    (lambda: repr(CODE), "ConstaCode(q=3, n=4, lam=2, g=Poly(x^2 + x + 2))"),
    (lambda: repr(ZnSet(4, [3, 2, 6])), "ZnSet(4, {2, 3})"),
    (lambda: len(BASIS.forward([F3.elem(1), F3.elem(2)])), PARAMS.n),
    (lambda: repr(PatternPoly(4, 2, F3.elem(2))), "PatternPoly(n=4, v=2, alpha=2)"),
    (lambda: repr(BASIS.forward([F3.elem(1), F3.elem(2)])),
     f"Spectrum(basis={BASIS!r}, values=(2*y, y, y + 2, 2*y + 2))"),
], ids=["RootBasis", "BasisFamily", "ConstaCode", "ZnSet", "len-Spectrum", "PatternPoly", "Spectrum"])
def test_reprs_and_spectrum_length_are_pinned(shown, expected):
    assert shown() == expected
