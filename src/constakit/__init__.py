"""Constacyclic codes, their spectra, and componentwise products."""

from .field import FieldCtx, FieldElem, build_field, elem_order, find_element_of_order, schur
from .poly import Poly, poly_gcd, poly_xgcd, reciprocal
from .zn import ZnSet, fourier_bias, iterated_sumset, smallest_coset, sumset
from .cdft import BasisFamily, CodeParams, RootBasis, Spectrum, build_basis
from .codes import (
    ConstaCode,
    PatternPoly,
    basis_family,
    bounds_report,
    code_from_generating_set,
    code_from_generator,
    core_code,
    dimension_sequence,
    dual_generating_set,
    factored_power_generator,
    pattern_of_product,
    pattern_polynomial,
    power_pattern,
    schur_power,
    schur_product_gcd,
    schur_product_sumset,
)
from .oracle import oracle_dual, oracle_pattern, oracle_schur_product
from .verify import field_for_cardinality, run_grid_verification

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "CodeParams",
    "ConstaCode",
    "FieldCtx",
    "FieldElem",
    "PatternPoly",
    "Poly",
    "RootBasis",
    "Spectrum",
    "ZnSet",
    "basis_family",
    "bounds_report",
    "build_basis",
    "build_field",
    "code_from_generating_set",
    "code_from_generator",
    "core_code",
    "dimension_sequence",
    "dual_generating_set",
    "elem_order",
    "factored_power_generator",
    "field_for_cardinality",
    "find_element_of_order",
    "fourier_bias",
    "iterated_sumset",
    "oracle_dual",
    "oracle_pattern",
    "oracle_schur_product",
    "pattern_of_product",
    "pattern_polynomial",
    "poly_gcd",
    "poly_xgcd",
    "power_pattern",
    "reciprocal",
    "run_grid_verification",
    "schur",
    "schur_power",
    "schur_product_gcd",
    "schur_product_sumset",
    "smallest_coset",
    "sumset",
    "__version__",
]
