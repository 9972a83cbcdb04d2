"""Exact symbolic engine for rank-n super-Virasoro algebras.

Core layers: exact rational-function scalars, the index lattice with its
half-integer coset, the graded bracket, the three intermediate-series
module families, and a verification CLI.
"""

from .scalar import (InputError, PolyExact, ScalarContext, ScalarDivisionError,
                     ScalarExpr)
from .lattice import (AlgebraConfig, ConeSpec, IndexVector, LatticeBasis, Parity,
                      adapted_cone_basis, change_of_coords, cone_inclusion_check,
                      cone_member, iso_check, nested_cone_basis, unimodular_det)
from .algebra import AlgebraElement, BasisElt, CENTRAL, Kind, SuperVirasoro
from .repmod import BoxSpec, Family, ModuleBasisVector, ModuleVector, SeriesModule
from .parse import ParseError, parse_element, parse_index, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "AlgebraConfig", "AlgebraElement", "BasisElt", "BoxSpec", "CENTRAL",
    "ConeSpec", "Family", "IndexVector", "InputError", "Kind", "LatticeBasis",
    "ModuleBasisVector", "ModuleVector", "Parity", "ParseError",
    "PolyExact", "ScalarContext", "ScalarDivisionError", "ScalarExpr",
    "SeriesModule", "SuperVirasoro", "adapted_cone_basis", "change_of_coords",
    "cone_inclusion_check", "cone_member", "iso_check", "nested_cone_basis",
    "parse_element", "parse_index", "parse_scalar", "unimodular_det",
]
