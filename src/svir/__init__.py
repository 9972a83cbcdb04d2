"""Exact symbolic engine for rank-n super-Virasoro algebras.

Core layers: exact rational-function scalars, the index lattice with its
half-integer coset, the graded bracket, the three intermediate-series
module families, and a verification CLI.
"""

from .scalar import (InputError, PolyExact, ScalarContext, ScalarDivisionError,
                     ScalarExpr)
from .lattice import (EVEN, ODD, AlgebraConfig, ConeSpec, IndexVector, LatticeBasis,
                      adapted_cone_basis, change_of_coords, cone_inclusion_check,
                      cone_member, iso_check, nested_cone_basis, unimodular_det)
from .formal import Symbol
from .algebra import AlgebraElement, CENTRAL, SuperVirasoro
from .repmod import BoxSpec, Family, ModuleVector, SeriesModule
from .parse import ParseError, parse_element, parse_index, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "AlgebraConfig", "AlgebraElement", "BoxSpec", "CENTRAL", "ConeSpec", "EVEN",
    "Family", "IndexVector", "InputError", "LatticeBasis", "ModuleVector", "ODD",
    "ParseError", "PolyExact", "ScalarContext", "ScalarDivisionError", "ScalarExpr",
    "SeriesModule", "SuperVirasoro", "Symbol", "adapted_cone_basis", "change_of_coords",
    "cone_inclusion_check", "cone_member", "iso_check", "nested_cone_basis",
    "parse_element", "parse_index", "parse_scalar", "unimodular_det",
]
