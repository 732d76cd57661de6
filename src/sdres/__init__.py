"""Exact sparse difference resultants for generic Laurent difference systems.

The high-level entry points are :func:`parse_system` for the input language
and :func:`run_pipeline` for the staged computation; the per-stage machinery
lives in the submodules and is re-exported here for library use.
"""

from .algred import AlgebraicReduction, algebraic_reduction
from .diffpoly import (
    CoeffRef,
    DiffPolynomial,
    DiffSystem,
    Monomial,
    VarRef,
    norm_form,
    shift_poly,
    support_matrix,
)
from .errors import InputError, InternalError, SDResError
from .essanalysis import (
    RankOracle,
    find_super_essential,
    is_transformally_essential,
    jacobi_number,
    modified_jacobi_bounds,
    select_and_specialize,
    symbolic_rank,
)
from .multipoly import MultiPoly, SymbolTable, determinant, uni_gcd
from .parsing import SystemSource, parse_system, print_system
from .pipeline import PipelineReport, run_pipeline, serialize
from .resultant import (
    ResultantResult,
    compute_resultant,
    extract_supports,
    mixed_subdivision,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicReduction",
    "CoeffRef",
    "DiffPolynomial",
    "DiffSystem",
    "InputError",
    "InternalError",
    "Monomial",
    "MultiPoly",
    "PipelineReport",
    "RankOracle",
    "ResultantResult",
    "SDResError",
    "SymbolTable",
    "SystemSource",
    "VarRef",
    "algebraic_reduction",
    "compute_resultant",
    "determinant",
    "extract_supports",
    "find_super_essential",
    "is_transformally_essential",
    "jacobi_number",
    "mixed_subdivision",
    "modified_jacobi_bounds",
    "norm_form",
    "parse_system",
    "print_system",
    "run_pipeline",
    "select_and_specialize",
    "serialize",
    "shift_poly",
    "support_matrix",
    "symbolic_rank",
    "uni_gcd",
    "__version__",
]
