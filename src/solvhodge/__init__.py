"""Exact Dolbeault cohomology for complex solvmanifolds with diagonal action.

The package computes, in exact arithmetic, the finite invariant model of
the Dolbeault cohomology of quotients of C^n x| C^m by a lattice, where
the semidirect action is diagonal through smooth characters of the base.
It reports Hodge and Betti tables, decides the character-matching
condition under which Hodge symmetry and decomposition hold, certifies
harmonicity and wedge-closure of the model basis symbolically, and
reports the Kaehler obstruction.
"""

__version__ = "0.1.0"

from .characters import (
    CharacterExponent,
    LatticeBasis,
    NotUnitary,
    is_trivial_on_lattice,
    is_trivial_on_lattice_float,
)
from .cohomology import (
    BasisElement,
    BettiNumbers,
    ConditionReport,
    FiberTooLarge,
    HodgeTable,
    PairSweep,
    basis_elements,
    betti_numbers,
    check_condition,
    conjugation_symmetry,
    hodge_symmetry,
    hodge_table,
    serre_duality_check,
    sweep_trivial_pairs,
)
from .exact import (
    ComplexExact,
    ExactScalar,
    SymbolProductUnrepresentable,
    SymbolTable,
    TableMismatch,
)
from .forms import (
    DimensionCapExceeded,
    FrameForm,
    Generator,
    TwistedForm,
    bar_star,
    basis_form,
    from_frame,
    is_d_harmonic,
    is_dbar_harmonic,
    to_frame,
    volume_form,
    wedge_closure_report,
)
from .kahler import KaehlerVerdict, kaehler_obstruction
from .manifold import (
    SolvManifoldSpec,
    ValidationReport,
    example1,
    example2_n1,
    torus,
    validate,
)
from .specfile import SpecFileError, load_spec, save_spec, spec_to_dict

__all__ = [
    "BasisElement",
    "BettiNumbers",
    "CharacterExponent",
    "ComplexExact",
    "ConditionReport",
    "DimensionCapExceeded",
    "ExactScalar",
    "FiberTooLarge",
    "FrameForm",
    "Generator",
    "HodgeTable",
    "KaehlerVerdict",
    "LatticeBasis",
    "NotUnitary",
    "PairSweep",
    "SolvManifoldSpec",
    "SpecFileError",
    "SymbolProductUnrepresentable",
    "SymbolTable",
    "TableMismatch",
    "TwistedForm",
    "ValidationReport",
    "bar_star",
    "basis_elements",
    "basis_form",
    "betti_numbers",
    "check_condition",
    "conjugation_symmetry",
    "example1",
    "example2_n1",
    "from_frame",
    "hodge_symmetry",
    "hodge_table",
    "is_d_harmonic",
    "is_dbar_harmonic",
    "is_trivial_on_lattice",
    "is_trivial_on_lattice_float",
    "kaehler_obstruction",
    "load_spec",
    "save_spec",
    "serre_duality_check",
    "spec_to_dict",
    "sweep_trivial_pairs",
    "to_frame",
    "torus",
    "validate",
    "volume_form",
    "wedge_closure_report",
]
