"""Exact Dolbeault cohomology for complex solvmanifolds with diagonal action.

The package computes, in exact arithmetic, the finite invariant model of
the Dolbeault cohomology of quotients of C^n x| C^m by a lattice, where
the semidirect action is diagonal through smooth characters of the base.
It reports Hodge and Betti tables, decides the character-matching
condition under which Hodge symmetry and decomposition hold, certifies
harmonicity and wedge-closure of the model basis symbolically, and
reports the Kaehler obstruction.

Importing the package loads no submodule.  A name of ``__all__``, which
holds what the commands and library callers of the pipeline use, is looked
up on first use; the reference algebra the tests check against is imported
by module name, as ``solvhodge.forms``.  The spec's data model (characters,
lattices, the manifold and the size gate) lives in ``model``, so loading an
explicit spec file loads only ``exact``, ``model`` and ``specfile``; a
builder node adds ``manifold`` and what it imports.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "BasisElement",
    "CharacterExponent",
    "ComplexExact",
    "DimensionCapExceeded",
    "ExactScalar",
    "HodgeTable",
    "LatticeBasis",
    "NotUnitary",
    "PairSweep",
    "SolvManifoldSpec",
    "SpecFileError",
    "SymbolProductUnrepresentable",
    "SymbolTable",
    "betti_numbers",
    "check_condition",
    "conjugation_symmetry",
    "example1",
    "example2_n1",
    "hodge_table",
    "is_trivial_on_lattice",
    "is_trivial_on_lattice_float",
    "kaehler_obstruction",
    "load_spec",
    "save_spec",
    "serre_duality_check",
    "spec_to_dict",
    "sweep_trivial_pairs",
    "torus",
    "validate",
    "wedge_closure_report",
]

# the submodules that export the names above, in import order: resolving a
# name imports the modules up to the one that exports it, and none after
_SUBMODULES = ("exact", "model", "specfile", "characters", "manifold", "cohomology", "kahler")


def __getattr__(name: str):
    """Import a public name, or one of the submodules above, on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for short in _SUBMODULES:
            module = importlib.import_module(f"{__name__}.{short}")
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
