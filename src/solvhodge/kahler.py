"""Obstruction to the existence of a Kaehler metric.

A compact quotient of this kind can only be Kaehler when every fiber
character is unitary (with further root-of-unity constraints this module
does not decide).  Non-unitarity of any fiber character is therefore a
definitive obstruction; the unitary regime stays inconclusive because the
criterion has no positive direction here.
"""

from __future__ import annotations

from .model import SolvManifoldSpec

__all__ = ["OBSTRUCTED", "INCONCLUSIVE", "kaehler_obstruction"]

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


def kaehler_obstruction(spec: SolvManifoldSpec) -> dict:
    """The report's ``kaehler`` record: non-unitary fiber characters rule a Kaehler metric out.

    ``witnesses`` lists their 1-based indices; ``status`` is OBSTRUCTED when there is one.
    """
    witnesses = [i for i, alpha in enumerate(spec.alphas, start=1) if not alpha.is_unitary]
    return {
        "status": OBSTRUCTED if witnesses else INCONCLUSIVE,
        "witnesses": witnesses,
        "completely_solvable": all(alpha.is_real_valued for alpha in spec.alphas),
    }
