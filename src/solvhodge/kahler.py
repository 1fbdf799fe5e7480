"""Obstruction to the existence of a Kaehler metric.

A compact quotient of this kind can only be Kaehler when every fiber
character is unitary (with further root-of-unity constraints this module
does not decide).  Non-unitarity of any fiber character is therefore a
definitive obstruction; the unitary regime stays inconclusive because the
criterion has no positive direction here.
"""

from __future__ import annotations

from .exact import Immutable
from .model import SolvManifoldSpec

__all__ = ["KaehlerVerdict", "OBSTRUCTED", "INCONCLUSIVE", "kaehler_obstruction"]

OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


class KaehlerVerdict(Immutable):
    __slots__ = ("status", "witnesses", "completely_solvable")
    status: str
    witnesses: tuple[int, ...]  # 1-based indices of non-unitary fiber characters
    completely_solvable: bool


def kaehler_obstruction(spec: SolvManifoldSpec) -> KaehlerVerdict:
    """Report non-unitary fiber characters; they rule a Kaehler metric out."""
    witnesses = tuple(i for i, alpha in enumerate(spec.alphas, start=1) if not alpha.is_unitary)
    completely_solvable = all(alpha.is_real_valued for alpha in spec.alphas)
    status = OBSTRUCTED if witnesses else INCONCLUSIVE
    return KaehlerVerdict(status, witnesses, completely_solvable)
