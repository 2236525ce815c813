"""Outcome repair: interpret measurement outcomes as abelian charges or
fluxes and compute single-layer string corrections by spanning-tree transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .cellulation import Cellulation, Tree
from .groups import FiniteGroup

__all__ = ["SyndromeSet", "CorrectionPlan", "charge_correction", "flux_correction"]


@dataclass(frozen=True)
class SyndromeSet:
    """Measurement outcomes with a global product constraint.

    kind "charge": vertex outcomes, dual-group labels (canonically identified
    with the group). kind "flux": plaquette outcomes, group labels. The
    product of all outcomes must be the identity.
    """

    kind: str
    outcomes: Dict[int, int]
    group: FiniteGroup

    def __post_init__(self):
        if self.kind not in ("charge", "flux"):
            raise ValueError(f"unknown syndrome kind {self.kind!r}")
        if not self.group.is_abelian:
            raise ValueError("syndromes must take values in an abelian group")
        total = 0
        for label in self.outcomes.values():
            total = self.group.mul(total, label)
        if total != 0:
            raise ValueError(
                f"{self.kind} outcomes multiply to {total}, not the identity; "
                "the global constraint is violated"
            )


@dataclass(frozen=True)
class CorrectionPlan:
    """Per-edge group exponents, applied as one layer.

    basis "Z": character diagonals on direct edges. basis "X": group
    multiplications on direct edges, driven by dual-tree paths.
    """

    basis: str
    exponents: Dict[int, int] = field(default_factory=dict)
    group: FiniteGroup = None

    def inverse(self) -> "CorrectionPlan":
        inv = {e: self.group.inverse(x) for e, x in self.exponents.items()}
        return CorrectionPlan(basis=self.basis, exponents=inv, group=self.group)

    def as_dict(self) -> Dict[str, object]:
        """The plan's record in JSON types: basis and str-keyed exponents."""
        return {"basis": self.basis, "exponents": {str(e): int(x) for e, x in sorted(self.exponents.items())}}


def _transport(outcomes: Dict[int, int], paths, group: FiniteGroup, flip_sign: bool) -> Dict[int, int]:
    exps: Dict[int, int] = {}
    for site, c in outcomes.items():
        if c == 0:
            continue
        for edge, sign in paths[site]:
            against = sign == 1 if flip_sign else sign == -1
            step = group.inverse(c) if against else c
            exps[edge] = group.mul(exps.get(edge, 0), step)
    return {e: x for e, x in exps.items() if x != 0}


def charge_correction(s: SyndromeSet, cell: Cellulation, tree: Tree) -> CorrectionPlan:
    """Transport vertex charges to the tree root; boundary equals the syndrome.

    A rootward step along the edge arrow contributes the inverse charge, a
    step against the arrow the charge itself.
    """
    if s.kind != "charge":
        raise ValueError("charge_correction needs a charge syndrome")
    exps = _transport(s.outcomes, tree.path, s.group, flip_sign=True)
    return CorrectionPlan(basis="Z", exponents=exps, group=s.group)


def flux_correction(s: SyndromeSet, cell: Cellulation, dual_tree: Tree) -> CorrectionPlan:
    """Same transport on the dual graph; boundary equals the syndrome.

    Dual path signs record the walk sign of each edge in the plaquette being
    left, which is exactly the weight the flux boundary assigns.
    """
    if s.kind != "flux":
        raise ValueError("flux_correction needs a flux syndrome")
    exps = _transport(s.outcomes, dual_tree.path, s.group, flip_sign=False)
    return CorrectionPlan(basis="X", exponents=exps, group=s.group)
