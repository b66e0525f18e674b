"""Mobius function tables and the Hall / generalized Crapo identities.

All arithmetic is exact Python integers.  The Euler-characteristic side of
the Hall identity uses the REDUCED convention, with chi-tilde of the void
complex equal to -1 so the identity holds on the two-element chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import order_complex, reduced_euler
from .poset import Poset, PosetError, PosetMap, stable_preimage


@dataclass(frozen=True)
class MobiusTable:
    """mu(x,y) for all pairs x <= y; mu(x,x)=1 and rows of intervals sum to 0."""

    poset: Poset
    values: dict

    def __getitem__(self, pair: tuple[str, str]) -> int:
        x, y = pair
        if x not in self.poset or y not in self.poset:
            raise PosetError(f"unknown element in pair ({x!r}, {y!r})")
        if (x, y) not in self.values:
            raise PosetError(f"mu({x!r},{y!r}) undefined: not a related pair")
        return self.values[(x, y)]


def mobius_table(P: Poset) -> MobiusTable:
    values: dict[tuple[str, str], int] = {}
    order = P.linear_extension()
    for x in P.elements:
        values[(x, x)] = 1
        up = P.strictly_above(x)
        for y in order:
            if y not in up:
                continue
            between = P.strictly_below(y) & P.up_set(x)  # {z : x <= z < y}
            values[(x, y)] = -sum(values[(x, z)] for z in between)
    return MobiusTable(P, values)


@dataclass(frozen=True)
class HallCheck:
    mu: int
    reduced_euler: int
    equal: bool


def hall_check(P: Poset) -> HallCheck:
    """Compare mu(0,1) with the reduced Euler characteristic of the proper part."""
    bottom, top = P.minimum(), P.maximum()
    if len(P) < 2 or bottom is None or top is None:
        raise PosetError("hall_check needs a bounded poset with at least two elements")
    mu = mobius_table(P)[(bottom, top)]
    proper = set(P.elements) - {bottom, top}
    chi = reduced_euler(order_complex(P.induced(proper))) if proper else -1
    return HallCheck(mu, chi, mu == chi)


@dataclass(frozen=True)
class CrapoCheck:
    lhs: int
    rhs: int
    equal: bool
    case: str  # "fixed-zero" | "zero-not-fixed"


def crapo_check(P: Poset, phi: PosetMap, Q: Iterable[str]) -> CrapoCheck:
    """Generalized Crapo identity for an increasing map.

    lhs sums mu_P(0,z) over the stable preimage of the top; rhs is
    mu_Q(0,1) over the induced order on Q when the bottom is fixed, else 0.
    Inequality would mean a bug or a precondition breach, never new math.
    """
    if phi.domain != P:
        raise PosetError("the map's domain is not P")
    bottom, top = P.minimum(), P.maximum()
    if bottom is None or top is None or len(P) < 2:
        raise PosetError("crapo_check needs a bounded poset (missing 0-hat or 1-hat)")
    if not phi.increasing:
        raise PosetError("precondition not-increasing: the map must be increasing")
    Qset = frozenset(Q)
    if not Qset <= set(P.elements):
        raise PosetError(f"Q contains unknown elements: {sorted(Qset - set(P.elements))}")
    fix = phi.fixed_points()
    if not fix <= Qset:
        raise PosetError("precondition fix-not-in-Q: Q must contain Fix(phi)")
    preimage_top = stable_preimage(phi, top)
    if Qset & preimage_top != {top}:
        raise PosetError(
            "precondition Q-meets-preimage: Q may meet the stable preimage of "
            "1-hat only in 1-hat itself"
        )
    table = mobius_table(P)
    lhs = sum(table[(bottom, z)] for z in preimage_top)
    if bottom in fix:
        sub = mobius_table(P.induced(Qset))
        rhs = sub[(bottom, top)]
        case = "fixed-zero"
    else:
        rhs = 0
        case = "zero-not-fixed"
    return CrapoCheck(lhs, rhs, lhs == rhs, case)
