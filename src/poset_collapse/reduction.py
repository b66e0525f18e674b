"""Constructive NE-reduction of order complexes along monotone self-maps.

The engine: for a monotone map f and any Q between P and Fix(f), the order
complex of P NE-reduces to the order complex of Q.  Each removed vertex x has
link Delta(P_<x) * Delta(P_>x); when the (stabilized) map sends x strictly
down, Delta(P_<x) is nonevasive via an explicit recursion that peels the
elements of P_<x not below f(x) in decreasing linear-extension order and
finishes at the cone Delta(P_<=f(x)) with apex f(x).  The strictly-up case is
the same construction on the dual poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .collapse import CollapseSequence, certificate_to_collapse
from .complexes import SimplicialComplex, order_complex
from .evasiveness import (
    NECertificate,
    SplitWitness,
    Witness,
    cone_witness,
    join_witness,
)
from .poset import Poset, PosetError, PosetMap, stabilize


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of a reduction: the stabilized map actually used, the removal
    order, the verified certificate, and optionally the compiled collapse."""

    gamma: PosetMap
    removal_order: tuple[str, ...]
    certificate: NECertificate
    collapse: Optional[CollapseSequence] = None


def _greedy_decreasing(B: Poset, subset: Iterable[str]) -> list[str]:
    # decreasing linear extension of `subset` inside B: repeatedly take the
    # label-least element that is maximal among the remaining ones
    remaining = set(subset)
    order = []
    while remaining:
        for e in sorted(remaining):
            if not any(B.lt(e, o) for o in remaining):
                order.append(e)
                remaining.remove(e)
                break
    return order


def _descending_witness(B: Poset, f: Mapping[str, str], top: str) -> Witness:
    """Witness that Delta(B) is nonevasive, for B an open lower interval whose
    restricted map sends every element not below `top` strictly down, with
    f(x) = top for the removed interval's element x.

    Peels B \\ {y : y <= top}; the final complex is a cone with apex `top`.
    """
    target = B.down_set(top)
    removable = [e for e in B.elements if e not in target]
    if not removable:
        return cone_witness(order_complex(B), top)
    a = _greedy_decreasing(B, removable)[0]
    below = B.induced(B.strictly_below(a))
    # f[a] < a here: a <= nothing above top, so an image above a would force
    # a < f(a) <= top and land a inside the peeled-off down-set
    wl = _descending_witness(below, f, f[a])
    above = B.strictly_above(a)
    if above:
        wl = join_witness(order_complex(below), wl, order_complex(B.induced(above)))
    deletion = B.induced(set(B.elements) - {a})
    wd = _descending_witness(deletion, f, top)
    return SplitWitness(a, wl, wd)


def interval_witness(P: Poset, phi: PosetMap, x: str) -> Witness:
    """Witness that Delta(P_<x) * Delta(P_>x) — the link of x in Delta(P) — is
    nonevasive, provided the monotone map moves x."""
    if not phi.monotone:
        raise PosetError("interval_witness requires a monotone map")
    fx = phi(x)
    if fx == x:
        raise PosetError(f"{x!r} is a fixed point; its link needs no witness here")
    below = P.strictly_below(x)
    above = P.strictly_above(x)
    if P.lt(fx, x):
        B = P.induced(below)
        w = _descending_witness(B, phi.table, fx)
        if above:
            w = join_witness(order_complex(B), w, order_complex(P.induced(above)))
    else:
        # invert the partial order: the same construction applies above x
        B = P.induced(above)
        w = _descending_witness(B.dual(), phi.table, fx)
        if below:
            w = join_witness(order_complex(B), w, order_complex(P.induced(below)))
    return w


def theorem_reduce(
    P: Poset,
    phi: PosetMap,
    Q: Iterable[str],
    emit_collapse: bool = False,
) -> ReductionReport:
    """NE-reduce Delta(P) to Delta(Q) for monotone phi with Fix(phi) <= Q <= P.

    Replaces phi by gamma = phi^{|P \\ Q|}; if that exponent leaves the image
    outside Q (possible when Q holds non-fixed points off the removal set),
    falls back to the full stabilization phi^{|P|}, whose image is Fix(phi).
    Then removes the label-least element of P \\ Q at each step, certifying
    each link through the interval construction on the current restriction.
    """
    if len(P) == 0:
        raise PosetError("cannot reduce over an empty poset")
    if not phi.monotone:
        raise PosetError("theorem_reduce requires a monotone map")
    Qset = frozenset(Q)
    unknown = Qset - set(P.elements)
    if unknown:
        raise PosetError(f"Q contains unknown elements: {sorted(unknown)}")
    if not phi.fixed_points() <= Qset:
        raise PosetError("Q must contain every fixed point of the map")
    gamma = phi.power(len(P) - len(Qset))
    if not gamma.image() <= Qset:
        gamma = stabilize(phi)
        if not gamma.image() <= Qset:
            raise PosetError("the stabilized map leaves Q: its image is not Fix(phi)")

    cur = P
    table = gamma.table
    removed: list[str] = []
    witnesses: list[Witness] = []
    while True:
        rest = [e for e in cur.elements if e not in Qset]
        if not rest:
            break
        x = rest[0]
        cur_map = PosetMap(cur, {e: table[e] for e in cur.elements})
        witnesses.append(interval_witness(cur, cur_map, x))
        removed.append(x)
        cur = cur.induced(set(cur.elements) - {x})
    cert = NECertificate(tuple(removed), tuple(witnesses))
    collapse = certificate_to_collapse(order_complex(P), cert) if emit_collapse else None
    return ReductionReport(gamma, tuple(removed), cert, collapse)


def reduce_to_image(P: Poset, phi: PosetMap, emit_collapse: bool = False) -> ReductionReport:
    """Theorem specialization Q = phi(P); fixed points always lie in the image."""
    if not phi.monotone:
        raise PosetError("reduce_to_image requires a monotone map")
    return theorem_reduce(P, phi, phi.image(), emit_collapse=emit_collapse)
