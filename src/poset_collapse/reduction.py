"""Constructive NE-reduction of order complexes along monotone self-maps.

The engine: for a monotone map f and any Q between P and Fix(f), the order
complex of P NE-reduces to the order complex of Q.  Each removed vertex x has
link Delta(P_<x) * Delta(P_>x); when the (stabilized) map sends x strictly
down, Delta(P_<x) is nonevasive via an explicit recursion that peels the
elements of P_<x not below f(x) in decreasing linear-extension order and
finishes at the cone Delta(P_<=f(x)) with apex f(x).  The strictly-up case is
the same construction on the dual poset.

The construction runs on element masks over P's sorted elements, with the
stabilized map as an int table.  It rests on two facts about order
complexes, for S a set of elements and v in S:

- the link of v in Delta(S) is Delta(S & comp v), where comp v holds the
  elements comparable to v, other than v;
- the deletion of v from Delta(S) is Delta(S - v).

So a subposet is one int, a link or a deletion is one AND, and the
label-least element is the lowest bit; no induced poset, order complex or
`PosetMap` is built per removed element.  `_IntervalBuilder` hands these
operations to the witness kernel of `evasiveness`, whose one memoised walk
builds the peels and the cones, and which checks and transports witnesses
over joins, all on explicit stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Iterable, Optional, Sequence

from .collapse import CollapseSequence, certificate_to_collapse
from .complexes import order_complex
from .evasiveness import NECertificate, Witness, _Kernel
from .poset import Poset, PosetError, PosetMap, _table_power, stabilize


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of a reduction: the stabilized map actually used, the removal
    order, the certificate, and optionally the compiled collapse.

    Each witness of the certificate is replayed before it is joined with the
    other side of its interval, but the certificate as a whole is checked
    only with `emit_collapse=True`: the compiler replays each step's witness
    with the witness kernel and then emits its collapse.  Otherwise check it
    with `verify_ne_certificate`."""

    gamma: PosetMap
    removal_order: tuple[str, ...]
    certificate: NECertificate
    collapse: Optional[CollapseSequence] = None


class _IntervalBuilder(_Kernel):
    """Interval witnesses in one poset P under one int table g over P's
    sorted elements.  The witness kernel runs on element masks: a state S is
    Delta(S), by the two facts of the module docstring."""

    __slots__ = ("down", "up", "comp", "g", "_peels")

    def __init__(self, P: Poset, g: Sequence[int]):
        bits = {e: 1 << i for i, e in enumerate(P.elements)}
        super().__init__(P.elements, bits)
        self.down, self.up, self.g = P._below, P._above, g
        self.comp = dict(zip(bits.values(), map(or_, P._below, P._above)))
        self._peels = ({}, {})  # the memos of `descending` in P's order and in its dual

    def link(self, S: int, bit: int) -> int:
        return S & self.comp[bit] if S & bit else 0  # void when bit is not in S

    delete = staticmethod(lambda S, bit: S & ~bit)
    support = point = staticmethod(lambda S: S)  # a mask is its own support
    over = staticmethod(or_)  # Delta(Y | p) for p comparable to all of Y

    def descending(self, B: int, top: int, down: Sequence[int], up: Sequence[int]) -> Witness:
        """Witness that Delta(B) is nonevasive, for B an open lower interval
        (in the order whose rows are `down`/`up`) whose map sends every element
        not below `top` strictly down, with g(x) = top for the removed
        interval's element x.

        Peels B minus the down-set of `top`, down to a cone with apex `top`."""
        tbit = 1 << top
        if not B & tbit:
            raise PosetError(f"unknown element {self.labels[top]!r}")
        g, labels, cone_step = self.g, self.labels, self._cone_step

        def peel(T: int, abit: int):
            t = abit.bit_length() - 1
            removable = T & ~(down[t] | abit)
            if not removable:
                if not T & abit:
                    raise PosetError(f"unknown element {labels[t]!r}")
                return cone_step(T, abit)
            # the label-least element that is maximal among the removable ones
            m = removable
            while up[(m & -m).bit_length() - 1] & removable:
                m &= m - 1
            a = m & -m
            # nothing in T lies above a (it would be <= the apex, and a too): lk a = Delta(T & down[a]).
            # g(a) < a here: a <= nothing above the apex, so an image above a would
            # force a < g(a) <= the apex and land a inside the peeled-off down-set
            return a, 1 << g[a.bit_length() - 1]

        return self._walk(B, tbit, self._peels[down is not self.down], peel)

    def interval(self, cur: int, x: int) -> Witness:
        """Witness for the link of x in Delta(cur), where g moves x."""
        down, up = self.down, self.up
        if not down[x] >> self.g[x] & 1:
            # invert the partial order: the same construction applies above x
            down, up = up, down
        B = cur & down[x]
        w = self.descending(B, self.g[x], down, up)
        other = cur & up[x]
        if other:
            w = self.join(B, w, other)
        return w


def interval_witness(P: Poset, phi: PosetMap, x: str) -> Witness:
    """Witness that Delta(P_<x) * Delta(P_>x) — the link of x in Delta(P) — is
    nonevasive, provided the monotone map moves x."""
    if phi.domain != P:
        raise PosetError("the map's domain is not P")
    if not phi.monotone:
        raise PosetError("interval_witness requires a monotone map")
    fx = phi(x)
    if fx == x:
        raise PosetError(f"{x!r} is a fixed point; its link needs no witness here")
    builder = _IntervalBuilder(P, phi._t)
    return builder.interval((1 << len(P)) - 1, P._check(x))


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
    if phi.domain != P:
        raise PosetError("the map's domain is not P")
    if not phi.monotone:
        raise PosetError("theorem_reduce requires a monotone map")
    Qset = frozenset(Q)
    unknown = Qset - set(P.elements)
    if unknown:
        raise PosetError(f"Q contains unknown elements: {sorted(unknown)}")
    if not phi.fixed_points() <= Qset:
        raise PosetError("Q must contain every fixed point of the map")
    g = _table_power(phi._t, len(P) - len(Qset))
    qmask = 0
    for e in Qset:
        qmask |= 1 << P._index[e]
    if all(qmask >> i & 1 for i in g):
        gamma = PosetMap._from_table(P, g)
    else:
        gamma = stabilize(phi)
        if not gamma.image() <= Qset:
            raise PosetError("the stabilized map leaves Q: its image is not Fix(phi)")
        g = gamma._t
    # Only elements outside Q are removed, so gamma maps every current
    # subposet into Q inside it.  A restriction of a monotone map that is
    # closed on its subposet is monotone, so this one check covers them all.
    if not gamma.monotone:
        raise PosetError("power of a monotone map must be monotone")

    builder = _IntervalBuilder(P, g)
    cur = (1 << len(P)) - 1
    rest = cur & ~qmask
    removed: list[str] = []
    witnesses: list[Witness] = []
    while rest:
        bit = rest & -rest
        x = bit.bit_length() - 1
        witnesses.append(builder.interval(cur, x))
        removed.append(P.elements[x])
        cur ^= bit
        rest ^= bit
    cert = NECertificate(tuple(removed), tuple(witnesses))
    collapse = certificate_to_collapse(order_complex(P), cert) if emit_collapse else None
    return ReductionReport(gamma, tuple(removed), cert, collapse)


def reduce_to_image(P: Poset, phi: PosetMap, emit_collapse: bool = False) -> ReductionReport:
    """Theorem specialization Q = phi(P); fixed points always lie in the image."""
    if not phi.monotone:
        raise PosetError("reduce_to_image requires a monotone map")
    return theorem_reduce(P, phi, phi.image(), emit_collapse=emit_collapse)
