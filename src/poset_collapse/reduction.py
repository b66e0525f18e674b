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

So a subposet is one int, a link is one AND, a deletion is one XOR, and the
label-least element is the lowest bit; no induced poset, order complex or
`PosetMap` is built per removed element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .collapse import CollapseSequence, certificate_to_collapse
from .complexes import ComplexError, order_complex
from .evasiveness import NECertificate, PointWitness, SplitWitness, Witness
from .poset import Poset, PosetError, PosetMap, _table_power, stabilize


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of a reduction: the stabilized map actually used, the removal
    order, the certificate, and optionally the compiled collapse.

    Each witness of the certificate is replayed before it is joined with the
    other side of its interval, but the certificate as a whole is checked
    node by node only with `emit_collapse=True`, while it is compiled into
    the collapse.  Otherwise check it with `verify_ne_certificate`."""

    gamma: PosetMap
    removal_order: tuple[str, ...]
    certificate: NECertificate
    collapse: Optional[CollapseSequence] = None


class _IntervalBuilder:
    """Interval witnesses in one poset P under one int table g over P's
    sorted elements; subposets of P are element masks.  Cones are memoised
    per builder, so equal subtrees of the witnesses it returns are shared."""

    __slots__ = ("labels", "index", "down", "up", "comp", "g", "_cones")

    def __init__(self, P: Poset, g: Sequence[int]):
        self.labels = P.elements
        self.index = P._index
        self.down = P._below
        self.up = P._above
        self.comp = tuple(d | u for d, u in zip(P._below, P._above))
        self.g = g
        self._cones: dict[tuple[int, int], Witness] = {}

    def cone(self, S: int, apex: int) -> Witness:
        """The witness of `cone_witness(Delta(S), apex)`: remove the non-apex
        elements in label order.  The deletions run in a loop and only the
        links recurse, so the depth is bounded by the height of S."""
        cones, comp, labels = self._cones, self.comp, self.labels
        abit = 1 << apex
        splits = []
        while (S, apex) not in cones:
            # apex lies in every maximal chain of S iff it is comparable to all of S
            if S & ~comp[apex] != abit:
                raise ComplexError(f"{labels[apex]!r} is not an apex: some facet misses it")
            rest = S ^ abit
            if not rest:
                cones[(S, apex)] = PointWitness(labels[apex])
                break
            v = (rest & -rest).bit_length() - 1
            splits.append((S, v, self.cone(S & comp[v], apex)))
            S ^= 1 << v
        w = cones[(S, apex)]
        for S, v, wl in reversed(splits):
            w = cones[(S, apex)] = SplitWitness(labels[v], wl, w)
        return w

    def descending(self, B: int, top: int, down: Sequence[int], up: Sequence[int]) -> Witness:
        """Witness that Delta(B) is nonevasive, for B an open lower interval
        (in the order whose rows are `down`/`up`) whose map sends every element
        not below `top` strictly down, with g(x) = top for the removed
        interval's element x.

        Peels B minus the down-set of `top` in a loop; the final complex is a
        cone with apex `top`."""
        tbit = 1 << top
        if not B & tbit:
            raise PosetError(f"unknown element {self.labels[top]!r}")
        splits = []
        removable = B & ~(down[top] | tbit)
        while removable:
            # the label-least element that is maximal among the removable ones
            m = removable
            while up[(m & -m).bit_length() - 1] & removable:
                m &= m - 1
            abit = m & -m
            a = abit.bit_length() - 1
            # nothing in B lies above a (it would be <= top, and a too): lk a = Delta(B & down[a]).
            # g(a) < a here: a <= nothing above top, so an image above a would
            # force a < g(a) <= top and land a inside the peeled-off down-set
            splits.append((a, self.descending(B & down[a], self.g[a], down, up)))
            B ^= abit
            removable ^= abit
        w = self.cone(B, top)
        for a, wl in reversed(splits):
            w = SplitWitness(self.labels[a], wl, w)
        return w

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

    def join(self, X: int, w: Witness, Y: int) -> Witness:
        """`join_witness(Delta(X), w, Delta(Y))` for X entirely below or
        entirely above Y, so that the join is Delta(X | Y): split nodes keep
        their vertex, and each point p becomes the cone Delta(Y | p) with
        apex p."""
        if X & Y:
            raise ComplexError("join requires disjoint vertex labels")
        if not self._holds(X, w):
            raise ComplexError("input witness does not verify")
        return self._transport(w, Y, {})

    def _transport(self, w: Witness, Y: int, done: dict) -> Witness:
        # `done` is keyed by node id: every node of the input is alive while the input
        # is, and shared subtrees are transported once; only links recurse
        splits = []
        out = done.get(id(w))
        while out is None and isinstance(w, SplitWitness):
            splits.append((w, self._transport(w.link, Y, done)))
            w = w.deletion
            out = done.get(id(w))
        if out is None:
            p = self.index[w.vertex]
            out = done[id(w)] = self.cone(Y | 1 << p, p)
        for s, wl in reversed(splits):
            out = done[id(s)] = SplitWitness(s.vertex, wl, out)
        return out

    def _holds(self, S: int, w: Witness) -> bool:
        # `verify_witness(Delta(S), w)` by the two facts of the module
        # docstring; a shared subtree is replayed once per element mask
        index, comp = self.index, self.comp
        seen = set()
        stack = [(S, w)]
        while stack:
            S, w = stack.pop()
            if (S, id(w)) in seen:
                continue
            seen.add((S, id(w)))
            i = index.get(w.vertex)
            if i is None:
                return False
            bit = 1 << i
            if isinstance(w, PointWitness):
                if S != bit:
                    return False
                continue
            # an absent vertex, or one comparable to nothing left, has a void link
            if not S & bit or not S & comp[i]:
                return False
            stack.append((S ^ bit, w.deletion))
            stack.append((S & comp[i], w.link))
        return True


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
