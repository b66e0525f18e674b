"""Nonevasiveness witnesses, NE-reduction certificates, and their searches.

A complex is nonevasive when it is a point or has a vertex whose link and
deletion are both nonevasive; `PointWitness`/`SplitWitness` record such a
recursion.  An NE-reduction removes vertices one at a time, each with a
nonevasive link; `NECertificate` records the removal order with one witness
per step.  All verification is by replay: links and deletions are recomputed
from scratch, so a verified object is trustworthy independently of how it was
found.

Deciding, searching, witness replay and certificate replay all run on int
facet masks over the vertex index of the complex they start from
(`complexes._masks`), not on `SimplicialComplex` objects: a link or deletion
is a set comprehension over a few ints, and labels are looked up only for
witness vertices and the final complex of a replay.

Everything here is immutable and the operations are pure functions; searches
are deterministic (vertices explored in label order) and budget-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .complexes import (
    ComplexError,
    SimplicialComplex,
    VoidComplex,
    _delete_m,
    _face,
    _link_m,
    _masks,
    _support,
    induced_subcomplex,
    join,
    z2_betti,
)


class _Outcome:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


EVASIVE = _Outcome("EVASIVE")
NOT_FOUND = _Outcome("NOT_FOUND")
BUDGET_EXCEEDED = _Outcome("BUDGET_EXCEEDED")


@dataclass(frozen=True)
class PointWitness:
    vertex: str


@dataclass(frozen=True)
class SplitWitness:
    vertex: str
    link: "Witness"
    deletion: "Witness"


Witness = Union[PointWitness, SplitWitness]


@dataclass(frozen=True)
class NECertificate:
    """Ordered vertex removals with a nonevasiveness witness per removed link."""

    removed: tuple[str, ...]
    witnesses: tuple[Witness, ...]

    def __post_init__(self):
        if len(self.removed) != len(self.witnesses):
            raise ValueError("certificate needs exactly one witness per removed vertex")

    def __len__(self) -> int:
        return len(self.removed)

    def steps(self):
        return zip(self.removed, self.witnesses)


@dataclass(frozen=True)
class SearchBudget:
    max_vertices: int = 16
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_nodes <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()


class _BudgetHit(Exception):
    pass


class _Counter:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise _BudgetHit


# -- deciding nonevasiveness ---------------------------------------------------
#
# The recursions below run on facet masks (see `complexes._masks`) over the
# vertex index of the complex they start from; memo and dead-state keys are
# mask sets over that one index, so they match labelled facet sets one to one.


def _decide(F: frozenset, memo: dict, counter: _Counter, labels: tuple[str, ...]):
    hit = memo.get(F)
    if hit is not None:
        return hit
    counter.spend()
    verts = _support(F)
    if not verts & (verts - 1):
        result: Witness | _Outcome = PointWitness(labels[verts.bit_length() - 1])
    else:
        result = EVASIVE
        while verts:
            bit = verts & -verts
            verts ^= bit
            lk = _link_m(F, bit)
            if not lk:
                continue
            wl = _decide(lk, memo, counter, labels)
            if wl is EVASIVE:
                continue
            wd = _decide(_delete_m(F, bit), memo, counter, labels)
            if wd is EVASIVE:
                continue
            result = SplitWitness(labels[bit.bit_length() - 1], wl, wd)
            break
    memo[F] = result
    return result


def is_nonevasive(X: SimplicialComplex, budget: SearchBudget = DEFAULT_BUDGET):
    """Exhaustive recursive search; returns a Witness, EVASIVE, or BUDGET_EXCEEDED.

    EVASIVE means every vertex failed at every level; it carries no proof
    object (no small certificate of evasiveness exists in general) and is
    relative to the budget.  Results are memoized by facet set within the run.
    """
    if isinstance(X, VoidComplex):
        raise ComplexError("the void complex has no evasiveness status")
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    _, F = _masks(X)
    try:
        return _decide(F, {}, _Counter(budget.max_nodes), X.vertices)
    except _BudgetHit:
        return BUDGET_EXCEEDED


def cone_witness(X: SimplicialComplex, apex: str) -> Witness:
    """Canonical witness for a cone: remove non-apex vertices in label order."""
    if any(apex not in f for f in X.facets):
        raise ComplexError(f"{apex!r} is not an apex: some facet misses it")
    bits, F = _masks(X)
    return _cone_witness(F, bits[apex], X.vertices)


def _cone_witness(F: frozenset, apex: int, labels: tuple[str, ...]) -> Witness:
    rest = _support(F) ^ apex
    if not rest:
        return PointWitness(labels[apex.bit_length() - 1])
    bit = rest & -rest
    # the link is a cone with the same apex: every facet containing v contains apex
    return SplitWitness(
        labels[bit.bit_length() - 1],
        _cone_witness(_link_m(F, bit), apex, labels),
        _cone_witness(_delete_m(F, bit), apex, labels),
    )


def _witness_holds(F: frozenset, w, bits: dict[str, int]) -> bool:
    # replay the recursion on masks, one witness node at a time
    stack = [(F, w)]
    while stack:
        F, w = stack.pop()
        if isinstance(w, PointWitness):
            if F != {bits.get(w.vertex)}:
                return False
            continue
        if not isinstance(w, SplitWitness):
            return False
        # an unknown or absent vertex, or the only one, has a void link
        bit = bits.get(w.vertex, 0)
        lk = _link_m(F, bit)
        if not lk:
            return False
        stack.append((_delete_m(F, bit), w.deletion))
        stack.append((lk, w.link))
    return True


def verify_witness(X, w) -> bool:
    """Replay the recursion, recomputing links and deletions; malformed => False."""
    if not isinstance(X, SimplicialComplex):
        return False
    bits, F = _masks(X)
    return _witness_holds(F, w, bits)


# -- NE-reduction certificates ---------------------------------------------------


def replay_certificate(X: SimplicialComplex, cert: NECertificate):
    """Apply the removals, verifying each link witness; the final complex, or
    None when any step fails."""
    if not len(cert):
        return X
    if not isinstance(X, SimplicialComplex):
        return None
    bits, F = _masks(X)
    for x, w in cert.steps():
        bit = bits.get(x, 0)
        lk = _link_m(F, bit)
        if not lk or not _witness_holds(lk, w, bits):
            return None
        F = _delete_m(F, bit)
    return SimplicialComplex([_face(f, X.vertices) for f in F])


def verify_ne_certificate(X, Y, cert) -> bool:
    if not isinstance(cert, NECertificate):
        return False
    end = replay_certificate(X, cert) if isinstance(X, SimplicialComplex) else None
    return end is not None and end == Y


def search_ne_reduction(
    X: SimplicialComplex, Y: SimplicialComplex, budget: SearchBudget = DEFAULT_BUDGET
):
    """Depth-first search for X NE-reducing to Y, pruning vertices with evasive
    links.  NOT_FOUND is exhaustive; BUDGET_EXCEEDED is not a verdict."""
    if not set(Y.vertices) <= set(X.vertices):
        raise ComplexError("target vertices must be a subset of the source vertices")
    for f in Y.facets:
        if not X.has_face(f):
            raise ComplexError("target is not a subcomplex of the source")
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    if induced_subcomplex(X, Y.vertices) != Y:
        # vertex removals always land on induced subcomplexes
        return NOT_FOUND
    bits, F = _masks(X)
    labels = X.vertices
    keep = sum(bits[v] for v in Y.vertices)
    memo: dict = {}
    counter = _Counter(budget.max_nodes)
    dead: set = set()

    def dfs(F: frozenset):
        verts = _support(F)
        if verts == keep:
            return []
        counter.spend()
        if F in dead:
            return None
        verts ^= keep
        while verts:
            bit = verts & -verts
            verts ^= bit
            lk = _link_m(F, bit)
            if not lk:
                continue
            w = _decide(lk, memo, counter, labels)
            if w is EVASIVE:
                continue
            rest = dfs(_delete_m(F, bit))
            if rest is not None:
                return [(labels[bit.bit_length() - 1], w)] + rest
        dead.add(F)
        return None

    try:
        found = dfs(F)
    except _BudgetHit:
        return BUDGET_EXCEEDED
    if found is None:
        return NOT_FOUND
    return NECertificate(tuple(v for v, _ in found), tuple(w for _, w in found))


# -- join compatibility ---------------------------------------------------------


def join_witness(X: SimplicialComplex, w: Witness, Y: SimplicialComplex) -> Witness:
    """Transport a witness for X to one for X*Y: split nodes keep their vertex,
    and when X has shrunk to a point p the join is a cone with apex p."""
    if set(X.vertices) & set(Y.vertices):
        raise ComplexError("join requires disjoint vertex labels")
    if not verify_witness(X, w):
        raise ComplexError("input witness does not verify")
    return _join_witness(w, Y)


def _join_witness(w: Witness, Y: SimplicialComplex) -> Witness:
    if isinstance(w, PointWitness):
        return cone_witness(join(SimplicialComplex.point(w.vertex), Y), w.vertex)
    return SplitWitness(w.vertex, _join_witness(w.link, Y), _join_witness(w.deletion, Y))


def lift_certificate_over_join(
    X1: SimplicialComplex, cert: NECertificate, Y: SimplicialComplex
) -> NECertificate:
    """From X1 NE-reducing to X2, certify X1*Y NE-reducing to X2*Y: the removal
    order is unchanged and each step witness is joined with Y."""
    if set(X1.vertices) & set(Y.vertices):
        raise ComplexError("join requires disjoint vertex labels")
    if replay_certificate(X1, cert) is None:
        raise ComplexError("input certificate does not verify")
    lifted = tuple(_join_witness(w, Y) for w in cert.witnesses)
    return NECertificate(cert.removed, lifted)


# -- common expansions (zigzag merging) ------------------------------------------


@dataclass(frozen=True)
class CommonExpansion:
    """D contains both A and C and NE-reduces to each: A up to D down to C."""

    complex: SimplicialComplex
    to_a: NECertificate
    to_c: NECertificate


def common_expansion(
    A: SimplicialComplex,
    B: SimplicialComplex,
    C: SimplicialComplex,
    cert_ab: NECertificate,
    cert_cb: NECertificate,
) -> CommonExpansion:
    """Merge the zigzag A down-to B up-to C over the shared subcomplex B.

    D glues C's extra vertices onto A exactly as they attach to B inside A;
    the links of A's removed vertices are untouched, so both input
    certificates replay verbatim from D."""
    if replay_certificate(A, cert_ab) != B:
        raise ComplexError("certificate from the first complex does not reach the middle one")
    if replay_certificate(C, cert_cb) != B:
        raise ComplexError("certificate from the second complex does not reach the middle one")
    s_side = set(A.vertices) - set(B.vertices)
    t_side = set(C.vertices) - set(B.vertices)
    if s_side & t_side:
        raise ComplexError(f"fresh vertex labels clash: {sorted(s_side & t_side)}")
    D = SimplicialComplex(list(A.facets) + list(C.facets))
    to_c = NECertificate(cert_ab.removed, cert_ab.witnesses)
    to_a = NECertificate(cert_cb.removed, cert_cb.witnesses)
    if not verify_ne_certificate(D, C, to_c) or not verify_ne_certificate(D, A, to_a):
        raise ComplexError("merged certificates failed replay verification")
    return CommonExpansion(D, to_a, to_c)


# -- exploring the equivalence classes --------------------------------------------


@dataclass(frozen=True)
class NEClassification:
    """Partition of a family into classes shown equivalent within budget.

    `undecided` pairs hit the budget; `provably_distinct` pairs differ in
    homology (equivalence would force equality).  Pairs in neither list and in
    different classes are merely not shown equivalent."""

    classes: tuple[tuple[int, ...], ...]
    undecided: tuple[tuple[int, int], ...]
    provably_distinct: tuple[tuple[int, int], ...]


def classify_ne_equivalence(
    family: Sequence[SimplicialComplex], budget: SearchBudget = DEFAULT_BUDGET
) -> NEClassification:
    n = len(family)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    homology = [z2_betti(X) for X in family]
    nonevasive = [is_nonevasive(X, budget) for X in family]
    undecided: list[tuple[int, int]] = []
    distinct: list[tuple[int, int]] = []

    def padded_equal(a, b):
        la, lb = list(a), list(b)
        while len(la) < len(lb):
            la.append(0)
        while len(lb) < len(la):
            lb.append(0)
        return la == lb

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            if not padded_equal(homology[i], homology[j]):
                distinct.append((i, j))
                continue
            budget_hit = nonevasive[i] is BUDGET_EXCEEDED or nonevasive[j] is BUDGET_EXCEEDED
            if not isinstance(nonevasive[i], _Outcome) and not isinstance(nonevasive[j], _Outcome):
                union(i, j)  # both reduce to a point; points are all equivalent
                continue
            linked = False
            Xi, Xj = family[i], family[j]
            for src, dst in ((Xi, Xj), (Xj, Xi)):
                if set(dst.vertices) <= set(src.vertices):
                    try:
                        res = search_ne_reduction(src, dst, budget)
                    except ComplexError:
                        continue
                    if res is BUDGET_EXCEEDED:
                        budget_hit = True
                    elif isinstance(res, NECertificate):
                        linked = True
                        break
            if not linked:
                shared = set(Xi.vertices) & set(Xj.vertices)
                if shared:
                    Bi = induced_subcomplex(Xi, shared)
                    Bj = induced_subcomplex(Xj, shared)
                    if Bi == Bj and not isinstance(Bi, VoidComplex):
                        ri = search_ne_reduction(Xi, Bi, budget)
                        rj = search_ne_reduction(Xj, Bj, budget)
                        if ri is BUDGET_EXCEEDED or rj is BUDGET_EXCEEDED:
                            budget_hit = True
                        elif isinstance(ri, NECertificate) and isinstance(rj, NECertificate):
                            common_expansion(Xi, Bi, Xj, ri, rj)
                            linked = True
            if linked:
                union(i, j)
            elif budget_hit:
                undecided.append((i, j))

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return NEClassification(classes, tuple(undecided), tuple(distinct))
