"""Nonevasiveness witnesses, NE-reduction certificates, and their searches.

A complex is nonevasive when it is a point or has a vertex whose link and
deletion are both nonevasive; `PointWitness`/`SplitWitness` record such a
recursion.  An NE-reduction removes vertices one at a time, each with a
nonevasive link; `NECertificate` records the removal order with one witness
per step.  All verification is by replay: links and deletions are recomputed
from scratch, so a verified object is trustworthy independently of how it was
found.

Deciding, searching, witness replay and certificate replay all run on the int
facet masks a complex stores, re-indexed to one joint vertex index for a join
(`complexes._masks`): a link or deletion is a set comprehension over a few
ints, and labels are looked up only for witness vertices.

Cones, join transport and witness replay are written once, in `_Kernel`,
against five primitives of a state S, a complex in some encoding that is falsy
when void: link(S, bit), delete(S, bit), support(S), point(bit) and over(Y, bit),
the cone over Y with that apex.  `_Facets` encodes a complex by its facet
masks; `reduction._IntervalBuilder` encodes the order complex of a subposet by
its element mask.  One memoised walk on an explicit stack builds cones and
interval peels alike, at any depth and with equal subtrees as one object.

Everything here is immutable and the operations are pure functions; searches
are deterministic (vertices explored in label order) and budget-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap, zip_longest
from operator import eq
from typing import Sequence, Union

from .complexes import (
    ComplexError,
    SimplicialComplex,
    VoidComplex,
    _bit,
    _delete_m,
    _link_m,
    _masks,
    _maximalize,
    _sub_masks,
    _support,
    induced_subcomplex,
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


@dataclass(frozen=True, eq=False, repr=False)
class SplitWitness:
    """A split at `vertex`, with witnesses for its link and its deletion.

    Two witnesses are equal iff their roots are of one class and they write
    the same node table (`_rows`), whose inner nodes are classified as the
    witness kernel classifies them: a split is any `SplitWitness`, subclasses
    too.  Equality thus ignores how subtrees are shared, and `hash` hashes the
    table.  `==` walks the two tables only for distinct roots of one class and
    vertex, side by side (`_walk_rows`), and stops at the first row that differs.
    `repr` gives the dataclass text.  All three work at any depth, on stacks."""

    vertex: str
    link: "Witness"
    deletion: "Witness"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other is self or (self.vertex,) != (other.vertex,):  # root rows compare as rows do
            return other is self
        try:  # row by row, up to the first row that differs
            return all(starmap(eq, zip_longest(_walk_rows((self,), {}), _walk_rows((other,), {}))))
        except (TypeError, AttributeError):
            # an unhashable label or a non-witness node: compare as the dataclass does
            return (self.vertex, self.link, self.deletion) == (other.vertex, other.link, other.deletion)

    def __hash__(self):
        try:
            return hash(tuple(_rows((self,))[0]))  # the root is the last row
        except AttributeError:  # a non-witness node
            return hash((self.vertex, self.link, self.deletion))

    def __repr__(self):
        parts = []
        stack = [(False, self)]
        while stack:
            text, item = stack.pop()
            if text:
                parts.append(item)
            elif isinstance(item, SplitWitness):
                parts.append(f"{type(item).__qualname__}(vertex={item.vertex!r}, link=")
                stack += [(True, ")"), (False, item.deletion), (True, ", deletion="), (False, item.link)]
            else:
                parts.append(repr(item))
        return "".join(parts)


Witness = Union[PointWitness, SplitWitness]


def _rows(roots) -> tuple[list[tuple], list[int]]:
    """The node table of the witnesses `roots`: each distinct row, (v,) for
    a point v or (v, link row, deletion row) for a split at v, and the row of
    each root.  Rows come children first, in the order in which the expanded
    trees first reach them (link before deletion), so equal witnesses give
    equal tables however their subtrees are shared.  A split is any
    `SplitWitness`, as the witness kernel classifies it."""
    at: dict[int, int] = {}
    rows = list(_walk_rows(roots, at))
    return rows, [at[id(w)] for w in roots]


def _walk_rows(roots, at: dict):
    """The rows of `_rows(roots)`, each yielded as the walk first makes it,
    so a caller can stop early; `at` gets each node's row, keyed by id(node),
    and every node is alive while the roots are."""
    rows: dict[tuple, int] = {}
    for root in roots:
        stack = [root]
        while stack:
            w = stack[-1]
            if id(w) in at:
                stack.pop()
                continue
            if isinstance(w, SplitWitness):
                todo = [c for c in (w.deletion, w.link) if id(c) not in at]
                if todo:
                    stack += todo
                    continue
                key = (w.vertex, at[id(w.link)], at[id(w.deletion)])
            else:
                key = (w.vertex,)
            stack.pop()
            n = len(rows)
            at[id(w)] = i = rows.setdefault(key, n)
            if i == n:
                yield key


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
    """Limits of one search.  `is_nonevasive` and `search_ne_reduction` recurse
    once per vertex, so they also count more than 512 vertices as over budget."""

    max_vertices: int = 16
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_nodes <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()

_RECURSION_VERTICES = 512  # leaves room under the default recursion limit of 1000


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
    # F is not in `memo`: a hit spends nothing and most lookups hit, so callers
    # save the call with `memo.get(S) or _decide(S, ...)` (no value is falsy)
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
            wl = memo.get(lk) or _decide(lk, memo, counter, labels)
            if wl is EVASIVE:
                continue
            wd = memo.get(dl := _delete_m(F, bit)) or _decide(dl, memo, counter, labels)
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
    if len(X.vertices) > min(budget.max_vertices, _RECURSION_VERTICES):
        return BUDGET_EXCEEDED
    _, F = _masks(X)
    try:
        return _decide(F, {}, _Counter(budget.max_nodes), X.vertices)
    except _BudgetHit:
        return BUDGET_EXCEEDED


# -- the witness kernel (see the module docstring) ---------------------------------


class _Kernel:
    __slots__ = ("labels", "bits", "_cones")

    def __init__(self, labels: tuple[str, ...], bits: dict[str, int]):
        self.labels = labels
        self.bits = bits
        self._cones: dict = {}

    def _walk(self, S, abit: int, memo: dict, step) -> Witness:
        """The witness of state S with apex `abit`: `step(T, a)` names the
        vertex to split T at and the apex of its link, or 0 when T is the
        point a; the deletion keeps the apex.  `memo` is keyed by (state, apex)."""
        link, delete, labels = self.link, self.delete, self.labels
        stack = [(S, abit, 0, 0, None, None)]
        while stack:
            T, a, bit, b, lk, dl = stack.pop()
            if bit:
                memo[T, a] = SplitWitness(labels[bit.bit_length() - 1], memo[lk, b], memo[dl, a])
            elif (T, a) not in memo:
                bit, b = step(T, a)
                if not bit:
                    memo[T, a] = PointWitness(labels[a.bit_length() - 1])
                    continue
                lk, dl = link(T, bit), delete(T, bit)
                stack += ((T, a, bit, b, lk, dl), (dl, a, 0, 0, None, None), (lk, b, 0, 0, None, None))
        return memo[S, abit]

    def _cone_step(self, T, abit: int):
        # split at the label-least non-apex vertex; the link keeps the apex
        rest = self.support(T) ^ abit
        return rest & -rest, abit

    def cone(self, S, apex: int) -> Witness:
        """The witness of the cone S with apex `labels[apex]`: remove the
        non-apex vertices in label order.  Cones are memoised per kernel."""
        abit = 1 << apex
        # every facet contains the apex iff the link equals the deletion; links
        # and deletions of a cone keep its apex, so the root is checked alone
        if (S, abit) not in self._cones and (not S or self.link(S, abit) != self.delete(S, abit)):
            raise ComplexError(f"{self.labels[apex]!r} is not an apex: some facet misses it")
        return self._walk(S, abit, self._cones, self._cone_step)

    def join(self, X, w: Witness, Y) -> Witness:
        """`join_witness` on states: check w on X, then transport it over Y."""
        if self.support(X) & self.support(Y):
            raise ComplexError("join requires disjoint vertex labels")
        if not self._holds(X, w):
            raise ComplexError("input witness does not verify")
        return self._transport((w,), Y)[0]

    def _transport(self, roots, Y) -> list[Witness]:
        # the roots' node table, row by row: a split keeps its vertex and each
        # point p becomes the cone over Y with apex p, so shared and equal
        # subtrees are transported once
        bits, over, cone = self.bits, self.over, self.cone
        rows, at = _rows(roots)
        out: list[Witness] = []
        for row in rows:
            if len(row) == 1:
                bit = bits[row[0]]
                out.append(cone(over(Y, bit), bit.bit_length() - 1))
            else:
                out.append(SplitWitness(row[0], out[row[1]], out[row[2]]))
        return [out[i] for i in at]

    def _holds(self, S, w) -> bool:
        # `verify_witness` on state S: replay one witness node at a time; a
        # shared subtree is replayed once per state.  Malformed => False.
        bits, link, delete, point = self.bits, self.link, self.delete, self.point
        seen = set()
        stack = [(S, w)]
        while stack:
            S, w = stack.pop()
            if isinstance(w, PointWitness):
                if S != point(_bit(bits, w.vertex)):
                    return False
                continue
            if (S, id(w)) in seen:
                continue
            seen.add((S, id(w)))
            # a non-witness, an unknown or absent vertex, or the only one, has a void link
            bit = _bit(bits, w.vertex) if isinstance(w, SplitWitness) else 0
            lk = link(S, bit)
            if not lk:
                return False
            stack += ((delete(S, bit), w.deletion), (lk, w.link))
        return True


class _Facets(_Kernel):
    """The kernel on facet masks over one vertex index (`complexes._masks`)."""

    __slots__ = ()
    link = staticmethod(_link_m)
    delete = staticmethod(_delete_m)
    support = staticmethod(_support)
    point = staticmethod(lambda bit: frozenset((bit,)))
    over = staticmethod(lambda Y, bit: frozenset(f | bit for f in Y))


def cone_witness(X: SimplicialComplex, apex: str) -> Witness:
    """Canonical witness for a cone: remove non-apex vertices in label order."""
    # an unknown apex, unhashable ones too, gets a bit of its own, which no facet holds
    bits, F = _masks(X)
    i = X.vertices.index(apex) if apex in X.vertices else len(X.vertices)
    return _Facets((*X.vertices, apex), bits).cone(F, i)


def verify_witness(X, w) -> bool:
    """Replay the recursion, recomputing links and deletions; malformed => False."""
    if not isinstance(X, SimplicialComplex):
        return False
    bits, F = _masks(X)
    return _Facets(X.vertices, bits)._holds(F, w)


# -- NE-reduction certificates ---------------------------------------------------


def replay_certificate(X: SimplicialComplex, cert: NECertificate):
    """Apply the removals, verifying each link witness; the final complex, or
    None when any step fails."""
    if not len(cert):
        return X
    if not isinstance(X, SimplicialComplex):
        return None
    bits, F = _masks(X)
    kernel = _Facets(X.vertices, bits)
    for x, w in cert.steps():
        bit = _bit(bits, x)
        lk = _link_m(F, bit)
        if not lk or not kernel._holds(lk, w):
            return None
        F = _delete_m(F, bit)
    return SimplicialComplex._from_masks(X.vertices, F)


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
    keep = _support(_sub_masks(X, Y))
    if induced_subcomplex(X, Y.vertices) != Y:
        # vertex removals always land on induced subcomplexes
        return NOT_FOUND
    if len(X.vertices) > min(budget.max_vertices, _RECURSION_VERTICES):
        return BUDGET_EXCEEDED
    labels = X.vertices
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
            w = memo.get(lk) or _decide(lk, memo, counter, labels)
            if w is EVASIVE:
                continue
            rest = dfs(_delete_m(F, bit))
            if rest is not None:
                return [(labels[bit.bit_length() - 1], w)] + rest
        dead.add(F)
        return None

    try:
        found = dfs(_masks(X)[1])
    except _BudgetHit:
        return BUDGET_EXCEEDED
    if found is None:
        return NOT_FOUND
    return NECertificate(tuple(v for v, _ in found), tuple(w for _, w in found))


# -- join compatibility ---------------------------------------------------------


def join_witness(X: SimplicialComplex, w: Witness, Y: SimplicialComplex) -> Witness:
    """Transport a witness for X to one for X*Y: split nodes keep their vertex,
    and when X has shrunk to a point p the join is a cone with apex p."""
    vertices = tuple(sorted({*X.vertices, *Y.vertices}))  # a shared label shares its bit
    bits, FX = _masks(X, vertices)
    return _Facets(vertices, bits).join(FX, w, _masks(Y, vertices)[1])


def lift_certificate_over_join(
    X1: SimplicialComplex, cert: NECertificate, Y: SimplicialComplex
) -> NECertificate:
    """From X1 NE-reducing to X2, certify X1*Y NE-reducing to X2*Y: the removal
    order is unchanged and each step witness is joined with Y, in one kernel."""
    if set(X1.vertices) & set(Y.vertices):
        raise ComplexError("join requires disjoint vertex labels")
    if replay_certificate(X1, cert) is None:
        raise ComplexError("input certificate does not verify")
    vertices = tuple(sorted({*X1.vertices, *Y.vertices}))
    bits, FY = _masks(Y, vertices)
    return NECertificate(cert.removed, tuple(_Facets(vertices, bits)._transport(cert.witnesses, FY)))


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
    vertices = tuple(sorted({*A.vertices, *C.vertices}))
    D = SimplicialComplex._from_masks(vertices, _maximalize(_masks(A, vertices)[1] | _masks(C, vertices)[1]))
    if not verify_ne_certificate(D, C, cert_ab) or not verify_ne_certificate(D, A, cert_cb):
        raise ComplexError("merged certificates failed replay verification")
    return CommonExpansion(D, cert_cb, cert_ab)


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

    homology = [list(z2_betti(X)) for X in family]
    for betti in homology:  # without trailing zeros, equal homology compares equal
        while betti and not betti[-1]:
            betti.pop()
    nonevasive = [is_nonevasive(X, budget) for X in family]
    undecided: list[tuple[int, int]] = []
    distinct: list[tuple[int, int]] = []

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            if homology[i] != homology[j]:
                distinct.append((i, j))
                continue
            budget_hit = nonevasive[i] is BUDGET_EXCEEDED or nonevasive[j] is BUDGET_EXCEEDED
            if not isinstance(nonevasive[i], _Outcome) and not isinstance(nonevasive[j], _Outcome):
                union(i, j)  # both reduce to a point; points are all equivalent
                continue
            # this also finds a reduction of one complex onto the other: the
            # shared part is then all of the target, reached in no steps
            Xi, Xj = family[i], family[j]
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
                        union(i, j)
                        continue
            if budget_hit:
                undecided.append((i, j))

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    return NEClassification(classes, tuple(undecided), tuple(distinct))
