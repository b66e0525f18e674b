"""Elementary collapses and the compiler from NE-certificates to collapse sequences.

A free face is a face with exactly one proper coface; removing the open pair
is an elementary collapse.  Replay, search and the one-shot helpers all step
a FaceStore, which keeps every face with its number of codimension-one
cofaces, so a step touches O(dim) faces and never rebuilds the complex.

The constructive content of "NE-reduction implies
collapse": a nonevasive link witness for a vertex v compiles into a collapse
of the closed star of v, where every elementary step (tau, sigma) of the link
collapse lifts to (tau+{v}, sigma+{v}) and the terminal pair is ({v}, {v,p})
for the witness's leaf point p.  The compiler runs on the int facet masks
of `complexes._masks`, emits each step as a pair of masks with every
enclosing star's vertex already added, and translates the steps to labels
once at the end.  It checks each witness node as verify_witness does while
it compiles it, so a certificate is walked once and a bad witness raises
ComplexError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ComplexError,
    SimplicialComplex,
    _delete_m,
    _face,
    _link_m,
    _masks,
    _support,
)
from .evasiveness import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    NOT_FOUND,
    NECertificate,
    PointWitness,
    SearchBudget,
    SplitWitness,
    Witness,
    _BudgetHit,
    _Counter,
)

Step = tuple[frozenset, frozenset]


@dataclass(frozen=True)
class CollapseSequence:
    """Ordered (free face, coface) pairs; replay removes both open faces each step."""

    steps: tuple[Step, ...]

    def __post_init__(self):
        for tau, sigma in self.steps:
            if len(sigma) != len(tau) + 1 or not tau < sigma:
                raise ValueError(f"malformed step ({sorted(tau)}, {sorted(sigma)})")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __add__(self, other: "CollapseSequence") -> "CollapseSequence":
        return CollapseSequence(self.steps + other.steps)


def _face_key(f: frozenset) -> tuple:
    return tuple(sorted(f))


class FaceStore:
    """Mutable face set of a complex, each face mapped to its number of
    codimension-one cofaces (the Hasse diagram of the face poset, by counts).

    A face tau is free iff its count is 1: any larger coface would contain two
    codimension-one cofaces of tau.  Its one coface sigma then has count 0.
    The facets are the faces of count 0 and are kept as a set.  Checking and
    removing a pair cost O(dim) set operations, not a rebuild of the complex.
    """

    __slots__ = ("up", "facets")

    def __init__(self, faces):
        """`faces` must be closed under taking nonempty subsets."""
        up = dict.fromkeys(faces, 0)
        for f in up:
            if len(f) > 1:
                for v in f:
                    up[f - {v}] += 1
        self.up = up
        self.facets = {f for f, c in up.items() if not c}

    def is_free(self, tau: frozenset, sigma: frozenset) -> bool:
        up = self.up
        return (
            up.get(tau) == 1
            and up.get(sigma) == 0
            and len(sigma) == len(tau) + 1
            and tau < sigma
        )

    def free_pairs(self) -> list[Step]:
        """All free pairs, in lexicographic order of the free face."""
        up = self.up
        out = []
        for sigma in self.facets:
            for v in sigma:
                tau = sigma - {v}
                if up.get(tau) == 1:
                    out.append((tau, sigma))
        out.sort(key=lambda p: _face_key(p[0]))
        return out

    def _boundary(self, tau: frozenset, sigma: frozenset):
        # the faces whose coface count a collapse of (tau, sigma) changes
        for v in sigma:
            f = sigma - {v}
            if f != tau:
                yield f
        if len(tau) > 1:
            for v in tau:
                yield tau - {v}

    def remove(self, tau: frozenset, sigma: frozenset) -> None:
        """Collapse the free pair (tau, sigma); the caller checks freeness."""
        up, facets = self.up, self.facets
        del up[tau], up[sigma]
        facets.remove(sigma)
        for f in self._boundary(tau, sigma):
            c = up[f] - 1
            up[f] = c
            if not c:
                facets.add(f)

    def restore(self, tau: frozenset, sigma: frozenset) -> None:
        """Undo remove(tau, sigma)."""
        up, facets = self.up, self.facets
        for f in self._boundary(tau, sigma):
            c = up[f]
            if not c:
                facets.remove(f)
            up[f] = c + 1
        up[tau] = 1
        up[sigma] = 0
        facets.add(sigma)


def free_pairs(X: SimplicialComplex) -> list[Step]:
    """All (tau, sigma) with sigma the unique face properly containing tau,
    in lexicographic order."""
    return FaceStore(X.faces()).free_pairs()


def apply_collapse(X: SimplicialComplex, tau: frozenset, sigma: frozenset) -> SimplicialComplex:
    """Remove the open faces tau and sigma; the complex spanned by the rest."""
    tau, sigma = frozenset(tau), frozenset(sigma)
    store = FaceStore(X.faces())
    if not store.is_free(tau, sigma):
        raise ComplexError(f"({sorted(tau)}, {sorted(sigma)}) is not a free pair")
    store.remove(tau, sigma)
    return SimplicialComplex(store.facets)


def verify_collapse(X, Y, seq) -> bool:
    """Replay semantics: every step must be free and the end state must equal Y.

    The replay runs on one FaceStore of X, independent of how seq was built."""
    if not isinstance(seq, CollapseSequence) or not isinstance(X, SimplicialComplex):
        return False
    store = FaceStore(X.faces())
    for tau, sigma in seq:
        tau, sigma = frozenset(tau), frozenset(sigma)
        if not store.is_free(tau, sigma):
            return False
        store.remove(tau, sigma)
    return isinstance(Y, SimplicialComplex) and store.up.keys() == Y.faces()


def _star_collapse(F: frozenset, bit: int, w, lift: int, bits: dict, out: list) -> bool:
    # append the collapse of the closed star of the vertex `bit` onto its
    # deletion, every face lifted by `lift`; False when w is no witness for
    # its link.  An unknown or absent vertex, or the only one, has a void link.
    lk = _link_m(F, bit)
    if not lk:
        return False
    star = lift | bit
    p = _point_collapse(lk, w, star, bits, out)
    if not p:
        return False
    out.append((star, star | p))
    return True


def _point_collapse(F: frozenset, w, lift: int, bits: dict, out: list) -> int:
    # append the collapse of F to a point along the witness recursion, every
    # face lifted by `lift`; the point's bit, or 0 when w is no witness for F.
    # Each node is checked as verify_witness checks it.
    while isinstance(w, SplitWitness):
        bit = bits.get(w.vertex, 0)
        if not _star_collapse(F, bit, w.link, lift, bits, out):
            return 0
        F = _delete_m(F, bit)
        w = w.deletion
    if isinstance(w, PointWitness) and F == {bits.get(w.vertex)}:
        return bits[w.vertex]
    return 0


def _label_steps(out: list, labels: tuple[str, ...]) -> CollapseSequence:
    # in place, so each mask pair is freed as its labelled pair is built
    for i, (t, s) in enumerate(out):
        tau = _face(t, labels)
        out[i] = (tau, tau | {labels[(s ^ t).bit_length() - 1]})
    return CollapseSequence(tuple(out))


def witness_to_vertex_collapse(X: SimplicialComplex, v: str, w: Witness) -> CollapseSequence:
    """Collapse sequence realizing X down to X minus v, from a witness for lk_X v."""
    if v not in X.vertices:
        raise ComplexError(f"unknown vertex {v!r}")
    bits, F = _masks(X)
    out: list = []
    if not _star_collapse(F, bits[v], w, 0, bits, out):
        raise ComplexError("witness does not verify for the vertex link")
    return _label_steps(out, X.vertices)


def certificate_to_collapse(X: SimplicialComplex, cert: NECertificate) -> CollapseSequence:
    """Concatenate the per-vertex star collapses along the certificate's order.

    Each witness is checked node by node while it is compiled, as
    verify_witness would check it, so it is walked once."""
    bits, F = _masks(X)
    out: list = []
    for x, w in cert.steps():
        bit = bits.get(x, 0)
        if not _support(F) & bit:
            raise ComplexError(f"certificate removes unknown vertex {x!r}")
        if not _star_collapse(F, bit, w, 0, bits, out):
            raise ComplexError(f"certificate witness for {x!r} does not verify")
        F = _delete_m(F, bit)
    return _label_steps(out, X.vertices)


def search_collapse(X: SimplicialComplex, Y, budget: SearchBudget = DEFAULT_BUDGET):
    """DFS over free pairs (lexicographic order, memoized dead states) for a
    collapse from X to Y; Y=None means "down to any single point".

    The search steps one FaceStore with remove/restore and keeps its open
    nodes on an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.  Dead states are keyed on the facet set."""
    if Y is not None:
        for f in Y.facets:
            if not X.has_face(f):
                raise ComplexError("target is not a subcomplex of the source")
        target_faces = Y.faces()
        if (X.n_faces() - len(target_faces)) % 2 != 0:
            return NOT_FOUND
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    counter = _Counter(budget.max_nodes)
    dead: set = set()
    store = FaceStore(X.faces())
    # target faces are never removed, so the target is reached exactly when
    # the face counts agree; a single remaining face is a single point
    goal = 1 if Y is None else len(target_faces)
    path: list[Step] = []  # the steps from X to the current state
    frames: list = []  # per open node: its facet set and its untried pairs
    arrived = True
    try:
        while True:
            if arrived:
                if len(store.up) == goal:
                    return CollapseSequence(tuple(path))
                key = frozenset(store.facets)
                if key in dead:
                    store.restore(*path.pop())
                else:
                    counter.spend()
                    pairs = store.free_pairs()
                    if Y is not None:
                        # sigma contains tau, so it is outside the target too
                        pairs = [p for p in pairs if p[0] not in target_faces]
                    frames.append((key, iter(pairs)))
            key, pairs = frames[-1]
            step = next(pairs, None)
            if step is None:
                dead.add(key)
                frames.pop()
                if not frames:
                    return NOT_FOUND
                store.restore(*path.pop())
                arrived = False
            else:
                store.remove(*step)
                path.append(step)
                arrived = True
    except _BudgetHit:
        return BUDGET_EXCEEDED
