"""Elementary collapses and the compiler from NE-certificates to collapse sequences.

A free face is a face with exactly one proper coface; removing the open pair
is an elementary collapse.  Replay, search and the one-shot helpers all step
one FaceStore of int face masks (see there) and translate labels only at the
edges: the steps in, and the found path or free pairs out.

The constructive content of "NE-reduction implies
collapse": a nonevasive link witness for a vertex v compiles into a collapse
of the closed star of v, where every elementary step (tau, sigma) of the link
collapse lifts to (tau+{v}, sigma+{v}) and the terminal pair is ({v}, {v,p})
for the witness's leaf point p.  The compiler first replays each link witness
with the witness kernel (`evasiveness._Kernel._holds`, memoised on (state,
node)), so a bad witness raises ComplexError; then one small walk emits the
checked witness as pairs of masks with every enclosing star's vertex already
added (`_compile_masks`).  `certificate_to_collapse` translates these steps to
labels once at the end; the CLI writes them as JSON straight from the masks
(`serialization.MaskSteps`).  The emitter computes no link or deletion;
verify_collapse replays its output on a FaceStore, which shares no code with
either walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    ComplexError,
    SimplicialComplex,
    _bit,
    _delete_m,
    _faces_m,
    _link_m,
    _mask,
    _masks,
    _sub_masks,
    _support,
)
from .evasiveness import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    NOT_FOUND,
    NECertificate,
    PointWitness,
    SearchBudget,
    Witness,
    _BudgetHit,
    _Counter,
    _Facets,
    _rows,
)
from .poset import _mask_labels

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


class FaceStore:
    """Mutable face set of a complex, as int masks over its sorted vertex index
    (callers translate labels), each face mapped to its number of
    codimension-one cofaces (the Hasse diagram of the face poset, by counts).

    A face tau is free iff its count is 1: any larger coface would contain two
    codimension-one cofaces of tau.  Its one coface sigma then has count 0.
    The facets are the faces of count 0 and are kept as a set.  A step costs
    O(dim) int and dict operations in an inline bit loop, not a rebuild.
    `free_pairs` sorts by `rank`, each face's key in label order, kept from
    the face's first time free on, across restores; replay builds none.
    """

    __slots__ = ("up", "facets", "rank")

    def __init__(self, F):
        """`F` are the facet masks; the store holds all their submasks."""
        up = _faces_m(F)
        for f in up:
            rest = f if f & (f - 1) else 0  # a vertex has no nonempty facet
            while rest:
                low = rest & -rest
                up[f ^ low] += 1
                rest ^= low
        self.up = up
        self.facets = {f for f, c in up.items() if not c}
        self.rank: dict[int, str] = {}

    def is_free(self, tau: int, sigma: int) -> bool:
        up = self.up
        return (
            up.get(tau) == 1
            and up.get(sigma) == 0
            and tau & sigma == tau
            and (sigma ^ tau).bit_count() == 1
        )

    def free_pairs(self) -> list[tuple[int, int]]:
        """All free pairs, in lexicographic order of the free face's labels."""
        up = self.up
        out = []
        for sigma in self.facets:
            rest = sigma if sigma & (sigma - 1) else 0  # a vertex has no nonempty facet
            while rest:
                low = rest & -rest
                rest ^= low
                if up[sigma ^ low] == 1:
                    out.append((sigma ^ low, sigma))
        # tau's bits from bit 0 up, with "2" for an absent vertex, sort as its labels do
        rank = self.rank
        out.sort(key=lambda p: rank.get(p[0]) or rank.setdefault(p[0], bin(p[0])[:1:-1].replace("0", "2")))
        return out

    def remove(self, tau: int, sigma: int) -> None:
        """Collapse the free pair (tau, sigma); the caller checks freeness."""
        up, facets = self.up, self.facets
        del up[tau], up[sigma]
        facets.remove(sigma)
        rest = tau  # the faces whose counts change: sigma - v and tau - v for each v in tau
        while rest:
            low = rest & -rest
            rest ^= low
            for f in (sigma ^ low, tau ^ low) if tau != low else (sigma ^ low,):
                c = up[f] - 1
                up[f] = c
                if not c:
                    facets.add(f)

    def restore(self, tau: int, sigma: int) -> None:
        """Undo remove(tau, sigma)."""
        up, facets = self.up, self.facets
        rest = tau
        while rest:
            low = rest & -rest
            rest ^= low
            for f in (sigma ^ low, tau ^ low) if tau != low else (sigma ^ low,):
                c = up[f]
                if not c:
                    facets.remove(f)
                up[f] = c + 1
        up[tau], up[sigma] = 1, 0
        facets.add(sigma)


def free_pairs(X: SimplicialComplex) -> list[Step]:
    """All (tau, sigma) with sigma the unique face properly containing tau,
    in lexicographic order."""
    return list(_label_steps(FaceStore(_masks(X)[1]).free_pairs(), X.vertices))


def apply_collapse(X: SimplicialComplex, tau: frozenset, sigma: frozenset) -> SimplicialComplex:
    """Remove the open faces tau and sigma; the complex spanned by the rest."""
    bits, F = _masks(X)
    store = FaceStore(F)
    t, s = _mask(tau, bits), _mask(sigma, bits)
    if not store.is_free(t, s):
        raise ComplexError(f"({sorted(tau)}, {sorted(sigma)}) is not a free pair")
    store.remove(t, s)
    return SimplicialComplex._from_masks(X.vertices, frozenset(store.facets))


def verify_collapse(X, Y, seq) -> bool:
    """Replay semantics: every step must be free and the end state must equal Y.

    The replay runs on one FaceStore of X, independent of how seq was built."""
    both_complexes = isinstance(X, SimplicialComplex) and isinstance(Y, SimplicialComplex)
    if not both_complexes or not isinstance(seq, CollapseSequence):
        return False
    bits, F = _masks(X)
    store = FaceStore(F)
    try:
        for tau, sigma in seq:
            t, s = _mask(tau, bits), _mask(sigma, bits)
            if not store.is_free(t, s):
                return False
            store.remove(t, s)
    except (TypeError, ValueError):  # a step that is not a pair of faces
        return False
    G = _masks(Y, X.vertices)[1]  # None when Y has a vertex X lacks
    return G is not None and store.up.keys() == _faces_m(G).keys()


def _emit_star(w: Witness, bit: int, bits: dict, out: list) -> None:
    # append the collapse of the closed star of the vertex `bit` onto its
    # deletion, for a witness w that the kernel has checked on its link: a
    # split at v emits the collapse of its link with every face lifted by v
    # too, then that of its deletion, and a point p is the terminal pair
    # (star, star + p).  Each stack entry (w, star) walks one chain of links
    # and leaves the deletions on the stack.  Nodes are classified as
    # `_Kernel._holds` classifies them, so a subclass compiles as its base.
    stack = [(w, bit)]
    while stack:
        w, star = stack.pop()
        while not isinstance(w, PointWitness):
            stack.append((w.deletion, star))
            star |= bits[w.vertex]
            w = w.link
        out.append((star, star | bits[w.vertex]))


def _collapse_steps(cert: NECertificate) -> int:
    """The number of steps `certificate_to_collapse` emits, without compiling:
    one per removed vertex and one per split of the expanded witness trees,
    summed over the rows of their node table."""
    rows, roots = _rows(cert.witnesses)
    splits: list[int] = []
    for row in rows:
        splits.append(1 + splits[row[1]] + splits[row[2]] if len(row) == 3 else 0)
    return len(cert) + sum(splits[i] for i in roots)


def _label_steps(out: list, labels: tuple[str, ...]) -> CollapseSequence:
    # in place, so each mask pair is freed as its labelled pair is built
    for i, (t, s) in enumerate(out):
        tau = _mask_labels(t, labels)
        out[i] = (tau, tau | {labels[(s ^ t).bit_length() - 1]})
    return CollapseSequence(tuple(out))


def witness_to_vertex_collapse(X: SimplicialComplex, v: str, w: Witness) -> CollapseSequence:
    """Collapse sequence realizing X down to X minus v, from a witness for lk_X v."""
    return certificate_to_collapse(X, NECertificate((v,), (w,)))


def certificate_to_collapse(X: SimplicialComplex, cert: NECertificate) -> CollapseSequence:
    """Concatenate the per-vertex star collapses along the certificate's order."""
    return _label_steps(_compile_masks(X, cert), X.vertices)


def _compile_masks(X: SimplicialComplex, cert: NECertificate) -> list[tuple[int, int]]:
    """The steps of `certificate_to_collapse` as (free, coface) masks over
    X's vertex index.

    Each step's link witness is first replayed by the witness kernel, as
    verify_witness replays it, and a bad one raises ComplexError; the checked
    witness is then emitted by `_emit_star`, which computes no link."""
    bits, F = _masks(X)
    kernel = _Facets(X.vertices, bits)
    out: list = []
    for x, w in cert.steps():
        bit = _bit(bits, x)
        if not _support(F) & bit:
            raise ComplexError(f"certificate removes unknown vertex {x!r}")
        if not kernel._holds(_link_m(F, bit), w):
            raise ComplexError(f"certificate witness for {x!r} does not verify")
        _emit_star(w, bit, bits, out)
        F = _delete_m(F, bit)
    return out


def search_collapse(X: SimplicialComplex, Y, budget: SearchBudget = DEFAULT_BUDGET):
    """DFS over free pairs (lexicographic order, memoized dead states) for a
    collapse from X to Y; Y=None means "down to any single point".

    The search steps one FaceStore with remove/restore and keeps its open
    nodes on an explicit stack, so its depth is not limited by the
    interpreter's recursion limit.  Dead states are keyed on the facet set.
    An X over the vertex budget is BUDGET_EXCEEDED (CLI exit 3) before any
    face store is built, also where an odd face-count difference would make
    it NOT_FOUND (exit 1)."""
    G = None if Y is None else _sub_masks(X, Y)
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    store = FaceStore(_masks(X)[1])
    if Y is not None:
        target = _faces_m(G)
        if (len(store.up) - len(target)) % 2 != 0:
            return NOT_FOUND
    counter = _Counter(budget.max_nodes)
    dead: set = set()
    # target faces are never removed, so the target is reached exactly when
    # the face counts agree; a single remaining face is a single point
    goal = 1 if Y is None else len(target)
    path: list = []  # the mask steps from X to the current state
    frames: list = []  # per open node: its facet set and its untried pairs
    arrived = True
    try:
        while True:
            if arrived:
                if len(store.up) == goal:
                    return _label_steps(path, X.vertices)
                key = frozenset(store.facets)
                if key in dead:
                    store.restore(*path.pop())
                else:
                    counter.spend()
                    pairs = store.free_pairs()
                    if Y is not None:
                        # sigma contains tau, so it is outside the target too
                        pairs = [p for p in pairs if p[0] not in target]
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
