"""Elementary collapses and the compiler from NE-certificates to collapse sequences.

A free face is a face with exactly one proper coface; removing the open pair
is an elementary collapse.  Replay, search and the one-shot helpers all step
one FaceStore of int face masks (see there).  A `CollapseSequence` holds
(free, coface) mask pairs, which the compiler, the search, the JSON reader
and writer and the replay pass on as they are; labels are built only when
it is iterated.

The constructive content of "NE-reduction implies
collapse": a nonevasive link witness for a vertex v compiles into a collapse
of the closed star of v, where every elementary step (tau, sigma) of the link
collapse lifts to (tau+{v}, sigma+{v}) and the terminal pair is ({v}, {v,p})
for the witness's leaf point p.  The compiler first replays each link witness
with the witness kernel (`evasiveness._Kernel._holds`, memoised on (state,
node)), so a bad witness raises ComplexError; then one small walk emits the
checked witness as pairs of masks with every enclosing star's vertex already
added (`_compile_masks`), which `certificate_to_collapse` and the CLI wrap
as a sequence over X's vertex tuple without translating a label.  The
emitter computes no link or deletion; verify_collapse replays its output on
a FaceStore, which shares no code with either walk.
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
from .poset import _mask_labels, _remap

Step = tuple[frozenset, frozenset]


@dataclass(frozen=True)
class CollapseSequence:
    """Ordered (free face, coface) pairs; replay removes both open faces each step.

    Stored, as a complex stores its facets, as (free, coface) int masks over
    the sorted tuple `vertices`: the steps' labels, or a trusted caller's
    vertex tuple.  Iterating, and `steps`, give the labelled pairs; `==`,
    `hash` and `repr` go by them, and `__init__` takes them."""

    vertices: tuple[str, ...]
    _pairs: tuple[tuple[int, int], ...]

    def __init__(self, steps):
        steps = [(frozenset(tau), frozenset(sigma)) for tau, sigma in steps]
        for tau, sigma in steps:
            if len(sigma) != len(tau) + 1 or not tau < sigma:
                raise ValueError(f"malformed step ({sorted(tau)}, {sorted(sigma)})")
        vertices = tuple(sorted(set().union(*(sigma for _, sigma in steps))))  # a coface holds its free face
        bits = {v: 1 << i for i, v in enumerate(vertices)}
        pairs = tuple((sum(map(bits.get, t)), sum(map(bits.get, s))) for t, s in steps)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_pairs", pairs)

    @classmethod
    def _from_masks(cls, vertices: tuple[str, ...], pairs) -> "CollapseSequence":
        """Mask pairs over the sorted labels `vertices`, with no label
        translated.  Each is checked as a step with a nonempty free face, so
        a bad one raises ValueError before a writer streams the sequence."""
        if list(vertices) != sorted(vertices):  # then bit order is `sorted` order
            raise ValueError("mask steps need sorted labels")
        n = len(vertices)
        for t, s in pairs:
            if not t or t & ~s or (s ^ t).bit_count() != 1 or s >> n:
                raise ValueError(f"malformed step (free mask {t}, coface mask {s})")
        self = object.__new__(cls)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_pairs", tuple(pairs))
        return self

    @property
    def steps(self) -> tuple[Step, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        labels = self.vertices
        for t, s in self._pairs:
            tau = _mask_labels(t, labels)
            yield tau, tau | {labels[(s ^ t).bit_length() - 1]}

    def __eq__(self, other):
        if not isinstance(other, CollapseSequence):
            return NotImplemented
        return self._pairs == other._pairs if self.vertices == other.vertices else self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"CollapseSequence(steps={self.steps!r})"


class FaceStore:
    """Mutable face set of a complex, as int masks over its sorted vertex index
    (callers translate labels), each face mapped to its number of
    codimension-one cofaces (the Hasse diagram of the face poset, by counts).
    The cofaces of tau are tau + v for the vertices v outside tau of the
    facets over tau, so the store is built in one pass over the facets'
    submasks: each face's count is the popcount of the OR of the facets that
    contain it (its coface support), minus its own.

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
        support: dict[int, int] = {}
        get = support.get
        for f in F:
            s = f
            while s:
                support[s] = get(s, 0) | f
                s = (s - 1) & f
        self.up = up = {s: u.bit_count() - s.bit_count() for s, u in support.items()}
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
    return list(CollapseSequence._from_masks(X.vertices, FaceStore(X._F).free_pairs()))


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

    The replay runs on one FaceStore of X, independent of how seq was built,
    on seq's mask pairs, re-indexed once when seq's vertex tuple is not X's."""
    both_complexes = isinstance(X, SimplicialComplex) and isinstance(Y, SimplicialComplex)
    if not both_complexes or not isinstance(seq, CollapseSequence):
        return False
    try:
        pairs = seq._pairs if seq.vertices == X.vertices else _reindexed(seq, X.vertices)
        store = FaceStore(X._F)
        for t, s in pairs:
            if not store.is_free(t, s):
                return False
            store.remove(t, s)
    except (TypeError, ValueError):  # a step that is not a pair of int masks over X
        return False
    G = _masks(Y, X.vertices)[1]  # None when Y has a vertex X lacks
    return G is not None and store.up.keys() == _faces_m(G)


def _reindexed(seq: CollapseSequence, vertices: tuple[str, ...]):
    """seq's pairs over the index `vertices`; ValueError when a step has a
    bit of a label outside it or beyond seq's own vertex tuple."""
    bits = {v: 1 << i for i, v in enumerate(vertices)}
    moved = [_bit(bits, v) for v in seq.vertices]
    lost = sum(1 << i for i, m in enumerate(moved) if not m) | -1 << len(moved)
    if any((t | s) & lost for t, s in seq._pairs):
        raise ValueError("a step leaves the vertex index")
    return [tuple(_remap(pair, moved)) for pair in seq._pairs]


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
    return _table_steps(*_rows(cert.witnesses))


def _table_steps(rows, roots) -> int:
    """`_collapse_steps` from a certificate's node table (`_rows`, or the
    lists of its JSON), whose `roots` are one row per removed vertex."""
    splits: list[int] = []
    for row in rows:
        splits.append(1 + splits[row[1]] + splits[row[2]] if len(row) == 3 else 0)
    return len(roots) + sum(splits[i] for i in roots)


def witness_to_vertex_collapse(X: SimplicialComplex, v: str, w: Witness) -> CollapseSequence:
    """Collapse sequence realizing X down to X minus v, from a witness for lk_X v."""
    return certificate_to_collapse(X, NECertificate((v,), (w,)))


def certificate_to_collapse(X: SimplicialComplex, cert: NECertificate) -> CollapseSequence:
    """Concatenate the per-vertex star collapses along the certificate's order."""
    return CollapseSequence._from_masks(X.vertices, _compile_masks(X, cert))


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
            known = "already removed" if bit else "unknown"
            raise ComplexError(f"certificate removes {known} vertex {x!r}")
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
                    return CollapseSequence._from_masks(X.vertices, path)
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
