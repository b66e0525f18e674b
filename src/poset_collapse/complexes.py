"""Abstract simplicial complexes stored by maximal faces.

A complex is its sorted vertex tuple and the frozenset of its facets as int
masks over it, a canonical form; labels are translated only at I/O.  The
complex with no vertices is not representable; it is the singleton `VOID`,
which link() returns for isolated vertices.  Order complexes have few maximal
chains but exponentially many faces, so the face set is built lazily, as masks.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable

from .poset import Poset, _mask_labels, _remap


class ComplexError(ValueError):
    """Invalid complex data or violated operation precondition."""


class VoidComplex:
    """The complex with no vertices at all.  It has none of a complex's
    attributes, and asking it for one is where VOID is refused as an operand."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __getattr__(self, name):
        # reached only for names the class lacks; special names stay
        # AttributeErrors, as copy, pickle and hasattr expect
        if name.startswith("__"):
            raise AttributeError(name)
        raise ComplexError("the void complex is not a valid operand here")

    def __repr__(self) -> str:
        return "VOID"


VOID = VoidComplex()


class SimplicialComplex:
    """Finite abstract complex: the downward closure of its facet set."""

    __slots__ = ("vertices", "_F", "_faces", "_hash")

    def __init__(self, faces: Iterable[Iterable[str]]):
        fs = [frozenset(f) for f in faces]
        vertices = tuple(sorted(set().union(*fs)))
        bits = {v: 1 << i for i, v in enumerate(vertices)}
        self._init_masks(vertices, _maximalize(sum(bits[v] for v in f) for f in fs))

    def _init_masks(self, vertices: tuple[str, ...], F: frozenset[int]) -> None:
        # F: a nonempty antichain of nonempty masks over `vertices`, re-indexed to those used
        used = _support(F)
        kept = tuple(v for i, v in enumerate(vertices) if used >> i & 1)
        if kept != vertices:
            bits = {v: 1 << j for j, v in enumerate(kept)}
            F = frozenset(_remap(F, [bits.get(v, 0) for v in vertices]))
        self.vertices, self._F, self._faces, self._hash = kept, F, None, hash((kept, F))

    @classmethod
    def _from_masks(cls, vertices: tuple[str, ...], F: frozenset[int]) -> "SimplicialComplex":
        # Trusted path: no label is translated and nothing is maximalized
        self = object.__new__(cls)
        self._init_masks(vertices, F)
        return self

    @classmethod
    def point(cls, v: str) -> "SimplicialComplex":
        return cls([{v}])

    @classmethod
    def simplex(cls, vertices: Iterable[str]) -> "SimplicialComplex":
        return cls([set(vertices)])

    @classmethod
    def simplex_boundary(cls, vertices: Iterable[str]) -> "SimplicialComplex":
        vs = set(vertices)
        if len(vs) < 2:
            raise ComplexError("boundary of a point is void")
        return cls([vs - {v} for v in vs])

    @property
    def facets(self) -> frozenset[frozenset[str]]:
        return frozenset(_mask_labels(f, self.vertices) for f in self._F)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and (self._F, self.vertices) == (other._F, other.vertices)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = sorted(sorted(f) for f in self.facets)
        return f"SimplicialComplex({shown})"

    def _face_masks(self) -> frozenset[int]:
        if self._faces is None:
            self._faces = frozenset(_faces_m(self._F))
        return self._faces

    def faces(self) -> frozenset[frozenset[str]]:
        """All nonempty faces (downward closure of the facets), as label sets."""
        return frozenset(_mask_labels(f, self.vertices) for f in self._face_masks())

    def n_faces(self) -> int:
        return len(self._face_masks())

    def dim(self) -> int:
        return max(f.bit_count() for f in self._F) - 1

    def f_vector(self) -> tuple[int, ...]:
        """f_vector()[k] = number of k-dimensional faces."""
        counts = [0] * (self.dim() + 1)
        for f in self._face_masks():
            counts[f.bit_count() - 1] += 1
        return tuple(counts)

    def has_face(self, face: Iterable[str]) -> bool:
        m = _mask(face, _masks(self)[0])
        return m > 0 and any(m & f == m for f in self._F)


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of P; its facet masks are P's maximal-chain masks."""
    if len(P) == 0:
        raise ComplexError("the order complex of an empty poset is void")
    return SimplicialComplex._from_masks(P.elements, frozenset(P._chain_masks()))


def _vertex_bit(X: SimplicialComplex, v: str) -> int:
    if v not in X.vertices:
        raise ComplexError(f"unknown vertex {v!r}")
    return 1 << X.vertices.index(v)


def link(X: SimplicialComplex, v: str) -> SimplicialComplex | VoidComplex:
    """lk_X v; VOID when v is isolated."""
    lk = _link_m(X._F, _vertex_bit(X, v))
    return SimplicialComplex._from_masks(X.vertices, lk) if lk else VOID


def delete_vertex(X: SimplicialComplex, v: str) -> SimplicialComplex:
    """Induced subcomplex on the remaining vertices."""
    bit = _vertex_bit(X, v)
    if len(X.vertices) < 2:
        raise ComplexError("deleting the last vertex would leave the void complex")
    return SimplicialComplex._from_masks(X.vertices, _delete_m(X._F, bit))


def induced_subcomplex(X: SimplicialComplex, labels: Iterable[str]) -> SimplicialComplex | VoidComplex:
    keep = set(labels)
    m = sum(1 << i for i, v in enumerate(X.vertices) if v in keep)
    F = [f & m for f in X._F if f & m]
    return SimplicialComplex._from_masks(X.vertices, _maximalize(F)) if F else VOID


# -- facet masks -----------------------------------------------------------------
#
# The operations above, collapse replay and search, the witness kernel and the
# NE searches run on frozensets of facet masks over one vertex index.  Every
# link and deletion keeps that index, so equal mask sets are equal labelled
# facet sets.  The empty frozenset is the void complex.


def _masks(X: SimplicialComplex, vertices=None) -> tuple[dict[str, int], frozenset[int] | None]:
    """The bit of each vertex of X, or of each of `vertices` (a joint index),
    and X's facet masks over them: as stored, or re-indexed to the joint
    index, or None when X has a vertex outside it."""
    vertices = vertices or X.vertices
    bits = {v: 1 << i for i, v in enumerate(vertices)}
    if vertices == X.vertices:
        return bits, X._F
    if not all(v in bits for v in X.vertices):
        return bits, None
    return bits, frozenset(_remap(X._F, [bits[v] for v in X.vertices]))


def _bit(bits: dict[str, int], v) -> int:
    # the bit of label v; 0, which is no vertex, for an unknown or unhashable label
    try:
        return bits.get(v, 0)
    except TypeError:
        return 0


def _mask(face, bits: dict[str, int]) -> int:
    # the mask of a labelled face; -1, which is no face, for an unknown or unhashable label
    try:
        m = 0
        for v in face:
            m |= bits.get(v, -1)
        return m
    except TypeError:
        return -1


def _maximalize(F: Iterable[int]) -> frozenset[int]:
    """The inclusion-maximal masks of F, the facets of the complex with faces
    F; ComplexError when F is empty or holds the empty face."""
    F = set(F)
    if not F:
        raise ComplexError("a simplicial complex needs at least one face; use VOID explicitly")
    if 0 in F:
        raise ComplexError("faces must be nonempty vertex sets")
    out: list[int] = []
    for f in sorted(F, key=int.bit_count, reverse=True):
        if not any(f & g == f for g in out):
            out.append(f)
    return frozenset(out)


def _sub_masks(X: SimplicialComplex, Y: SimplicialComplex) -> frozenset[int]:
    """Y's facet masks over X's vertex index, if Y is a subcomplex of X."""
    G = _masks(Y, X.vertices)[1]
    if G is None or not all(any(g & f == g for f in X._F) for g in G):
        raise ComplexError("target is not a subcomplex of the source")
    return G


def _faces_m(F: Iterable[int]) -> set[int]:
    """All nonempty faces of the facets F, by submask enumeration."""
    out = set()
    add = out.add
    for f in F:
        s = f
        while s:
            add(s)
            s = (s - 1) & f
    return out


def _support(F: frozenset[int]) -> int:
    """The mask of all vertices of F."""
    return reduce(or_, F, 0)


def _link_m(F: frozenset[int], bit: int) -> frozenset[int]:
    # the link of an antichain of facets is an antichain, so it needs no
    # maximalization; {v} is a facet only when v is isolated (void link)
    return frozenset([f ^ bit for f in F if f & bit and f != bit])


def _delete_m(F: frozenset[int], bit: int) -> frozenset[int]:
    # facets without v stay maximal; a facet cut by v can only fall inside one
    # of those (cut facets nest only if uncut ones did); a generator here cost more
    keep = [f for f in F if not f & bit]
    out = keep[:]
    for f in F:
        if f & bit and f != bit:
            r = f ^ bit
            for g in keep:
                if r & g == r:
                    break
            else:
                out.append(r)
    return frozenset(out)


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join on disjoint vertex sets; facets are pairwise unions."""
    overlap = set(X.vertices) & set(Y.vertices)
    if overlap:
        raise ComplexError(f"join requires disjoint vertex labels; shared: {sorted(overlap)}")
    vertices = tuple(sorted(X.vertices + Y.vertices))
    FX, FY = _masks(X, vertices)[1], _masks(Y, vertices)[1]
    return SimplicialComplex._from_masks(vertices, frozenset(f | g for f in FX for g in FY))


def is_cone(X: SimplicialComplex) -> str | None:
    """A vertex lying in every facet (label-least if several), else None."""
    common = reduce(and_, X._F)
    return X.vertices[(common & -common).bit_length() - 1] if common else None


def relabel(X: SimplicialComplex, mapping) -> SimplicialComplex:
    """Rename vertices through an injective mapping (identity where omitted)."""
    out = SimplicialComplex([mapping.get(v, v) for v in f] for f in X.facets)
    if len(out.vertices) != len(X.vertices):
        raise ComplexError("relabeling must be injective on the vertices")
    return out


def reduced_euler(X: SimplicialComplex) -> int:
    """Sum of (-1)^dim over faces, minus 1 for the empty face."""
    return sum(1 if f.bit_count() & 1 else -1 for f in X._face_masks()) - 1


def _gf2_rank(columns: list[int]) -> int:
    rank = 0
    pivots: dict[int, int] = {}
    for v in columns:
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                rank += 1
                break
    return rank


def z2_betti(X: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers over the two-element field, by boundary-matrix ranks."""
    by_dim: list[list[int]] = [[] for _ in range(X.dim() + 1)]
    for f in X._face_masks():
        by_dim[f.bit_count() - 1].append(f)
    index = [{f: i for i, f in enumerate(lst)} for lst in by_dim]
    ranks = [0] * (X.dim() + 2)  # ranks[k] = rank of boundary C_k -> C_{k-1}
    bits = [1 << i for i in range(len(X.vertices))]
    for k in range(1, X.dim() + 1):
        lower = index[k - 1]
        ranks[k] = _gf2_rank([sum(1 << lower[f ^ b] for b in bits if f & b) for f in by_dim[k]])
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(X.dim() + 1))
