"""Abstract simplicial complexes stored by maximal faces.

Faces are frozensets of string vertex labels.  The complex with no vertices is
not representable here; it is the distinguished singleton `VOID`, which link()
returns for isolated vertices.  Order complexes have few maximal chains but
exponentially many faces, so the full face set is materialized lazily and
cached per instance.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable

from .poset import Poset


class ComplexError(ValueError):
    """Invalid complex data or violated operation precondition."""


class VoidComplex:
    """The complex with no vertices at all."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "VOID"


VOID = VoidComplex()


def _maximalize(faces: Iterable[frozenset[str]]) -> frozenset[frozenset[str]]:
    by_size = sorted(set(faces), key=len, reverse=True)
    out: list[frozenset[str]] = []
    for f in by_size:
        if not any(f <= g for g in out):
            out.append(f)
    return frozenset(out)


class SimplicialComplex:
    """Finite abstract complex: the downward closure of its facet set."""

    __slots__ = ("facets", "vertices", "_faces", "_hash")

    def __init__(self, faces: Iterable[Iterable[str]]):
        fs = [frozenset(f) for f in faces]
        if not fs:
            raise ComplexError("a simplicial complex needs at least one face; use VOID explicitly")
        if any(not f for f in fs):
            raise ComplexError("faces must be nonempty vertex sets")
        self.facets = _maximalize(fs)
        self.vertices = tuple(sorted(set().union(*self.facets)))
        self._faces = None
        self._hash = hash(self.facets)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shown = sorted(sorted(f) for f in self.facets)
        return f"SimplicialComplex({shown})"

    def faces(self) -> frozenset[frozenset[str]]:
        """All nonempty faces (downward closure of the facets)."""
        if self._faces is None:
            seen: set[frozenset[str]] = set()
            for facet in self.facets:
                fl = sorted(facet)
                for k in range(1, len(fl) + 1):
                    for c in combinations(fl, k):
                        seen.add(frozenset(c))
            self._faces = frozenset(seen)
        return self._faces

    def n_faces(self) -> int:
        return len(self.faces())

    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def f_vector(self) -> tuple[int, ...]:
        """f_vector()[k] = number of k-dimensional faces."""
        counts = [0] * (self.dim() + 1)
        for f in self.faces():
            counts[len(f) - 1] += 1
        return tuple(counts)

    def has_face(self, face: Iterable[str]) -> bool:
        f = frozenset(face)
        return bool(f) and any(f <= g for g in self.facets)


def order_complex(P: Poset) -> SimplicialComplex:
    """The complex of chains of P; facets are the maximal chains."""
    if len(P) == 0:
        raise ComplexError("the order complex of an empty poset is void")
    return SimplicialComplex(P.maximal_chains())


def link(X: SimplicialComplex, v: str) -> SimplicialComplex | VoidComplex:
    """lk_X v; VOID when v is isolated."""
    if v not in X.vertices:
        raise ComplexError(f"unknown vertex {v!r}")
    candidates = [f - {v} for f in X.facets if v in f]
    candidates = [f for f in candidates if f]
    if not candidates:
        return VOID
    return SimplicialComplex(candidates)


def delete_vertex(X: SimplicialComplex, v: str) -> SimplicialComplex:
    """Induced subcomplex on the remaining vertices."""
    if v not in X.vertices:
        raise ComplexError(f"unknown vertex {v!r}")
    if len(X.vertices) < 2:
        raise ComplexError("deleting the last vertex would leave the void complex")
    candidates = [f - {v} for f in X.facets]
    return SimplicialComplex([f for f in candidates if f])


def induced_subcomplex(X: SimplicialComplex, labels: Iterable[str]) -> SimplicialComplex | VoidComplex:
    keep = set(labels)
    candidates = [f & keep for f in X.facets]
    candidates = [f for f in candidates if f]
    if not candidates:
        return VOID
    return SimplicialComplex(candidates)


# -- facet masks -----------------------------------------------------------------
#
# The witness recursions run on complexes stored as a frozenset of int facet
# masks over one vertex index: bit i is the i-th of the sorted vertices of the
# complex an operation starts from.  Every link and deletion keeps that index,
# so equal mask sets are equal labelled facet sets, and labels are translated
# back only where a result leaves the recursion.  The empty frozenset is the
# void complex.


def _masks(X: SimplicialComplex) -> tuple[dict[str, int], frozenset[int]]:
    """The bit of each vertex of X, and X's facets as masks over them."""
    bits = {v: 1 << i for i, v in enumerate(X.vertices)}
    return bits, frozenset(sum(bits[v] for v in f) for f in X.facets)


def _support(F: frozenset[int]) -> int:
    """The mask of all vertices of F."""
    return reduce(or_, F, 0)


def _link_m(F: frozenset[int], bit: int) -> frozenset[int]:
    # the link of an antichain of facets is an antichain, so it needs no
    # maximalization; {v} is a facet only when v is isolated (void link)
    return frozenset(f ^ bit for f in F if f & bit and f != bit)


def _delete_m(F: frozenset[int], bit: int) -> frozenset[int]:
    # facets without v stay maximal; a facet cut by v can only fall inside
    # one of those, since two cut facets nest only if the uncut ones did
    keep = [f for f in F if not f & bit]
    cut = [f ^ bit for f in F if f & bit]
    return frozenset(keep + [r for r in cut if r and not any(r & g == r for g in keep)])


def _face(mask: int, labels: tuple[str, ...]) -> frozenset[str]:
    """The labelled face of a mask over `labels`.

    Built by union, one label at a time: a frozenset built from a list of
    five or more labels allocates a hash table half as large again."""
    out = frozenset()
    while mask:
        low = mask & -mask
        out = out | {labels[low.bit_length() - 1]}
        mask ^= low
    return out


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join on disjoint vertex sets; facets are pairwise unions."""
    overlap = set(X.vertices) & set(Y.vertices)
    if overlap:
        raise ComplexError(f"join requires disjoint vertex labels; shared: {sorted(overlap)}")
    return SimplicialComplex([f | g for f in X.facets for g in Y.facets])


def is_cone(X: SimplicialComplex) -> str | None:
    """A vertex lying in every facet (label-least if several), else None."""
    common = frozenset.intersection(*X.facets)
    return min(common) if common else None


def relabel(X: SimplicialComplex, mapping) -> SimplicialComplex:
    """Rename vertices through an injective mapping (identity where omitted)."""
    out = [frozenset(mapping.get(v, v) for v in f) for f in X.facets]
    n_old = len(X.vertices)
    n_new = len(set().union(*out)) if out else 0
    if n_new != n_old:
        raise ComplexError("relabeling must be injective on the vertices")
    return SimplicialComplex(out)


def reduced_euler(X: SimplicialComplex) -> int:
    """Sum of (-1)^dim over faces, minus 1 for the empty face."""
    total = 0
    for f in X.faces():
        total += -1 if len(f) % 2 == 0 else 1
    return total - 1


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
    by_dim: list[list[frozenset[str]]] = [[] for _ in range(X.dim() + 1)]
    for f in X.faces():
        by_dim[len(f) - 1].append(f)
    for lst in by_dim:
        lst.sort(key=sorted)
    index = [{f: i for i, f in enumerate(lst)} for lst in by_dim]
    ranks = [0] * (X.dim() + 2)  # ranks[k] = rank of boundary C_k -> C_{k-1}
    for k in range(1, X.dim() + 1):
        cols = []
        lower = index[k - 1]
        for f in by_dim[k]:
            col = 0
            for v in f:
                col |= 1 << lower[f - {v}]
            cols.append(col)
        ranks[k] = _gf2_rank(cols)
    return tuple(
        len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(X.dim() + 1)
    )
