"""Shared strategies and independent oracles for the suite."""

from __future__ import annotations

from itertools import combinations, product

import hypothesis.strategies as st

from poset_collapse import (
    VOID,
    CollapseSequence,
    ComplexError,
    PointWitness,
    Poset,
    PosetMap,
    SimplicialComplex,
    SplitWitness,
)
from poset_collapse.complexes import _bit, _delete_m, _link_m, _masks, _support
from poset_collapse.poset import _above_masks as above_masks

LABELS = "abcdefghij"


def below_masks(P: Poset) -> tuple[int, ...]:
    """Bitmask rows of the strict order, from the public API."""
    idx = {e: i for i, e in enumerate(P.elements)}
    masks = [0] * len(P.elements)
    for a, b in P.lt_pairs():
        masks[idx[b]] |= 1 << idx[a]
    return tuple(masks)


def ref_classify(P: Poset, mapping) -> tuple[bool, bool, bool, bool]:
    """(order_preserving, monotone, increasing, decreasing) of a total
    self-map given as a label dict, by label-level `leq`/`comparable` calls;
    independent of the int-table classifier in `PosetMap`."""
    op = all(P.leq(mapping[a], mapping[b]) for a, b in P.lt_pairs())
    return (
        op,
        op and all(P.comparable(e, mapping[e]) for e in P.elements),
        op and all(P.leq(e, mapping[e]) for e in P.elements),
        op and all(P.leq(mapping[e], e) for e in P.elements),
    )


def map_flags(phi) -> tuple[bool, bool, bool, bool]:
    return (phi.order_preserving, phi.monotone, phi.increasing, phi.decreasing)


def power_table(t: tuple[int, ...], k: int) -> tuple[int, ...]:
    """t^k by k plain compositions, without the early fixpoint cut."""
    g = tuple(range(len(t)))
    for _ in range(k):
        g = tuple(t[i] for i in g)
    return g


def label_table(P: Poset, t: tuple[int, ...]) -> dict:
    """The label dict of an int table over P's sorted elements."""
    return {e: P.elements[v] for e, v in zip(P.elements, t)}


def ref_iter_posets(n: int):
    """The labeled poset stream by `all(...)` scans for the down-sets and
    up-sets; the reference for `enumeration.iter_posets`, order included."""
    if n == 0:
        yield ()
        return
    for below in ref_iter_posets(n - 1):
        k = n - 1
        full = (1 << k) - 1
        above = above_masks(below)
        downsets = [
            S for S in range(full + 1)
            if all(not (S >> i & 1) or not (below[i] & ~S) for i in range(k))
        ]
        upsets = [
            S for S in range(full + 1)
            if all(not (S >> i & 1) or not (above[i] & ~S) for i in range(k))
        ]
        for D in downsets:
            allowed = full
            m = D
            while m:
                d = (m & -m).bit_length() - 1
                allowed &= above[d]
                m &= m - 1
            for U in upsets:
                if U & ~allowed:
                    continue
                nb = list(below)
                m = U
                while m:
                    u = (m & -m).bit_length() - 1
                    nb[u] |= 1 << k
                    m &= m - 1
                nb.append(D)
                yield tuple(nb)


def ref_map_tables(below: tuple[int, ...], candidates: list[int]) -> list[tuple[int, ...]]:
    """Self-map tables by testing each candidate image against every earlier
    element; the reference for `enumeration._map_tables`, order included."""
    n = len(below)
    above = above_masks(below)
    leq = [below[i] | (1 << i) for i in range(n)]
    out: list[tuple[int, ...]] = []
    f = [0] * n

    def rec(i: int):
        if i == n:
            out.append(tuple(f))
            return
        cand = candidates[i]
        for y in range(n):
            if not (cand >> y & 1):
                continue
            ok = True
            for j in range(i):
                if below[i] >> j & 1:
                    if not (leq[y] >> f[j] & 1):
                        ok = False
                        break
                elif above[i] >> j & 1:
                    if not (leq[f[j]] >> y & 1):
                        ok = False
                        break
            if ok:
                f[i] = y
                rec(i + 1)

    rec(0)
    return out


def ref_cone_witness(X: SimplicialComplex, apex: str):
    """The canonical cone witness by plain recursion on facet masks, without
    a memo; the reference for `evasiveness.cone_witness`."""
    if any(apex not in f for f in X.facets):
        raise ComplexError(f"{apex!r} is not an apex: some facet misses it")
    bits, F = _masks(X)
    return _ref_cone(F, bits[apex], X.vertices)


def _ref_cone(F: frozenset, apex: int, labels: tuple[str, ...]):
    rest = _support(F) ^ apex
    if not rest:
        return PointWitness(labels[apex.bit_length() - 1])
    bit = rest & -rest
    # the link is a cone with the same apex: every facet containing v contains apex
    return SplitWitness(
        labels[bit.bit_length() - 1],
        _ref_cone(_link_m(F, bit), apex, labels),
        _ref_cone(_delete_m(F, bit), apex, labels),
    )


def ref_join_witness(w, Y: SimplicialComplex):
    """A witness for X joined with Y from a witness w for X, by recursion on
    w, with a labelled join per point; the reference for `join_witness`."""
    if isinstance(w, PointWitness):
        return ref_cone_witness(SimplicialComplex(ref_join(SimplicialComplex.point(w.vertex), Y)), w.vertex)
    return SplitWitness(w.vertex, ref_join_witness(w.link, Y), ref_join_witness(w.deletion, Y))


def ref_certificate_to_collapse(X: SimplicialComplex, cert):
    """The collapse compiler as a mutual recursion that checks each witness
    node while it emits its steps, recomputing a link and a deletion at every
    node of the expanded tree; the reference for `certificate_to_collapse`,
    error messages included."""
    bits, F = _masks(X)
    out: list = []
    for x, w in cert.steps():
        bit = _bit(bits, x)
        if not _support(F) & bit:
            raise ComplexError(f"certificate removes unknown vertex {x!r}")
        if not _ref_star_collapse(F, bit, w, 0, bits, out):
            raise ComplexError(f"certificate witness for {x!r} does not verify")
        F = _delete_m(F, bit)

    def face(m):
        return frozenset(v for i, v in enumerate(X.vertices) if m >> i & 1)

    return CollapseSequence(tuple((face(t), face(s)) for t, s in out))


def _ref_star_collapse(F: frozenset, bit: int, w, lift: int, bits: dict, out: list) -> bool:
    # append the collapse of the closed star of the vertex `bit` onto its
    # deletion, every face lifted by `lift`; False when w is no witness for
    # its link.  An unknown or absent vertex, or the only one, has a void link.
    lk = _link_m(F, bit)
    if not lk:
        return False
    star = lift | bit
    p = _ref_point_collapse(lk, w, star, bits, out)
    if not p:
        return False
    out.append((star, star | p))
    return True


def _ref_point_collapse(F: frozenset, w, lift: int, bits: dict, out: list) -> int:
    # append the collapse of F to a point along the witness recursion, every
    # face lifted by `lift`; the point's bit, or 0 when w is no witness for F
    while isinstance(w, SplitWitness):
        bit = _bit(bits, w.vertex)
        if not _ref_star_collapse(F, bit, w.link, lift, bits, out):
            return 0
        F = _delete_m(F, bit)
        w = w.deletion
    bit = _bit(bits, w.vertex) if isinstance(w, PointWitness) else 0
    return bit if F == {bit} else 0


def grid(k, d):
    """[k]^d with x -> min(x, 1) coordinatewise."""
    pts = list(product(range(k), repeat=d))
    label = {p: "".join(map(str, p)) for p in pts}
    covers = [(label[p], label[p[:i] + (p[i] + 1,) + p[i + 1:]])
              for p in pts for i in range(d) if p[i] + 1 < k]
    P = Poset(label.values(), covers)
    return P, PosetMap(P, {label[p]: label[tuple(min(x, 1) for x in p)] for p in pts})


# -- label-level references for the mask operations of `complexes` ---------------
#
# These compute on the label facet view (`X.facets`) with frozenset algebra,
# as the library did before complexes were stored as masks.  Complex-valued
# ones return a label facet set, or VOID.


def ref_maximalize(faces) -> frozenset:
    by_size = sorted(set(faces), key=len, reverse=True)
    out: list[frozenset] = []
    for f in by_size:
        if not any(f <= g for g in out):
            out.append(f)
    return frozenset(out)


def _ref_complex(candidates):
    candidates = [f for f in candidates if f]
    return ref_maximalize(candidates) if candidates else VOID


def complex_of(facets):
    """The complex with a reference's label facet set, or VOID."""
    return facets if facets is VOID else SimplicialComplex(facets)


def ref_link(X: SimplicialComplex, v: str):
    return _ref_complex(f - {v} for f in X.facets if v in f)


def ref_delete_vertex(X: SimplicialComplex, v: str):
    return _ref_complex(f - {v} for f in X.facets)


def ref_induced_subcomplex(X: SimplicialComplex, labels):
    keep = set(labels)
    return _ref_complex(f & keep for f in X.facets)


def ref_join(X: SimplicialComplex, Y: SimplicialComplex) -> frozenset:
    return ref_maximalize(f | g for f in X.facets for g in Y.facets)


def ref_faces(X: SimplicialComplex) -> frozenset:
    seen = set()
    for facet in X.facets:
        fl = sorted(facet)
        for k in range(1, len(fl) + 1):
            for c in combinations(fl, k):
                seen.add(frozenset(c))
    return frozenset(seen)


def ref_coface_counts(X: SimplicialComplex) -> dict:
    """Each face of X with its number of codimension-one cofaces: the faces
    tau + v for a vertex v outside tau."""
    faces = ref_faces(X)
    return {f: sum(f | {v} in faces for v in X.vertices if v not in f) for f in faces}


def ref_reduced_euler(X: SimplicialComplex) -> int:
    return sum(-1 if len(f) % 2 == 0 else 1 for f in ref_faces(X)) - 1


def ref_z2_betti(X: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers over GF(2) by row reduction of label-indexed boundary
    matrices; independent of the mask code's rank routine."""
    dim = max(len(f) for f in X.facets) - 1
    by_dim = [sorted((f for f in ref_faces(X) if len(f) == k + 1), key=sorted) for k in range(dim + 1)]
    index = [{f: i for i, f in enumerate(lst)} for lst in by_dim]
    ranks = [0] * (dim + 2)
    for k in range(1, dim + 1):
        rows = []
        for f in by_dim[k]:
            rows.append({index[k - 1][f - {v}] for v in f})
        rank = 0
        while rows:
            pivot_row = rows.pop()
            if not pivot_row:
                continue
            rank += 1
            p = min(pivot_row)
            rows = [r ^ pivot_row if p in r else r for r in rows]
        ranks[k] = rank
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(dim + 1))


def split_chain(n, along, split=SplitWitness):
    """A witness nested n splits deep along its links or its deletions, each
    split of the class `split`."""
    w = PointWitness("a")
    for _ in range(n):
        w = split("a", w, PointWitness("b")) if along == "link" else split("a", PointWitness("b"), w)
    return w


def nested_data(w) -> dict:
    """The nested JSON form of a witness, {"point": v} or {"split": {"v": v,
    "link": ..., "deletion": ...}}, which the reader still takes; every
    shared subtree is written out again.  Built on an explicit stack."""
    root: dict = {}
    todo = [(w, root)]
    while todo:
        w, out = todo.pop()
        while isinstance(w, SplitWitness):  # walk the deletion chain in place
            link, deletion = {}, {}
            out["split"] = {"v": w.vertex, "link": link, "deletion": deletion}
            todo.append((w.link, link))
            w, out = w.deletion, deletion
        out["point"] = w.vertex
    return root


def nested_certificate_data(cert) -> dict:
    """The nested JSON form of a certificate: one nested witness per step."""
    return {"removed": list(cert.removed), "witnesses": [nested_data(w) for w in cert.witnesses]}


@st.composite
def posets(draw, min_size=1, max_size=5):
    # relations only go up in label order, so acyclicity is automatic
    n = draw(st.integers(min_size, max_size))
    labels = list(LABELS[:n])
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return Poset(labels, pairs)


def face_lists(max_vertices=5, max_facets=6):
    """Lists of nonempty label faces, not necessarily an antichain."""
    pool = list(LABELS[:max_vertices])
    all_faces = [
        frozenset(c)
        for k in range(1, len(pool) + 1)
        for c in combinations(pool, k)
    ]
    return st.lists(st.sampled_from(all_faces), min_size=1, max_size=max_facets)


def complexes(max_vertices=5, max_facets=6):
    return face_lists(max_vertices, max_facets).map(SimplicialComplex)


def naive_nonevasive(X) -> bool:
    """Memo-free recursive oracle, straight from the definition; it steps
    through the label-level `ref_link`/`ref_delete_vertex`."""
    if X is VOID:
        return False
    if len(X.vertices) == 1:
        return True
    for v in X.vertices:
        lk = complex_of(ref_link(X, v))
        if lk is VOID:
            continue
        if naive_nonevasive(lk) and naive_nonevasive(complex_of(ref_delete_vertex(X, v))):
            return True
    return False


def brute_chains(P: Poset) -> set[frozenset]:
    """All nonempty chains by filtering every subset; independent of the
    maximal-chain machinery."""
    elems = P.elements
    out = set()
    for k in range(1, len(elems) + 1):
        for sub in combinations(elems, k):
            if all(P.comparable(x, y) for x, y in combinations(sub, 2)):
                out.add(frozenset(sub))
    return out


def betti_padded(b: tuple[int, ...], length: int) -> list[int]:
    return list(b) + [0] * (length - len(b))


def betti_equal(b1: tuple[int, ...], b2: tuple[int, ...]) -> bool:
    n = max(len(b1), len(b2))
    return betti_padded(b1, n) == betti_padded(b2, n)
