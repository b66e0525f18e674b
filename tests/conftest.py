"""Shared strategies and independent oracles for the suite."""

from __future__ import annotations

from itertools import combinations

import hypothesis.strategies as st

from poset_collapse import (
    VOID,
    PointWitness,
    Poset,
    SimplicialComplex,
    SplitWitness,
    delete_vertex,
    link,
)
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


def split_chain(n, along):
    """A witness nested n splits deep along its links or its deletions."""
    w = PointWitness("a")
    for _ in range(n):
        w = SplitWitness("a", w, PointWitness("b")) if along == "link" else SplitWitness("a", PointWitness("b"), w)
    return w


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


@st.composite
def complexes(draw, max_vertices=5, max_facets=6):
    pool = list(LABELS[:max_vertices])
    all_faces = [
        frozenset(c)
        for k in range(1, len(pool) + 1)
        for c in combinations(pool, k)
    ]
    facets = draw(st.lists(st.sampled_from(all_faces), min_size=1, max_size=max_facets))
    return SimplicialComplex(facets)


def naive_nonevasive(X) -> bool:
    """Memo-free recursive oracle, straight from the definition."""
    if X is VOID:
        return False
    if len(X.vertices) == 1:
        return True
    for v in X.vertices:
        lk = link(X, v)
        if lk is VOID:
            continue
        if naive_nonevasive(lk) and naive_nonevasive(delete_vertex(X, v)):
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
