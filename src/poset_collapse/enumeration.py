"""Exhaustive-enumeration cores for small posets, maps, and complexes.

Labeled posets on n elements are streamed as tuples of bitmasks
(below[i] = mask of elements strictly below i) by inserting element k into
every poset on k-1 elements via a (down-set, up-set) choice; each labeled
poset arises exactly once.  Self-map tables are tuples of target indices:
the int tables that `PosetMap` holds, so `map_from_table` wraps a table
without building a label dict, and `stabilize_table` runs the power kernel
behind `PosetMap.power` and `stabilize`.  These raw forms keep desk-scale
exhaustive suites (millions of instances) affordable; the test suite checks
them against label-level references of its own.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator

from .complexes import SimplicialComplex
from .poset import Poset, PosetError, PosetMap, _table_power
from .poset import _above_masks as above_masks

LABELS = "abcdefghij"


# -- labeled poset stream --------------------------------------------------------


def iter_posets(n: int) -> Iterator[tuple[int, ...]]:
    """All labeled posets on elements 0..n-1, as below-mask tuples."""
    if n == 0:
        yield ()
        return
    for below in iter_posets(n - 1):
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


# -- self-map tables --------------------------------------------------------------


def _map_tables(below: tuple[int, ...], candidates: list[int]) -> list[tuple[int, ...]]:
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


def monotone_tables(below: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All monotone self-maps: order-preserving, every element comparable to its image."""
    n = len(below)
    above = above_masks(below)
    comparable = [below[i] | above[i] | (1 << i) for i in range(n)]
    return _map_tables(below, comparable)


def increasing_tables(below: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All increasing self-maps: order-preserving with x <= f(x)."""
    n = len(below)
    above = above_masks(below)
    geq = [above[i] | (1 << i) for i in range(n)]
    return _map_tables(below, geq)


def decreasing_tables(below: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(below)
    leq_masks = [below[i] | (1 << i) for i in range(n)]
    return _map_tables(below, leq_masks)


def stabilize_table(table: tuple[int, ...]) -> tuple[int, ...]:
    """table^|P|, by the power kernel behind `stabilize`."""
    return _table_power(table, len(table))


def table_fixed_mask(table: tuple[int, ...]) -> int:
    mask = 0
    for i, v in enumerate(table):
        if i == v:
            mask |= 1 << i
    return mask


def table_image_mask(table: tuple[int, ...]) -> int:
    mask = 0
    for v in table:
        mask |= 1 << v
    return mask


# -- canonical labeling ------------------------------------------------------------


def _refine_invariants(below: tuple[int, ...]) -> list:
    n = len(below)
    above = above_masks(below)
    inv: list = [(bin(below[i]).count("1"), bin(above[i]).count("1")) for i in range(n)]
    for _ in range(n):
        nxt = []
        for i in range(n):
            down = tuple(sorted(inv[j] for j in range(n) if below[i] >> j & 1))
            up = tuple(sorted(inv[j] for j in range(n) if above[i] >> j & 1))
            nxt.append((inv[i], down, up))
        if len(set(nxt)) == len(set(inv)):
            return nxt
        inv = nxt
    return inv


def apply_perm(below: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel: new label perm[i] plays the role of old label i."""
    n = len(below)
    nb = [0] * n
    for i in range(n):
        m = below[i]
        t = 0
        while m:
            j = (m & -m).bit_length() - 1
            t |= 1 << perm[j]
            m &= m - 1
        nb[perm[i]] = t
    return tuple(nb)


def canonical_poset(below: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Minimum relabeling of the below-masks over all permutations compatible
    with an iterated degree-refinement partition; returns (canonical form,
    all permutations achieving it).  The returned permutations composed with
    any one inverse give Aut of the canonical form."""
    n = len(below)
    inv = _refine_invariants(below)
    classes: dict = {}
    for i in range(n):
        classes.setdefault(inv[i], []).append(i)
    slots = [classes[k] for k in sorted(classes)]
    best = None
    best_perms: list[tuple[int, ...]] = []
    for combo in product(*(permutations(members) for members in slots)):
        perm = [0] * n
        p = 0
        for tup in combo:
            for m in tup:
                perm[m] = p
                p += 1
        candidate = apply_perm(below, tuple(perm))
        if best is None or candidate < best:
            best = candidate
            best_perms = [tuple(perm)]
        elif candidate == best:
            best_perms.append(tuple(perm))
    return best, best_perms


# -- complexes on a fixed vertex pool ----------------------------------------------


def iter_antichain_complexes(n_vertices: int) -> Iterator[tuple[int, ...]]:
    """All nonempty antichains of nonempty subsets of an n-vertex pool: every
    simplicial complex on at most n labeled vertices, as facet-mask tuples."""
    subsets = list(range(1, 1 << n_vertices))
    subsets.sort(key=lambda s: (bin(s).count("1"), s))

    def rec(start: int, chosen: list[int]):
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if any(c & s == c or c & s == s for c in chosen):
                continue
            chosen.append(s)
            yield tuple(chosen)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


# -- converters to the object API ---------------------------------------------------


def poset_from_masks(below: tuple[int, ...], labels: str = LABELS) -> Poset:
    n = len(below)
    chosen = tuple(labels[:n])
    if list(chosen) != sorted(chosen):
        raise ValueError("mask indices must follow sorted label order")
    return Poset._from_closed(chosen, below)


def map_from_table(P: Poset, table: tuple[int, ...]) -> PosetMap:
    """The map with this int table over P's sorted elements; no label dict
    is built."""
    t = tuple(table)
    n = len(P)
    if len(t) != n or not all(0 <= v < n for v in t):
        raise PosetError(f"not a self-map table on {n} elements: {t}")
    return PosetMap._from_table(P, t)


def complex_from_masks(facet_masks, labels: str = LABELS) -> SimplicialComplex:
    faces = []
    for mask in facet_masks:
        face = []
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            face.append(labels[j])
            m &= m - 1
        faces.append(face)
    return SimplicialComplex(faces)
