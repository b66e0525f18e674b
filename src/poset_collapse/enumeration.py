"""Exhaustive-enumeration cores for small posets, maps, and complexes.

Labeled posets on n elements are streamed as tuples of bitmasks
(below[i] = mask of elements strictly below i) by inserting element k into
every poset on k-1 elements via a (down-set, up-set) choice; each labeled
poset arises exactly once.  The down-sets and up-sets come from one pass
over closed-set masks.  Self-map tables are tuples of target indices: the
int tables that `PosetMap` holds, so `map_from_table` wraps a table
without building a label dict, and `stabilize_table` runs the power kernel
behind `PosetMap.power` and `stabilize`.  The tables are grown element by
element, each element's images narrowed to one candidate mask by the
images already chosen.  These raw forms keep desk-scale exhaustive suites
(millions of instances) affordable; the test suite checks them against
label-level references and simpler loop kernels of its own.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from .complexes import ComplexError, SimplicialComplex, _maximalize
from .poset import Poset, PosetError, PosetMap, _remap, _table_power
from .poset import _above_masks as above_masks

LABELS = "abcdefghij"


# -- labeled poset stream --------------------------------------------------------


def _down_up_sets(below: tuple[int, ...], above: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The down-sets and the up-sets of a poset's bitmask rows, each in
    ascending mask order, from one pass over the subsets: the union of the
    rows of S extends the union for S less its lowest element, and S is
    closed when that union stays inside S."""
    down_union = [0] * (1 << len(below))
    up_union = down_union[:]
    downsets = [0]
    upsets = [0]
    for S in range(1, len(down_union)):
        low = S & -S
        j = low.bit_length() - 1
        d = down_union[S] = down_union[S ^ low] | below[j]
        u = up_union[S] = up_union[S ^ low] | above[j]
        if not d & ~S:
            downsets.append(S)
        if not u & ~S:
            upsets.append(S)
    return downsets, upsets


def iter_posets(n: int) -> Iterator[tuple[int, ...]]:
    """All labeled posets on elements 0..n-1, as below-mask tuples."""
    if n == 0:
        yield ()
        return
    for below in iter_posets(n - 1):
        k = n - 1
        full = (1 << k) - 1
        above = above_masks(below)
        downsets, upsets = _down_up_sets(below, above)
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


def _map_tables(below: tuple[int, ...], images: str) -> list[tuple[int, ...]]:
    """Every order-preserving table with f(i) in the `images` row of i
    ("leq", "geq" or "comparable"), in lexicographic order.  The tables are
    grown one element at a time; the images allowed for i are one mask,
    narrowed by the images of the earlier elements comparable to i, and are
    taken in ascending bit order."""
    n = len(below)
    above = above_masks(below)
    leq = [below[i] | (1 << i) for i in range(n)]
    geq = [above[i] | (1 << i) for i in range(n)]
    candidates = {"leq": leq, "geq": geq, "comparable": [l | g for l, g in zip(leq, geq)]}[images]
    partial: list[tuple[int, ...]] = [()]
    for i in range(n):
        # an earlier j below i needs f(j) <= f(i); an earlier j above i, f(i) <= f(j)
        bounds = [(j, geq) for j in range(i) if below[i] >> j & 1]
        bounds += [(j, leq) for j in range(i) if above[i] >> j & 1]
        cand = candidates[i]
        grown = []
        for f in partial:
            m = cand
            for j, rows in bounds:
                m &= rows[f[j]]
            while m:
                low = m & -m
                grown.append(f + (low.bit_length() - 1,))
                m ^= low
        partial = grown
    return partial


def monotone_tables(below: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All monotone self-maps: order-preserving, every element comparable to its image."""
    return _map_tables(below, "comparable")


def increasing_tables(below: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All increasing self-maps: order-preserving with x <= f(x)."""
    return _map_tables(below, "geq")


def decreasing_tables(below: tuple[int, ...]) -> list[tuple[int, ...]]:
    return _map_tables(below, "leq")


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
    nb = [0] * len(below)
    for i, t in enumerate(_remap(below, [1 << p for p in perm])):
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
    # bit j of clash[i]: subsets[j] contains or lies in subsets[i]
    clash = [sum(1 << j for j, t in enumerate(subsets) if s & t in (s, t)) for s in subsets]
    # per depth: the next index to try, the allowed indices, the facets chosen
    frames = [(0, (1 << len(subsets)) - 1, ())]
    while frames:
        start, allowed, chosen = frames.pop()
        rest = allowed >> start << start
        if rest:
            idx = (rest & -rest).bit_length() - 1
            frames.append((idx + 1, allowed, chosen))
            chosen += (subsets[idx],)
            yield chosen
            frames.append((idx + 1, allowed & ~clash[idx], chosen))


# -- converters to the object API ---------------------------------------------------


def poset_from_masks(below: tuple[int, ...], labels: str = LABELS) -> Poset:
    n = len(below)
    if n > len(labels):
        raise PosetError(f"{n} mask rows but only {len(labels)} labels")
    chosen = tuple(labels[:n])
    if list(chosen) != sorted(set(chosen)):
        raise PosetError("mask indices must follow sorted, distinct label order")
    for i, row in enumerate(below):
        # a strict order's row has no bit past n or at i and contains the row of
        # each element it holds (so the order is closed, and with that acyclic)
        bad = row >> n or row >> i & 1
        m = row
        while m and not bad:
            bad = below[(m & -m).bit_length() - 1] & ~row
            m &= m - 1
        if bad:
            raise PosetError(f"mask rows are not a closed strict order: row {i} is {row}")
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
    """The complex with these face masks over `labels` (distinct and sorted),
    checked and maximalized as the constructor does its faces."""
    vertices = tuple(labels)
    if list(vertices) != sorted(set(vertices)):
        raise ComplexError("mask indices must follow sorted, distinct label order")
    masks = list(facet_masks)
    for mask in masks:
        if mask >> len(vertices):
            raise ComplexError(f"facet mask {mask} has a vertex past the {len(vertices)} labels")
    return SimplicialComplex._from_masks(vertices, _maximalize(masks))
