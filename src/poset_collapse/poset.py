"""Finite posets and monotone self-maps.

Posets are immutable: elements are opaque string labels with a fixed total
(lexicographic) order used only for deterministic iteration and tie-breaking,
never as poset structure.  The strict order is stored transitively closed as
per-element bitmasks over the sorted label tuple.

A self-map is an int table over the same sorted tuple, classified once from
the bitmask rows when the map is built.  Composition, powers and
stabilization work on tables; powers go through one kernel, `_table_power`,
which stops at the first fixpoint.  Label dicts appear only at the edges: a
`PosetMap` built from caller input, and its `table` view.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class PosetError(ValueError):
    """Invalid poset data, map data, or violated operation precondition."""


def _close_masks(below: list[int], n: int) -> list[int]:
    # Warshall over bitmask rows; below[i] = mask of elements strictly below i.
    for k in range(n):
        kbit = 1 << k
        bk = below[k]
        for i in range(n):
            if below[i] & kbit:
                below[i] |= bk
    return below


def _above_masks(below) -> tuple[int, ...]:
    """Transpose of bitmask rows: above[j] has bit i iff below[i] has bit j."""
    above = [0] * len(below)
    for i, m in enumerate(below):
        while m:
            j = (m & -m).bit_length() - 1
            above[j] |= 1 << i
            m &= m - 1
    return tuple(above)


class Poset:
    """Finite strict partial order. May be empty (used for open intervals)."""

    __slots__ = ("elements", "_index", "_below", "_above", "_hash")

    def __init__(self, elements: Iterable[str], lt_pairs: Iterable[tuple[str, str]] = ()):
        """Build from arbitrary strict-order pairs; transitive closure is applied
        and irreflexivity/antisymmetry validated."""
        elems = tuple(sorted(set(elements)))
        index = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        below = [0] * n
        for a, b in lt_pairs:
            if a not in index or b not in index:
                raise PosetError(f"relation ({a!r},{b!r}) uses unknown element")
            if a == b:
                raise PosetError(f"reflexive relation on {a!r}")
            below[index[b]] |= 1 << index[a]
        _close_masks(below, n)
        for i in range(n):
            if below[i] >> i & 1:
                raise PosetError(f"cycle through {elems[i]!r}: order is not antisymmetric")
        self._init_closed(elems, tuple(below), index)

    def _init_closed(self, elems, below, index=None):
        self.elements = elems
        self._index = index if index is not None else {e: i for i, e in enumerate(elems)}
        self._below = below
        self._above = _above_masks(below)
        self._hash = hash((elems, below))

    @classmethod
    def _from_closed(cls, elements: tuple[str, ...], below: tuple[int, ...]) -> "Poset":
        # Trusted path: `below` already transitively closed and acyclic.
        self = object.__new__(cls)
        self._init_closed(elements, below)
        return self

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self._index

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._below == other._below
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Poset({list(self.elements)}, {sorted(self.lt_pairs())})"

    def _check(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise PosetError(f"unknown element {x!r}") from None

    def lt(self, x: str, y: str) -> bool:
        return self._below[self._check(y)] >> self._check(x) & 1 == 1

    def leq(self, x: str, y: str) -> bool:
        return x == y or self.lt(x, y)

    def comparable(self, x: str, y: str) -> bool:
        return x == y or self.lt(x, y) or self.lt(y, x)

    def _mask_labels(self, mask: int) -> frozenset[str]:
        out = []
        elems = self.elements
        while mask:
            out.append(elems[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return frozenset(out)

    def strictly_below(self, x: str) -> frozenset[str]:
        return self._mask_labels(self._below[self._check(x)])

    def strictly_above(self, x: str) -> frozenset[str]:
        return self._mask_labels(self._above[self._check(x)])

    def down_set(self, x: str) -> frozenset[str]:
        """{y : y <= x}."""
        return self.strictly_below(x) | {x}

    def up_set(self, x: str) -> frozenset[str]:
        return self.strictly_above(x) | {x}

    def lt_pairs(self) -> frozenset[tuple[str, str]]:
        out = []
        for i, e in enumerate(self.elements):
            for a in self._mask_labels(self._below[i]):
                out.append((a, e))
        return frozenset(out)

    def cover_pairs(self) -> frozenset[tuple[str, str]]:
        """Transitive reduction; regenerates the full order under closure."""
        out = []
        for i, e in enumerate(self.elements):
            m = self._below[i]
            red = m
            mm = m
            while mm:
                j = (mm & -mm).bit_length() - 1
                red &= ~self._below[j]
                mm &= mm - 1
            for a in self._mask_labels(red):
                out.append((a, e))
        return frozenset(out)

    # -- derived posets -----------------------------------------------------

    def induced(self, labels: Iterable[str]) -> "Poset":
        """Induced subposet on a label subset."""
        keep = sorted(set(labels))
        pos = {}
        mask_old = 0
        for e in keep:
            pos[e] = len(pos)
            mask_old |= 1 << self._check(e)
        below = []
        for e in keep:
            m = self._below[self._index[e]] & mask_old
            nm = 0
            while m:
                j = (m & -m).bit_length() - 1
                nm |= 1 << pos[self.elements[j]]
                m &= m - 1
            below.append(nm)
        return Poset._from_closed(tuple(keep), tuple(below))

    def dual(self) -> "Poset":
        """Same elements with the order reversed."""
        return Poset._from_closed(self.elements, self._above)

    # -- structure ----------------------------------------------------------

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if not self._below[i])

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if not self._above[i])

    def minimum(self) -> str | None:
        """The unique minimum (0-hat), if one exists."""
        mins = self.minimal_elements()
        return mins[0] if len(mins) == 1 else None

    def maximum(self) -> str | None:
        maxs = self.maximal_elements()
        return maxs[0] if len(maxs) == 1 else None

    def is_bounded(self) -> bool:
        return len(self) >= 1 and self.minimum() is not None and self.maximum() is not None

    def maximal_chains(self) -> list[frozenset[str]]:
        """All inclusion-maximal chains, as vertex sets."""
        n = len(self.elements)
        if n == 0:
            return []
        chains: list[frozenset[str]] = []
        below, above = self._below, self._above
        elems = self.elements

        def extend(chain: list[int], allowed: int):
            # allowed = elements above every chain member; extend only by its
            # minimal members, so each maximal chain is produced exactly once
            if not allowed:
                chains.append(frozenset(elems[i] for i in chain))
                return
            m = allowed
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                if allowed & below[j]:
                    continue
                chain.append(j)
                extend(chain, allowed & above[j])
                chain.pop()

        for i in range(n):
            if not below[i]:
                extend([i], above[i])
        return sorted(chains, key=sorted)

    def linear_extension(self) -> tuple[str, ...]:
        """Minimal-first linear extension, label-least tie-break."""
        remaining = set(self.elements)
        out: list[str] = []
        while remaining:
            mins = [e for e in sorted(remaining) if not any(self.lt(o, e) for o in remaining if o != e)]
            x = mins[0]
            out.append(x)
            remaining.remove(x)
        return tuple(out)


# -- poset maps --------------------------------------------------------------


def _table_power(t: tuple[int, ...], k: int) -> tuple[int, ...]:
    """t^k for a self-map table t; stops once t∘g == g, since every later
    power is then g."""
    g = tuple(range(len(t)))
    for _ in range(k):
        nxt = tuple([t[i] for i in g])
        if nxt == g:
            break
        g = nxt
    return g


class PosetMap:
    """Total self-map of a poset, classified on construction.

    The map is an int table over `domain.elements`: `_t[i]` is the index of
    the image of element i.  `table` is its label view.

    `monotone` means order-preserving with every x comparable to its image;
    `increasing`/`decreasing` mean x <= f(x) / x >= f(x) throughout.
    """

    __slots__ = ("domain", "_t", "order_preserving", "monotone", "increasing", "decreasing")

    def __init__(self, domain: Poset, mapping: Mapping[str, str]):
        elems = domain.elements
        missing = [e for e in elems if e not in mapping]
        if missing:
            raise PosetError(f"map is not total: missing {missing[0]!r}")
        index = domain._index
        t = []
        for e in elems:
            v = mapping[e]
            try:
                t.append(index[v])
            except (KeyError, TypeError):  # TypeError: an unhashable image
                raise PosetError(f"map sends {e!r} outside the poset: {v!r}") from None
        if len(mapping) != len(elems):
            unknown = next(k for k in mapping if k not in index)
            raise PosetError(f"map has a key outside the poset: {unknown!r}")
        self._init_table(domain, tuple(t))

    @classmethod
    def _from_table(cls, domain: Poset, t: tuple[int, ...]) -> "PosetMap":
        # Trusted path: `t` is a valid int table over domain.elements.
        self = object.__new__(cls)
        self._init_table(domain, t)
        return self

    def _init_table(self, domain: Poset, t: tuple[int, ...]) -> None:
        below = domain._below
        op = True
        for i, m in enumerate(below):
            # order-preserving: every j below i maps to at most t[i]
            at_most = below[t[i]] | 1 << t[i]
            while op and m:
                op = at_most >> t[(m & -m).bit_length() - 1] & 1 == 1
                m &= m - 1
        inc = dec = mono = op
        if op:
            for i, v in enumerate(t):
                if v == i:
                    continue
                if below[v] >> i & 1:
                    dec = False
                elif below[i] >> v & 1:
                    inc = False
                else:
                    inc = dec = mono = False
                    break
        self.domain = domain
        self._t = t
        self.order_preserving = op
        self.monotone = mono
        self.increasing = inc
        self.decreasing = dec

    @property
    def table(self) -> dict[str, str]:
        """The map as a new label dict."""
        elems = self.domain.elements
        return {e: elems[v] for e, v in zip(elems, self._t)}

    def __call__(self, x: str) -> str:
        return self.domain.elements[self._t[self.domain._check(x)]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PosetMap)
            and self.domain == other.domain
            and self._t == other._t
        )

    def __hash__(self) -> int:
        return hash((self.domain, self._t))

    def __repr__(self) -> str:
        return f"PosetMap({self.table})"

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self._t))

    def compose(self, other: "PosetMap") -> "PosetMap":
        """self after other (self ∘ other)."""
        if self.domain != other.domain:
            raise PosetError("composition requires a common domain")
        t = self._t
        return PosetMap._from_table(self.domain, tuple([t[v] for v in other._t]))

    def power(self, k: int) -> "PosetMap":
        if k < 0:
            raise PosetError("negative power")
        return PosetMap._from_table(self.domain, _table_power(self._t, k))

    def fixed_points(self) -> frozenset[str]:
        elems = self.domain.elements
        return frozenset(elems[i] for i, v in enumerate(self._t) if i == v)

    def image(self) -> frozenset[str]:
        elems = self.domain.elements
        return frozenset(elems[v] for v in self._t)

    def non_monotone_witness(self) -> str | None:
        """An element incomparable to its image, if any."""
        P = self.domain
        for i, v in enumerate(self._t):
            if not (P._below[i] | P._above[i] | 1 << i) >> v & 1:
                return P.elements[i]
        return None


# -- module-level operations --------------------------------------------------


def open_interval(P: Poset, x: str, side: str) -> Poset:
    """P_{<x} (side="below") or P_{>x} (side="above") as an induced subposet."""
    if side == "below":
        return P.induced(P.strictly_below(x))
    if side == "above":
        return P.induced(P.strictly_above(x))
    raise PosetError(f"side must be 'below' or 'above', got {side!r}")


def decompose_monotone(phi: PosetMap) -> tuple[PosetMap, PosetMap]:
    """Split a monotone map as alpha∘beta with alpha increasing, beta decreasing,
    and every element fixed by at least one of the two.

    The returned pair is the canonical one: where phi moves x up, beta fixes x
    and alpha carries it; where phi moves x down, the roles swap; fixed points
    of phi are fixed by both.  With fixing dictated by the displacement
    direction this way, the pair is unique (the covering condition alone is
    not enough to pin it down)."""
    if not phi.monotone:
        raise PosetError("decompose_monotone requires a monotone map")
    P = phi.domain
    t = phi._t
    below = P._below
    # alpha carries x where phi moves it up, beta where phi moves it down
    alpha = tuple(v if below[v] >> i & 1 else i for i, v in enumerate(t))
    beta = tuple(v if below[i] >> v & 1 else i for i, v in enumerate(t))
    a = PosetMap._from_table(P, alpha)
    b = PosetMap._from_table(P, beta)
    if not a.increasing or not b.decreasing:
        raise PosetError("decomposition failed monotone-part classification")
    if any(alpha[beta[i]] != v for i, v in enumerate(t)):
        raise PosetError("decomposition does not compose back to the map")
    if any(alpha[i] != i and beta[i] != i for i in range(len(t))):
        raise PosetError("decomposition leaves an element moved by both parts")
    return a, b


def stabilize(phi: PosetMap) -> PosetMap:
    """phi^{|P|}; short-circuits once phi^{k+1} = phi^k (same result)."""
    if not phi.order_preserving:
        raise PosetError("stabilize requires an order-preserving map")
    result = PosetMap._from_table(phi.domain, _table_power(phi._t, len(phi.domain)))
    if phi.monotone and not result.monotone:
        raise PosetError("power of a monotone map must be monotone")
    return result


def stable_preimage(phi: PosetMap, z: str) -> frozenset[str]:
    """Elements sent to z by the stabilized map."""
    if z not in phi.domain:
        raise PosetError(f"unknown element {z!r}")
    zi = phi.domain._index[z]
    elems = phi.domain.elements
    return frozenset(elems[i] for i, v in enumerate(stabilize(phi)._t) if v == zi)
