"""The bitmask enumeration cores against published counts and the object API."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from poset_collapse import Poset, PosetError, PosetMap, stabilize
from poset_collapse.enumeration import (
    LABELS,
    apply_perm,
    canonical_poset,
    complex_from_masks,
    decreasing_tables,
    increasing_tables,
    iter_antichain_complexes,
    iter_posets,
    map_from_table,
    monotone_tables,
    poset_from_masks,
    stabilize_table,
    table_fixed_mask,
    table_image_mask,
)

from conftest import below_masks, label_table, map_flags, power_table, ref_classify

LABELED_POSET_COUNTS = {0: 1, 1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
UNLABELED_POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def test_labeled_poset_counts_match_the_literature():
    for n, expected in LABELED_POSET_COUNTS.items():
        assert sum(1 for _ in iter_posets(n)) == expected


def test_posets_are_distinct_and_valid():
    seen = set()
    for below in iter_posets(4):
        assert below not in seen
        seen.add(below)
        P = poset_from_masks(below)
        # reconstructing through the validating constructor must agree
        assert Poset(P.elements, P.lt_pairs()) == P


def test_unlabeled_counts_via_canonical_forms():
    for n, expected in UNLABELED_POSET_COUNTS.items():
        classes = {canonical_poset(below)[0] for below in iter_posets(n)}
        assert len(classes) == expected


def test_canonical_form_is_invariant_under_relabeling():
    rng = random.Random(7)
    for below in list(iter_posets(4))[::7]:
        canon, _ = canonical_poset(below)
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = apply_perm(below, tuple(perm))
        assert canonical_poset(relabeled)[0] == canon


def test_canonical_perms_are_exactly_the_optimal_ones():
    for below in list(iter_posets(3)):
        canon, perms = canonical_poset(below)
        brute = [p for p in permutations(range(3)) if apply_perm(below, p) == canon]
        assert sorted(perms) == sorted(brute)


def test_maps_match_the_label_reference_and_the_streams():
    # every self-map on at most 3 elements: the int-table classifier, powers
    # and stabilize against the label-level reference in conftest, and the
    # three table streams against the reference's flags
    for n in range(1, 4):
        for below in iter_posets(n):
            P = poset_from_masks(below)
            mono, inc, dec = set(), set(), set()
            for values in product(range(n), repeat=n):
                mapping = label_table(P, values)
                phi = PosetMap(P, mapping)
                ref = ref_classify(P, mapping)
                assert map_flags(phi) == ref
                assert map_from_table(P, values) == phi
                assert map_flags(map_from_table(P, values)) == ref
                for k in (0, 1, 2, 5):
                    power = phi.power(k)
                    assert power.table == label_table(P, power_table(values, k))
                    assert map_flags(power) == ref_classify(P, power.table)
                if phi.order_preserving:
                    assert stabilize(phi).table == label_table(P, power_table(values, n))
                if ref[1]:
                    mono.add(values)
                if ref[2]:
                    inc.add(values)
                if ref[3]:
                    dec.add(values)
            assert set(monotone_tables(below)) == mono
            assert set(increasing_tables(below)) == inc
            assert set(decreasing_tables(below)) == dec


def test_map_from_table_rejects_a_bad_table():
    P = poset_from_masks((0, 1, 3))
    for bad in [(-1, 1, 2), (3, 1, 2), (0, 1), (0, 1, 2, 2)]:
        with pytest.raises(PosetError, match="^not a self-map table on 3 elements"):
            map_from_table(P, bad)


def test_table_stabilization_matches_object_stabilize():
    # every monotone map on at most 4 elements, against plain composition
    for n in range(1, 5):
        for below in iter_posets(n):
            P = poset_from_masks(below)
            for table in monotone_tables(below):
                phi = map_from_table(P, table)
                assert map_flags(phi) == ref_classify(P, phi.table)
                expected = power_table(table, n)
                assert stabilize_table(table) == expected
                assert stabilize(phi).table == label_table(P, expected)
                for k in (1, 2):
                    assert phi.power(k).table == label_table(P, power_table(table, k))
                assert table_fixed_mask(table) == sum(
                    1 << i for i, e in enumerate(P.elements) if phi.table[e] == e
                )
                assert table_image_mask(table) == sum(
                    1 << P.elements.index(v) for v in set(phi.table.values())
                )


def test_antichain_complex_counts():
    # nonempty antichains of nonempty subsets of an n-pool
    assert sum(1 for _ in iter_antichain_complexes(1)) == 1
    assert sum(1 for _ in iter_antichain_complexes(2)) == 4
    assert sum(1 for _ in iter_antichain_complexes(3)) == 18
    assert sum(1 for _ in iter_antichain_complexes(4)) == 166


def test_antichain_masks_are_facets():
    for masks in iter_antichain_complexes(3):
        X = complex_from_masks(masks)
        assert len(X.facets) == len(masks)


@given(st.integers(0, 4230))
@settings(max_examples=30, deadline=None)
def test_mask_poset_roundtrip_on_random_indices(idx):
    all5 = list(iter_posets(5))
    below = all5[idx % len(all5)]
    P = poset_from_masks(below)
    assert below_masks(P) == below
