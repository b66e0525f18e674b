"""Posets, map classification, decomposition, stabilization."""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from poset_collapse import (
    Poset,
    PosetError,
    PosetMap,
    decompose_monotone,
    open_interval,
    stabilize,
    stable_preimage,
)
from poset_collapse.enumeration import (
    decreasing_tables,
    increasing_tables,
    map_from_table,
    monotone_tables,
)

from conftest import map_flags, posets


def chain(labels="abc"):
    return Poset(labels, list(zip(labels, labels[1:])))


def b2():
    return Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])


B2_CLOSURE = {"0": "2", "1": "12", "2": "2", "12": "12"}  # S -> S with 2 added
B2_DROP = {"0": "0", "1": "0", "2": "2", "12": "2"}  # T -> T without 1


class TestPosetConstruction:
    def test_covers_regenerate_order(self):
        P = chain()
        assert P.lt("a", "c")
        assert sorted(P.cover_pairs()) == [("a", "b"), ("b", "c")]
        Q = Poset(P.elements, P.cover_pairs())
        assert Q == P

    def test_reflexive_pair_rejected(self):
        with pytest.raises(PosetError):
            Poset(["a"], [("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(PosetError):
            Poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_unknown_element_rejected(self):
        with pytest.raises(PosetError):
            Poset(["a"], [("a", "z")])

    def test_empty_poset_is_fine(self):
        assert len(Poset([])) == 0

    def test_dual_reverses(self):
        P = chain()
        assert P.dual().lt("c", "a")
        assert P.dual().dual() == P

    def test_maximal_chains_of_b2(self):
        assert sorted(sorted(c) for c in b2().maximal_chains()) == [
            ["0", "1", "12"],
            ["0", "12", "2"],
        ]


class TestOpenInterval:
    def test_chain_below_top(self):
        assert open_interval(chain(), "c", "below") == chain("ab")

    def test_b2_below_top_is_butterfly(self):
        sub = open_interval(b2(), "12", "below")
        assert set(sub.elements) == {"0", "1", "2"}
        assert sorted(sub.lt_pairs()) == [("0", "1"), ("0", "2")]

    def test_chain_above_top_is_empty(self):
        assert len(open_interval(chain(), "c", "above")) == 0

    def test_unknown_element(self):
        with pytest.raises(PosetError):
            open_interval(chain(), "z", "below")


class TestClassify:
    def test_union_closure_is_increasing(self):
        phi = PosetMap(b2(), B2_CLOSURE)
        assert phi.order_preserving and phi.monotone and phi.increasing
        assert not phi.decreasing

    def test_drop_map_is_decreasing(self):
        phi = PosetMap(b2(), B2_DROP)
        assert phi.decreasing and phi.monotone and not phi.increasing

    def test_composition_of_the_two_is_not_monotone(self):
        P = b2()
        comp = PosetMap(P, B2_DROP).compose(PosetMap(P, B2_CLOSURE))
        assert comp.table == {"0": "2", "1": "2", "2": "2", "12": "2"}
        assert comp.order_preserving and not comp.monotone
        assert comp.non_monotone_witness() == "1"

    def test_identity_has_all_flags(self):
        P = b2()
        phi = PosetMap(P, {e: e for e in P})
        assert map_flags(phi) == (True, True, True, True)

    def test_partial_map_rejected(self):
        with pytest.raises(PosetError):
            PosetMap(chain(), {"a": "a"})

    def test_unknown_key_rejected(self):
        with pytest.raises(PosetError, match="^map has a key outside the poset: 'zzz'$"):
            PosetMap(chain(), {"a": "a", "b": "b", "c": "c", "zzz": "a"})

    @pytest.mark.parametrize("image", [["b"], {"b": 1}, "zzz"])
    def test_image_outside_the_poset_rejected(self, image):
        # an unhashable image is outside the poset too, not a TypeError
        with pytest.raises(PosetError, match=rf"^map sends 'a' outside the poset: {re.escape(repr(image))}$"):
            PosetMap(chain(), {"a": image, "b": "b", "c": "c"})

    def test_table_is_a_copy(self):
        phi = PosetMap(chain(), {"a": "b", "b": "b", "c": "c"})
        phi.table["a"] = "c"
        assert phi("a") == "b" and phi.table == {"a": "b", "b": "b", "c": "c"}

    @given(posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_flag_implications(self, P):
        from conftest import below_masks

        for table in monotone_tables(below_masks(P)):
            phi = map_from_table(P, table)
            assert phi.order_preserving
            if phi.increasing or phi.decreasing:
                assert phi.monotone


class TestDecompose:
    def test_increasing_map_decomposes_trivially(self):
        phi = PosetMap(b2(), B2_CLOSURE)
        alpha, beta = decompose_monotone(phi)
        assert alpha.table == phi.table
        assert beta.is_identity()

    def test_decreasing_map_decomposes_trivially(self):
        phi = PosetMap(b2(), B2_DROP)
        alpha, beta = decompose_monotone(phi)
        assert alpha.is_identity()
        assert beta.table == phi.table

    def test_mixed_map_on_chain(self):
        # expected pair computed by the exhaustive uniqueness oracle below
        phi = PosetMap(chain(), {"a": "b", "b": "b", "c": "b"})
        alpha, beta = decompose_monotone(phi)
        assert alpha.table == {"a": "b", "b": "b", "c": "c"}
        assert beta.table == {"a": "a", "b": "b", "c": "b"}
        pairs = brute_force_decompositions(phi)
        assert pairs == [(alpha.table, beta.table)]

    def test_non_monotone_rejected(self):
        P = b2()
        comp = PosetMap(P, B2_DROP).compose(PosetMap(P, B2_CLOSURE))
        with pytest.raises(PosetError):
            decompose_monotone(comp)

    @given(posets(max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_unique_against_brute_force(self, P):
        from conftest import below_masks

        for table in monotone_tables(below_masks(P)):
            phi = map_from_table(P, table)
            alpha, beta = decompose_monotone(phi)
            assert brute_force_decompositions(phi) == [(alpha.table, beta.table)]


def brute_force_decompositions(phi: PosetMap):
    """All (alpha, beta) with alpha increasing, beta decreasing, composed equal
    to phi, and the displacement direction of phi(x) dictating which part
    fixes x.  The weaker requirement "every x fixed by one of the two" admits
    extra pairs (already on the 3-chain with phi = (a->b, b->b, c->b), where
    beta may drop b to a and let alpha lift it back); the dictated-fixing
    form is the one under which the pair is provably unique."""
    from conftest import below_masks

    P = phi.domain
    masks = below_masks(P)
    out = []
    for at in increasing_tables(masks):
        a = map_from_table(P, at)
        for bt in decreasing_tables(masks):
            b = map_from_table(P, bt)
            if a.compose(b).table != phi.table:
                continue
            if a.fixed_points() | b.fixed_points() != frozenset(P.elements):
                continue
            ok = True
            for x in P.elements:
                fx = phi.table[x]
                if P.leq(x, fx) and b.table[x] != x:
                    ok = False
                    break
                if P.leq(fx, x) and a.table[x] != x:
                    ok = False
                    break
            if ok:
                out.append((a.table, b.table))
    return sorted(out, key=lambda pair: (sorted(pair[0].items()), sorted(pair[1].items())))


def test_weak_fix_union_condition_does_not_pin_the_pair():
    # regression pin: with only "Fix(alpha) u Fix(beta) = P", the 3-chain map
    # (a->b, b->b, c->b) admits three decompositions; the dictated-fixing
    # condition is what makes decompose_monotone's output canonical
    P = chain()
    phi = PosetMap(P, {"a": "b", "b": "b", "c": "b"})
    from conftest import below_masks

    masks = below_masks(P)
    weak = []
    for at in increasing_tables(masks):
        a = map_from_table(P, at)
        for bt in decreasing_tables(masks):
            b = map_from_table(P, bt)
            if (
                a.compose(b).table == phi.table
                and a.fixed_points() | b.fixed_points() == frozenset(P.elements)
            ):
                weak.append((a.table, b.table))
    assert len(weak) == 3
    assert len(brute_force_decompositions(phi)) == 1


class TestStabilize:
    def test_identity(self):
        phi = PosetMap(chain(), {e: e for e in "abc"})
        assert stabilize(phi) == phi

    def test_idempotent_closure(self):
        phi = PosetMap(b2(), B2_CLOSURE)
        assert phi.compose(phi) == phi  # idempotent, so the power stays put
        assert stabilize(phi) == phi

    def test_already_stable_chain_map(self):
        phi = PosetMap(chain(), {"a": "b", "b": "b", "c": "b"})
        assert stabilize(phi) == phi

    def test_matches_plain_power(self):
        P = Poset("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        phi = PosetMap(P, {"a": "b", "b": "c", "c": "d", "d": "d"})
        assert stabilize(phi) == phi.power(len(P))

    @given(posets(max_size=5), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_powers_of_monotone_maps_stay_monotone(self, P, k):
        from conftest import below_masks

        for table in monotone_tables(below_masks(P))[:20]:
            phi = map_from_table(P, table)
            assert phi.power(k).monotone


class TestStablePreimage:
    def test_identity_preimage_is_singleton(self):
        phi = PosetMap(chain(), {e: e for e in "abc"})
        assert stable_preimage(phi, "b") == {"b"}

    def test_b2_closure_preimages(self):
        phi = PosetMap(b2(), B2_CLOSURE)
        assert stable_preimage(phi, "12") == {"1", "12"}
        assert stable_preimage(phi, "0") == frozenset()
        assert stable_preimage(phi, "2") == {"0", "2"}

    def test_fixed_points_of_closure(self):
        phi = PosetMap(b2(), B2_CLOSURE)
        assert phi.fixed_points() == {"2", "12"}

    @given(posets(max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_preimages_partition_the_poset(self, P):
        from conftest import below_masks

        for table in monotone_tables(below_masks(P))[:15]:
            phi = map_from_table(P, table)
            stab = stabilize(phi)
            seen = set()
            for z in stab.image():
                part = stable_preimage(phi, z)
                assert not part & seen
                seen |= part
            assert seen == set(P.elements)


class TestCompositionClosure:
    @given(posets(max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_increasing_and_decreasing_compose(self, P):
        from conftest import below_masks

        masks = below_masks(P)
        inc = [map_from_table(P, t) for t in increasing_tables(masks)[:8]]
        dec = [map_from_table(P, t) for t in decreasing_tables(masks)[:8]]
        for f in inc:
            for g in inc:
                assert f.compose(g).increasing
        for f in dec:
            for g in dec:
                assert f.compose(g).decreasing

