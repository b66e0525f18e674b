"""Mobius tables, the Hall identity, and the generalized Crapo identity."""

from itertools import combinations

import pytest
from hypothesis import given, settings

from poset_collapse import (
    Poset,
    PosetError,
    PosetMap,
    crapo_check,
    hall_check,
    mobius_table,
    stabilize,
    stable_preimage,
)
from poset_collapse.enumeration import increasing_tables, map_from_table

from conftest import below_masks, posets


def chain(labels):
    return Poset(labels, list(zip(labels, labels[1:])))


def b2():
    return Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])


def b3():
    atoms = ["1", "2", "3"]
    pairs = ["12", "13", "23"]
    covers = [("0", a) for a in atoms]
    covers += [(a, p) for a in atoms for p in pairs if a in p]
    covers += [(p, "123") for p in pairs]
    return Poset(["0", "123"] + atoms + pairs, covers)


def chain_count_mobius(P: Poset, x: str, y: str) -> int:
    """Independent oracle: mu(x,y) = sum over chains x=z0<...<zk=y of (-1)^k."""
    if x == y:
        return 1
    strictly_between = sorted(P.strictly_above(x) & P.strictly_below(y))
    total = 0
    for k in range(len(strictly_between) + 1):
        for mid in combinations(strictly_between, k):
            if all(P.lt(mid[i], mid[i + 1]) for i in range(len(mid) - 1)):
                total += (-1) ** (len(mid) + 1)
    return total


class TestMobiusTable:
    def test_two_chain(self):
        t = mobius_table(chain("ab"))
        assert t[("a", "b")] == -1
        assert t[("a", "a")] == 1

    def test_b2_top_value(self):
        assert mobius_table(b2())[("0", "12")] == 1

    def test_b3_alternates(self):
        t = mobius_table(b3())
        assert t[("0", "123")] == -1  # (-1)^3
        assert t[("0", "12")] == 1
        assert t[("0", "1")] == -1

    def test_unrelated_pair_is_undefined(self):
        t = mobius_table(b2())
        with pytest.raises(PosetError):
            t[("1", "2")]

    @given(posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_interval_sums_vanish(self, P):
        t = mobius_table(P)
        for x in P.elements:
            for y in P.elements:
                if P.lt(x, y):
                    interval = (P.strictly_above(x) & P.strictly_below(y)) | {x, y}
                    assert sum(t[(x, z)] for z in interval) == 0

    @given(posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_chain_count_oracle(self, P):
        t = mobius_table(P)
        for x in P.elements:
            for y in P.elements:
                if P.leq(x, y):
                    assert t[(x, y)] == chain_count_mobius(P, x, y)


class TestHall:
    def test_two_chain_uses_void_convention(self):
        assert hall_check(chain("ab")) == type(hall_check(chain("ab")))(-1, -1, True)

    def test_three_chain(self):
        check = hall_check(chain("abc"))
        assert (check.mu, check.reduced_euler, check.equal) == (0, 0, True)

    def test_b3_hexagon(self):
        check = hall_check(b3())
        assert (check.mu, check.reduced_euler, check.equal) == (-1, -1, True)

    def test_unbounded_rejected(self):
        with pytest.raises(PosetError):
            hall_check(Poset("ab"))
        with pytest.raises(PosetError):
            hall_check(Poset(["a"]))

    @given(posets(max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_holds_whenever_bounded(self, P):
        if len(P) >= 2 and P.minimum() is not None and P.maximum() is not None:
            assert hall_check(P).equal


class TestCrapo:
    def test_identity_map_full_subset(self):
        P = b2()
        check = crapo_check(P, PosetMap(P, {e: e for e in P}), set(P.elements))
        assert check.case == "fixed-zero"
        assert check.lhs == check.rhs == mobius_table(P)[("0", "12")]

    def test_b2_closure_zero_case(self):
        P = b2()
        phi = PosetMap(P, {"0": "2", "1": "12", "2": "2", "12": "12"})
        check = crapo_check(P, phi, {"0", "2", "12"})
        # 0-hat is moved, so the sum over the stable preimage of the top
        # must vanish: mu(0,1) + mu(0,12) = -1 + 1
        assert check.case == "zero-not-fixed"
        assert (check.lhs, check.rhs, check.equal) == (0, 0, True)

    def test_b3_join_with_atom_closure(self):
        P = b3()
        table = {e: e if "1" in e else _join_with_1(e) for e in P.elements}
        phi = PosetMap(P, table)
        assert phi.increasing
        pre_top = stable_preimage(phi, "123")
        Q = (set(P.elements) - pre_top) | {"123"}
        assert phi.fixed_points() <= Q
        check = crapo_check(P, phi, Q)
        assert check.equal

    def test_map_over_another_poset_rejected(self):
        # phi is increasing on a, b < c but not on the chain a < b < c; read
        # against the chain, it would give lhs 1 against rhs 0
        P = chain("abc")
        phi = PosetMap(Poset("abc", [("a", "c"), ("b", "c")]), {"a": "c", "b": "b", "c": "c"})
        with pytest.raises(PosetError, match="^the map's domain is not P$"):
            crapo_check(P, phi, {"b", "c"})

    def test_named_preconditions(self):
        P = b2()
        drop = PosetMap(P, {"0": "0", "1": "0", "2": "2", "12": "2"})
        with pytest.raises(PosetError, match="not-increasing"):
            crapo_check(P, drop, set(P.elements))
        closure = PosetMap(P, {"0": "2", "1": "12", "2": "2", "12": "12"})
        with pytest.raises(PosetError, match="fix-not-in-Q"):
            crapo_check(P, closure, {"0", "12"})
        with pytest.raises(PosetError, match="Q-meets-preimage"):
            crapo_check(P, closure, {"1", "2", "12"})
        unbounded = Poset("ab")
        with pytest.raises(PosetError):
            crapo_check(unbounded, PosetMap(unbounded, {"a": "a", "b": "b"}), {"a", "b"})

    @given(posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_identity_holds_for_admissible_inputs(self, P):
        if len(P) < 2 or P.minimum() is None or P.maximum() is None:
            return
        top = P.maximum()
        for table in increasing_tables(below_masks(P))[:20]:
            phi = map_from_table(P, table)
            pre_top = stable_preimage(phi, top)
            if phi.fixed_points() & pre_top != {top}:
                continue
            free = set(P.elements) - phi.fixed_points() - pre_top
            for extra in _all_subsets(sorted(free)):
                Q = phi.fixed_points() | {top} | set(extra)
                assert crapo_check(P, phi, Q).equal

    @given(posets(max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_preimage_splits_the_total_sum(self, P):
        # the rewriting step: the sum over the stable preimage of the top is
        # minus the sum over everything else
        if len(P) < 2 or P.minimum() is None or P.maximum() is None:
            return
        bottom, top = P.minimum(), P.maximum()
        t = mobius_table(P)
        for table in increasing_tables(below_masks(P))[:20]:
            phi = map_from_table(P, table)
            pre = stable_preimage(phi, top)
            inside = sum(t[(bottom, z)] for z in pre)
            outside = sum(t[(bottom, z)] for z in set(P.elements) - pre)
            assert inside == -outside


def _join_with_1(e: str) -> str:
    return "".join(sorted(set(e) | {"1"}, key="0123".index)).replace("0", "")


def _all_subsets(items):
    out = [()]
    for item in items:
        out += [prev + (item,) for prev in out]
    return out
