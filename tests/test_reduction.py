"""The reduction engine: interval witnesses and the main theorem procedure."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings

from poset_collapse import (
    EVASIVE,
    ComplexError,
    NECertificate,
    Poset,
    PosetError,
    PosetMap,
    SearchBudget,
    PointWitness,
    SimplicialComplex,
    SplitWitness,
    certificate_to_collapse,
    cone_witness,
    interval_witness,
    is_nonevasive,
    join,
    join_witness,
    link,
    order_complex,
    reduce_to_image,
    reduced_euler,
    search_ne_reduction,
    stabilize,
    theorem_reduce,
    verify_collapse,
    verify_ne_certificate,
    verify_witness,
    z2_betti,
)
from poset_collapse.enumeration import (
    iter_posets,
    map_from_table,
    monotone_tables,
    poset_from_masks,
)
from poset_collapse.reduction import _IntervalBuilder

from conftest import betti_equal, grid, posets


def b2():
    return Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])


B2_CLOSURE = {"0": "2", "1": "12", "2": "2", "12": "12"}


class TestIntervalWitness:
    def test_ascending_case_on_b2(self):
        P = b2()
        phi = PosetMap(P, B2_CLOSURE)
        w = interval_witness(P, phi, "0")
        lk = link(order_complex(P), "0")
        assert verify_witness(lk, w)

    def test_point_intervals_on_chain(self):
        P = Poset("abc", [("a", "b"), ("b", "c")])
        phi = PosetMap(P, {"a": "a", "b": "a", "c": "c"})
        w = interval_witness(P, phi, "b")
        lk = link(order_complex(P), "b")  # the edge {a, c}
        assert lk == join(order_complex(P.induced({"a"})), order_complex(P.induced({"c"})))
        assert verify_witness(lk, w)

    def test_two_step_descent(self):
        # x sits over a diamond; the map drops x to the bottom, so both middle
        # elements must be peeled before the cone appears
        P = Poset(
            ["bot", "m1", "m2", "x", "top"],
            [("bot", "m1"), ("bot", "m2"), ("m1", "x"), ("m2", "x"), ("x", "top")],
        )
        phi = PosetMap(
            P, {"bot": "bot", "m1": "bot", "m2": "bot", "x": "bot", "top": "top"}
        )
        w = interval_witness(P, phi, "x")
        lk = link(order_complex(P), "x")
        assert verify_witness(lk, w)

    def test_fixed_point_rejected(self):
        P = b2()
        phi = PosetMap(P, B2_CLOSURE)
        with pytest.raises(PosetError):
            interval_witness(P, phi, "2")

    def test_non_monotone_rejected(self):
        P = b2()
        comp = PosetMap(P, {"0": "2", "1": "2", "2": "2", "12": "2"})
        with pytest.raises(PosetError):
            interval_witness(P, comp, "1")

    def test_map_over_another_poset_rejected(self):
        P = Poset("abc", [("a", "b"), ("b", "c")])
        phi = PosetMap(Poset("abc", [("a", "c"), ("b", "c")]), {"a": "c", "b": "b", "c": "c"})
        with pytest.raises(PosetError, match="^the map's domain is not P$"):
            interval_witness(P, phi, "a")

    def test_descending_part_ignores_the_upper_interval(self):
        # mutilating everything above x must not change the witness when
        # phi(x) < x and the upper interval is empty vs. rebuilt elsewhere
        P1 = Poset("abcx", [("a", "b"), ("b", "x"), ("c", "x"), ("a", "c")])
        P2 = Poset("abcxyz", [("a", "b"), ("b", "x"), ("c", "x"), ("a", "c"), ("x", "y"), ("x", "z")])
        t1 = {"a": "a", "b": "a", "c": "a", "x": "a"}
        t2 = dict(t1, y="y", z="z")
        w1 = interval_witness(P1, PosetMap(P1, t1), "x")
        # P1 has nothing above x, so its witness is exactly the descending part;
        # the P2 witness must verify against the bigger link built from the same
        # below-interval joined with the untouched upper part
        w2 = interval_witness(P2, PosetMap(P2, t2), "x")
        assert verify_witness(link(order_complex(P1), "x"), w1)
        assert verify_witness(link(order_complex(P2), "x"), w2)


class TestTheoremReduce:
    def test_b2_closure_to_fixed_points(self):
        P = b2()
        phi = PosetMap(P, B2_CLOSURE)
        report = theorem_reduce(P, phi, phi.fixed_points())
        assert report.removal_order == ("0", "1")  # label-least first
        X = order_complex(P)
        Y = order_complex(P.induced({"2", "12"}))
        assert Y == SimplicialComplex([["12", "2"]])
        assert verify_ne_certificate(X, Y, report.certificate)

    def test_identity_subset_gives_empty_certificate(self):
        P = b2()
        phi = PosetMap(P, B2_CLOSURE)
        report = theorem_reduce(P, phi, set(P.elements))
        assert report.removal_order == ()
        assert len(report.certificate) == 0

    def test_constant_map_on_chain_reduces_to_point(self):
        P = Poset("abc", [("a", "b"), ("b", "c")])
        phi = PosetMap(P, {"a": "b", "b": "b", "c": "b"})
        report = theorem_reduce(P, phi, {"b"})
        X = order_complex(P)
        Y = order_complex(P.induced({"b"}))
        assert verify_ne_certificate(X, Y, report.certificate)
        # an independent search also finds one
        found = search_ne_reduction(X, Y, SearchBudget(max_nodes=10000))
        assert isinstance(found, NECertificate)

    def test_missing_fixed_point_rejected(self):
        P = b2()
        phi = PosetMap(P, B2_CLOSURE)
        with pytest.raises(PosetError):
            theorem_reduce(P, phi, {"12"})  # 2 is fixed but missing

    def test_non_monotone_rejected(self):
        P = b2()
        comp = PosetMap(P, {"0": "2", "1": "2", "2": "2", "12": "2"})
        with pytest.raises(PosetError):
            theorem_reduce(P, comp, {"2"})

    def test_paper_exponent_can_undershoot_and_fallback_covers_it(self):
        # with Q holding a non-fixed point, phi^{|P-Q|} may land outside Q;
        # the procedure must fall back to the full stabilization
        P = Poset("abc", [("a", "b"), ("b", "c")])
        phi = PosetMap(P, {"a": "b", "b": "c", "c": "c"})
        Q = {"a", "c"}
        assert not phi.power(len(P) - len(Q)).image() <= Q
        report = theorem_reduce(P, phi, Q)
        assert report.gamma.image() <= Q
        X, Y = order_complex(P), order_complex(P.induced(Q))
        assert verify_ne_certificate(X, Y, report.certificate)

    def test_map_over_another_poset_rejected(self):
        # read against the chain, phi's power is not monotone, which would
        # be reported as a failed power instead of the wrong input it is
        P = Poset("abc", [("a", "b"), ("b", "c")])
        phi = PosetMap(Poset("abc", [("a", "c"), ("b", "c")]), {"a": "c", "b": "b", "c": "c"})
        with pytest.raises(PosetError, match="^the map's domain is not P$"):
            theorem_reduce(P, phi, {"b", "c"})

    def test_stabilization_outside_q_is_an_error_not_an_assert(self, monkeypatch):
        # a stabilization whose image misses Q must fail loudly, also under -O
        import poset_collapse.reduction as reduction

        P = Poset("abc", [("a", "b"), ("b", "c")])
        phi = PosetMap(P, {"a": "b", "b": "c", "c": "c"})
        monkeypatch.setattr(reduction, "stabilize", lambda f: f)
        with pytest.raises(PosetError, match="leaves Q"):
            theorem_reduce(P, phi, {"a", "c"})

    def test_paper_exponent_suffices_for_fix_and_image(self):
        # for the two canonical subsets the paper's N = |P - Q| never undershoots
        for n in range(1, 5):
            for below in iter_posets(n):
                P = poset_from_masks(below)
                for table in monotone_tables(below):
                    phi = map_from_table(P, table)
                    for Q in (phi.fixed_points(), phi.image()):
                        assert phi.power(len(P) - len(Q)).image() <= Q


class TestReduceToImage:
    def test_identity_map(self):
        P = b2()
        report = reduce_to_image(P, PosetMap(P, {e: e for e in P}))
        assert report.removal_order == ()

    def test_b2_closure(self):
        P = b2()
        report = reduce_to_image(P, PosetMap(P, B2_CLOSURE))
        X = order_complex(P)
        Y = order_complex(P.induced({"2", "12"}))
        assert verify_ne_certificate(X, Y, report.certificate)

    def test_decreasing_drop_map(self):
        P = b2()
        phi = PosetMap(P, {"0": "0", "1": "0", "2": "2", "12": "2"})
        report = reduce_to_image(P, phi)
        X = order_complex(P)
        Y = order_complex(P.induced({"0", "2"}))  # the edge 0 < 2
        assert verify_ne_certificate(X, Y, report.certificate)
        assert Y.f_vector() == (2, 1)


class TestReductionProperties:
    @given(posets(min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_certificates_collapse_and_homology_agree(self, P):
        from conftest import below_masks

        for table in monotone_tables(below_masks(P))[:10]:
            phi = map_from_table(P, table)
            for Q in (phi.fixed_points(), phi.image()):
                report = theorem_reduce(P, phi, Q, emit_collapse=True)
                X = order_complex(P)
                Y = order_complex(P.induced(Q))
                assert verify_ne_certificate(X, Y, report.certificate)
                assert verify_collapse(X, Y, report.collapse)
                assert len(report.collapse) == (X.n_faces() - Y.n_faces()) // 2
                assert betti_equal(z2_betti(X), z2_betti(Y))
                assert reduced_euler(X) == reduced_euler(Y)
                assert set(report.removal_order) == set(P.elements) - Q


# -- label-level reference for the element-mask builder --------------------------
#
# The interval construction as it ran on Poset and PosetMap objects: a new
# PosetMap and induced Poset per removed element, induced posets and order
# complexes per link, and `join_witness` with a fresh `cone_witness` per
# point leaf.  The builder must return equal maps, orders, certificates and
# collapses, and raise the same errors.


def ref_greedy_decreasing(B, subset):
    # decreasing linear extension of `subset` inside B: repeatedly take the
    # label-least element that is maximal among the remaining ones
    remaining = set(subset)
    order = []
    while remaining:
        for e in sorted(remaining):
            if not any(B.lt(e, o) for o in remaining):
                order.append(e)
                remaining.remove(e)
                break
    return order


def ref_descending_witness(B, f, top):
    target = B.down_set(top)
    removable = [e for e in B.elements if e not in target]
    if not removable:
        return cone_witness(order_complex(B), top)
    a = ref_greedy_decreasing(B, removable)[0]
    below = B.induced(B.strictly_below(a))
    wl = ref_descending_witness(below, f, f[a])
    above = B.strictly_above(a)
    if above:
        wl = join_witness(order_complex(below), wl, order_complex(B.induced(above)))
    deletion = B.induced(set(B.elements) - {a})
    wd = ref_descending_witness(deletion, f, top)
    return SplitWitness(a, wl, wd)


def ref_interval_witness(P, phi, x):
    if not phi.monotone:
        raise PosetError("interval_witness requires a monotone map")
    fx = phi(x)
    if fx == x:
        raise PosetError(f"{x!r} is a fixed point; its link needs no witness here")
    below = P.strictly_below(x)
    above = P.strictly_above(x)
    if P.lt(fx, x):
        B = P.induced(below)
        w = ref_descending_witness(B, phi.table, fx)
        if above:
            w = join_witness(order_complex(B), w, order_complex(P.induced(above)))
    else:
        B = P.induced(above)
        w = ref_descending_witness(B.dual(), phi.table, fx)
        if below:
            w = join_witness(order_complex(B), w, order_complex(P.induced(below)))
    return w


def ref_theorem_reduce(P, phi, Q, emit_collapse):
    """(gamma, removal order, certificate, collapse) of the label-level loop;
    the input checks are left to `theorem_reduce`."""
    Qset = frozenset(Q)
    gamma = phi.power(len(P) - len(Qset))
    if not gamma.image() <= Qset:
        gamma = stabilize(phi)
    cur = P
    table = gamma.table
    removed, witnesses = [], []
    while True:
        rest = [e for e in cur.elements if e not in Qset]
        if not rest:
            break
        x = rest[0]
        cur_map = PosetMap(cur, {e: table[e] for e in cur.elements})
        witnesses.append(ref_interval_witness(cur, cur_map, x))
        removed.append(x)
        cur = cur.induced(set(cur.elements) - {x})
    cert = NECertificate(tuple(removed), tuple(witnesses))
    collapse = certificate_to_collapse(order_complex(P), cert) if emit_collapse else None
    return gamma, tuple(removed), cert, collapse


def fallback_subset(phi):
    """A Q = Fix + {y} on which phi^{|P - Q|} leaves Q, or None."""
    fixed = phi.fixed_points()
    for y in sorted(set(phi.domain.elements) - fixed):
        Q = fixed | {y}
        if not phi.power(len(phi.domain) - len(Q)).image() <= Q:
            return Q
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PosetError, ValueError) as e:
        return type(e), str(e)


class TestBuilderMatchesLabelReference:
    def assert_same(self, P, phi, Q, emit_collapse):
        report = theorem_reduce(P, phi, Q, emit_collapse=emit_collapse)
        got = (report.gamma, report.removal_order, report.certificate, report.collapse)
        assert got == ref_theorem_reduce(P, phi, Q, emit_collapse)

    def test_every_monotone_map_on_four_elements(self):
        runs = fallbacks = 0
        for n in range(1, 5):
            for below in iter_posets(n):
                P = poset_from_masks(below)
                for table in monotone_tables(below):
                    phi = map_from_table(P, table)
                    Q_fb = fallback_subset(phi)
                    for Q in (phi.fixed_points(), phi.image(), Q_fb):
                        if Q is not None:
                            self.assert_same(P, phi, Q, emit_collapse=True)
                            runs += 1
                    fallbacks += Q_fb is not None
                    # the public entry on the unstabilized map, errors included
                    for x in P.elements:
                        assert outcome(interval_witness, P, phi, x) == outcome(ref_interval_witness, P, phi, x)
        # 2,810 monotone maps, each reduced to Fix and to the image, and 300
        # of them also to a subset that forces the stabilize fallback
        assert (runs, fallbacks) == (5920, 300)

    @pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (2, 3)])
    def test_grids_with_collapse(self, k, d):
        P, phi = grid(k, d)
        for Q in (phi.fixed_points(), phi.image()):
            self.assert_same(P, phi, Q, emit_collapse=True)


def long_deletion_chain(case):
    # about 1,000 elements whose interval witnesses peel long deletion chains
    mid = [f"a{i:03d}" for i in range(998)]
    if case == "chain":  # the total order 0 < a000 < a001 < ... < a997 < t, phi = t
        return constant_top_chain(["0", *mid, "t"])
    if case == "constant-top":  # 0 < a000..a997 < t, phi = t
        lt = [("0", a) for a in mid] + [(a, "t") for a in mid]
        P = Poset(["0", *mid, "t"], lt)
        return P, PosetMap(P, {e: "t" for e in P.elements})
    if case == "drop-b":  # 0 < b < c000..c998, b -> 0, the rest fixed
        top = [f"c{i:03d}" for i in range(999)]
        P = Poset(["0", "b", *top], [("0", "b")] + [("b", c) for c in top])
        return P, PosetMap(P, {**{e: e for e in P.elements}, "b": "0"})
    # z < 0 < a000..a997 < t, phi = t except z fixed
    lt = [("z", "0")] + [("0", a) for a in mid] + [(a, "t") for a in mid]
    P = Poset(["z", "0", *mid, "t"], lt)
    return P, PosetMap(P, {**{e: "t" for e in P.elements}, "z": "z"})


def constant_top_chain(labels):
    P = Poset(labels, list(zip(labels, labels[1:])))
    return P, PosetMap(P, {e: labels[-1] for e in labels})


def distinct_nodes(cert):
    seen, stack = set(), list(cert.witnesses)
    while stack:
        w = stack.pop()
        if id(w) not in seen:
            seen.add(id(w))
            if isinstance(w, SplitWitness):
                stack += [w.link, w.deletion]
    return len(seen)


class TestLongDeletionChains:
    # the builder walks peels and cones on the kernel's stack, at any height
    @pytest.mark.parametrize("case", ["chain", "constant-top", "drop-b", "fixed-bottom"])
    def test_reduce_and_verify(self, case):
        P, phi = long_deletion_chain(case)
        Q = phi.fixed_points()
        report = theorem_reduce(P, phi, Q)
        assert len(report.removal_order) == len(P) - len(Q)
        X, Y = order_complex(P), order_complex(P.induced(Q))
        assert verify_ne_certificate(X, Y, report.certificate)

    def test_equal_peels_are_one_node(self):
        # each state's witness is built once: the 18-chain's certificate has
        # 17 distinct nodes, where a tree of the same witnesses has 131,055
        P, phi = constant_top_chain([f"e{i:02d}" for i in range(18)])
        report = theorem_reduce(P, phi, phi.fixed_points())
        assert distinct_nodes(report.certificate) <= 18


class TestWorkGuard:
    def test_grid_reduction_builds_one_map_and_one_order_complex(self, monkeypatch):
        P, phi = grid(4, 2)
        Q = phi.fixed_points()
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every PosetMap, from a label dict or from an int table, is set up here
        monkeypatch.setattr(PosetMap, "_init_table", counting("PosetMap", PosetMap._init_table))
        monkeypatch.setattr(Poset, "induced", counting("induced", Poset.induced))
        wrapped = counting("order_complex", order_complex)
        for name, module in list(sys.modules.items()):
            if name.startswith("poset_collapse") and getattr(module, "order_complex", None) is order_complex:
                monkeypatch.setattr(module, "order_complex", wrapped)
        report = theorem_reduce(P, phi, Q, emit_collapse=True)
        assert (calls["PosetMap"], calls["induced"], calls["order_complex"]) == (1, 0, 1)
        assert len(report.collapse) == 498


def labels_of(P, S):
    return {e for i, e in enumerate(P.elements) if S >> i & 1}


class TestBuilderOnOrderComplexes:
    """Links and deletions of Delta(S) as masks: the cones and the replay
    agree with `cone_witness` and `verify_witness` on the order complexes."""

    def test_cones_and_replay_on_every_subposet(self):
        checked = 0
        for n in range(1, 5):
            for below in iter_posets(n):
                P = poset_from_masks(below)
                builder = _IntervalBuilder(P, range(n))
                subsets = range(1, 1 << n)
                pool = [is_nonevasive(order_complex(P.induced(labels_of(P, T)))) for T in subsets]
                pool = [w for w in pool if w is not EVASIVE]
                pool += [PointWitness("z"), SplitWitness("z", PointWitness("a"), PointWitness("a"))]
                for S in subsets:
                    X = order_complex(P.induced(labels_of(P, S)))
                    for apex in range(n):
                        expected = outcome(cone_witness, X, P.elements[apex])
                        assert outcome(builder.cone, S, apex) == expected
                    for w in pool:
                        assert builder._holds(S, w) == verify_witness(X, w)
                        checked += 1
        assert checked > 10_000

    def test_kept_checks_raise_as_the_object_steps_did(self):
        P = b2()  # elements 0, 1, 12, 2
        builder = _IntervalBuilder(P, range(4))
        down, up = P._below, P._above
        with pytest.raises(PosetError, match="^unknown element '12'$"):
            builder.descending(0b0011, 2, down, up)
        with pytest.raises(PosetError, match="^unknown element '12'$"):
            P.induced({"0", "1"}).down_set("12")
        with pytest.raises(ComplexError, match="^input witness does not verify$"):
            builder.join(0b0001, PointWitness("1"), 0b0100)
        with pytest.raises(ComplexError, match="^input witness does not verify$"):
            join_witness(order_complex(P.induced({"0"})), PointWitness("1"), order_complex(P.induced({"12"})))
        with pytest.raises(ComplexError, match="^join requires disjoint vertex labels$"):
            builder.join(0b0011, PointWitness("1"), 0b0010)
