"""The reduction engine: interval witnesses and the main theorem procedure."""

import pytest
from hypothesis import given, settings

from poset_collapse import (
    NECertificate,
    Poset,
    PosetError,
    PosetMap,
    SearchBudget,
    SimplicialComplex,
    interval_witness,
    join,
    link,
    order_complex,
    reduce_to_image,
    reduced_euler,
    search_ne_reduction,
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

from conftest import betti_equal, posets


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
