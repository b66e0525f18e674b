"""Simplicial complexes: order complexes, links, joins, homotopy invariants."""

from itertools import combinations

import pytest
from hypothesis import given, settings

from poset_collapse import (
    VOID,
    CollapseSequence,
    ComplexError,
    NECertificate,
    PointWitness,
    Poset,
    SimplicialComplex,
    certificate_to_collapse,
    classify_ne_equivalence,
    cone_witness,
    delete_vertex,
    free_pairs,
    induced_subcomplex,
    is_cone,
    join,
    join_witness,
    lift_certificate_over_join,
    link,
    order_complex,
    reduced_euler,
    relabel,
    search_collapse,
    search_ne_reduction,
    verify_collapse,
    verify_ne_certificate,
    verify_witness,
    z2_betti,
)

from poset_collapse.enumeration import complex_from_masks, iter_antichain_complexes
from poset_collapse.serialization import complex_to_data

from conftest import (
    betti_equal,
    brute_chains,
    complexes,
    posets,
    ref_delete_vertex,
    ref_faces,
    ref_induced_subcomplex,
    ref_join,
    ref_link,
    ref_maximalize,
    ref_reduced_euler,
    ref_z2_betti,
)


def b3():
    atoms = ["1", "2", "3"]
    pairs = ["12", "13", "23"]
    covers = [("0", a) for a in atoms]
    covers += [(a, p) for a in atoms for p in pairs if a in p]
    covers += [(p, "123") for p in pairs]
    return Poset(["0", "123"] + atoms + pairs, covers)


class TestConstruction:
    def test_facets_are_maximalized(self):
        X = SimplicialComplex([["a", "b"], ["a"], ["b", "c"]])
        assert X.facets == frozenset({frozenset("ab"), frozenset("bc")})
        assert X.vertices == ("a", "b", "c")

    def test_empty_face_rejected(self):
        with pytest.raises(ComplexError):
            SimplicialComplex([[]])

    def test_no_faces_rejected(self):
        with pytest.raises(ComplexError):
            SimplicialComplex([])

    def test_faces_of_triangle(self):
        X = SimplicialComplex.simplex("abc")
        assert X.n_faces() == 7
        assert X.f_vector() == (3, 3, 1)

    def test_void_is_a_singleton(self):
        assert link(SimplicialComplex([["a"], ["b"]]), "a") is VOID


class TestOrderComplex:
    def test_chain_gives_full_simplex(self):
        P = Poset("abc", [("a", "b"), ("b", "c")])
        assert order_complex(P) == SimplicialComplex.simplex("abc")

    def test_antichain_gives_points(self):
        P = Poset("ab")
        assert order_complex(P) == SimplicialComplex([["a"], ["b"]])

    def test_proper_b3_is_a_hexagon(self):
        proper = b3().induced(set(b3().elements) - {"0", "123"})
        X = order_complex(proper)
        assert len(X.vertices) == 6
        assert X.f_vector() == (6, 6)
        assert reduced_euler(X) == -1

    def test_empty_poset_is_void(self):
        with pytest.raises(ComplexError):
            order_complex(Poset([]))

    @given(posets(max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_faces_are_exactly_the_chains(self, P):
        assert order_complex(P).faces() == brute_chains(P)


class TestLinkAndDeletion:
    def test_link_in_triangle_boundary(self):
        X = SimplicialComplex.simplex_boundary("abc")
        assert link(X, "a") == SimplicialComplex([["b"], ["c"]])

    def test_link_in_full_simplex(self):
        X = SimplicialComplex.simplex("abc")
        assert link(X, "a") == SimplicialComplex.simplex("bc")

    def test_link_in_order_complex_is_join_of_intervals(self):
        P = Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])
        X = order_complex(P)
        lk = link(X, "0")
        above = order_complex(P.induced(P.strictly_above("0")))
        assert lk == above  # below part is empty
        assert lk.f_vector() == (3, 2)  # path on three vertices

    def test_delete_vertex(self):
        X = SimplicialComplex.simplex("abc")
        assert delete_vertex(X, "a") == SimplicialComplex.simplex("bc")
        bd = SimplicialComplex.simplex_boundary("abc")
        assert delete_vertex(bd, "a") == SimplicialComplex([["b", "c"]])
        two = SimplicialComplex([["a"], ["b"]])
        assert delete_vertex(two, "a") == SimplicialComplex.point("b")

    def test_delete_last_vertex_rejected(self):
        with pytest.raises(ComplexError):
            delete_vertex(SimplicialComplex.point("a"), "a")

    def test_unknown_vertex(self):
        with pytest.raises(ComplexError):
            link(SimplicialComplex.point("a"), "z")

    @given(complexes())
    @settings(max_examples=60, deadline=None)
    def test_face_count_splits_at_any_vertex(self, X):
        for v in X.vertices:
            lk = link(X, v)
            containing = sum(1 for f in X.faces() if v in f)
            lk_count = 0 if lk is VOID else lk.n_faces()
            assert containing == lk_count + 1  # faces with v <-> link faces, plus {v}
            if len(X.vertices) >= 2:
                assert X.n_faces() == delete_vertex(X, v).n_faces() + lk_count + 1


class TestJoin:
    def test_point_join_point_is_edge(self):
        assert join(SimplicialComplex.point("a"), SimplicialComplex.point("b")) == SimplicialComplex(
            [["a", "b"]]
        )

    def test_point_join_is_cone(self):
        X = SimplicialComplex.simplex_boundary("abc")
        coned = join(SimplicialComplex.point("p"), X)
        assert is_cone(coned) == "p"

    def test_two_points_join_two_points_is_square(self):
        X = SimplicialComplex([["a"], ["b"]])
        Y = SimplicialComplex([["c"], ["d"]])
        XY = join(X, Y)
        assert XY.f_vector() == (4, 4)
        assert betti_equal(z2_betti(XY), (1, 1))  # a circle

    def test_overlapping_labels_rejected(self):
        with pytest.raises(ComplexError):
            join(SimplicialComplex.point("a"), SimplicialComplex.point("a"))

    @given(complexes(max_vertices=3), complexes(max_vertices=3))
    @settings(max_examples=40, deadline=None)
    def test_join_identities(self, X, Y):
        Y = relabel(Y, {v: v.upper() for v in Y.vertices})
        XY = join(X, Y)
        for v in X.vertices:
            lkv = link(X, v)
            expected = Y if lkv is VOID else join(lkv, Y)
            assert link(XY, v) == expected
            if len(X.vertices) >= 2:
                assert delete_vertex(XY, v) == join(delete_vertex(X, v), Y)
        assert reduced_euler(XY) == -reduced_euler(X) * reduced_euler(Y)


class TestCone:
    def test_full_simplex_apex_is_label_least(self):
        assert is_cone(SimplicialComplex.simplex("abc")) == "a"

    def test_boundary_is_not_a_cone(self):
        assert is_cone(SimplicialComplex.simplex_boundary("abc")) is None

    def test_order_complex_with_maximum_is_coned_at_it(self):
        P = Poset(["a", "b", "m"], [("a", "m"), ("b", "m")])
        assert is_cone(order_complex(P)) == "m"


class TestInvariants:
    def test_reduced_euler_examples(self):
        assert reduced_euler(SimplicialComplex.point("a")) == 0
        assert reduced_euler(SimplicialComplex.simplex_boundary("abc")) == -1

    def test_betti_examples(self):
        assert z2_betti(SimplicialComplex.point("a")) == (1,)
        assert z2_betti(SimplicialComplex.simplex_boundary("abc")) == (1, 1)
        assert z2_betti(SimplicialComplex.simplex("abc")) == (1, 0, 0)

    def test_two_spheres_worth_of_homology(self):
        bd = SimplicialComplex.simplex_boundary("abcd")  # a 2-sphere
        assert z2_betti(bd) == (1, 0, 1)
        assert reduced_euler(bd) == 1

    @given(complexes())
    @settings(max_examples=60, deadline=None)
    def test_betti_alternating_sum_matches_euler(self, X):
        b = z2_betti(X)
        assert sum(v if k % 2 == 0 else -v for k, v in enumerate(b)) - 1 == reduced_euler(X)


class TestInducedAndRelabel:
    def test_induced_subcomplex(self):
        X = SimplicialComplex.simplex_boundary("abc")
        assert induced_subcomplex(X, {"a", "b"}) == SimplicialComplex([["a", "b"]])
        assert induced_subcomplex(X, set()) is VOID

    def test_relabel_roundtrip(self):
        X = SimplicialComplex([["a", "b"], ["b", "c"]])
        Y = relabel(X, {"a": "x", "b": "y", "c": "z"})
        assert Y == SimplicialComplex([["x", "y"], ["y", "z"]])
        with pytest.raises(ComplexError):
            relabel(X, {"a": "b"})


EDGE = SimplicialComplex([["a", "b"]])
NO_STEPS = NECertificate((), ())


VOID_OPERANDS = {
    "search_ne_reduction-source": (search_ne_reduction, (VOID, EDGE)),
    "search_ne_reduction-target": (search_ne_reduction, (EDGE, VOID)),
    "search_collapse-source": (search_collapse, (VOID, EDGE)),
    "search_collapse-source-to-point": (search_collapse, (VOID, None)),
    "search_collapse-target": (search_collapse, (EDGE, VOID)),
    "join-left": (join, (VOID, EDGE)),
    "join-right": (join, (EDGE, VOID)),
    "join_witness-left": (join_witness, (VOID, PointWitness("a"), EDGE)),
    "join_witness-right": (join_witness, (EDGE, PointWitness("a"), VOID)),
    "lift_certificate_over_join-source": (lift_certificate_over_join, (VOID, NO_STEPS, EDGE)),
    "lift_certificate_over_join-factor": (lift_certificate_over_join, (EDGE, NO_STEPS, VOID)),
    "cone_witness": (cone_witness, (VOID, "a")),
    "certificate_to_collapse": (certificate_to_collapse, (VOID, NO_STEPS)),
    "free_pairs": (free_pairs, (VOID,)),
    "link": (link, (VOID, "a")),
    "is_cone": (is_cone, (VOID,)),
    "reduced_euler": (reduced_euler, (VOID,)),
    "z2_betti": (z2_betti, (VOID,)),
    "classify_ne_equivalence": (classify_ne_equivalence, ([VOID],)),
    "relabel": (relabel, (VOID, {})),
    "complex_to_data": (complex_to_data, (VOID,)),
}


class TestVoidOperand:
    # VOID, the value of some links and induced subcomplexes, is an input
    # error wherever a complex is taken, and a verifier's "not verified"
    @pytest.mark.parametrize("name", sorted(VOID_OPERANDS))
    def test_is_an_input_error(self, name):
        fn, args = VOID_OPERANDS[name]
        with pytest.raises(ComplexError, match="^the void complex is not a valid operand here$"):
            fn(*args)

    def test_is_not_verified(self):
        assert not verify_witness(VOID, PointWitness("a"))
        assert not verify_ne_certificate(VOID, EDGE, NO_STEPS)
        assert not verify_ne_certificate(EDGE, VOID, NO_STEPS)
        assert not verify_collapse(VOID, EDGE, CollapseSequence(()))
        assert not verify_collapse(EDGE, VOID, CollapseSequence(()))


def label_view(X):
    return X if X is VOID else X.facets


class TestMasksMatchLabelReferences:
    """Every mask operation against its label-level reference, on all 166
    complexes on at most four vertices."""

    FAMILY = [complex_from_masks(m) for m in iter_antichain_complexes(4)]
    FACTORS = [
        SimplicialComplex.point("x"),
        SimplicialComplex([["x"], ["y"]]),
        SimplicialComplex([["w", "x"], ["x", "y"]]),
    ]

    def test_views_equality_and_invariants(self):
        family = self.FAMILY
        assert len(family) == 166 and len(set(family)) == 166
        for masks, X in zip(iter_antichain_complexes(4), family):
            labelled = [frozenset("abcd"[i] for i in range(4) if m >> i & 1) for m in masks]
            assert X.facets == ref_maximalize(labelled) == frozenset(labelled)
            assert X.vertices == tuple(sorted(set().union(*labelled)))
            assert repr(X) == f"SimplicialComplex({sorted(sorted(f) for f in labelled)})"
            # the constructor maximalizes: all faces, in any order, give X again
            again = SimplicialComplex(sorted(ref_faces(X), key=sorted))
            assert again == X and hash(again) == hash(X) and again.facets == X.facets
            assert X.faces() == ref_faces(X) and X.n_faces() == len(ref_faces(X))
            assert X.dim() == max(len(f) for f in labelled) - 1
            assert X.f_vector() == tuple(
                sum(1 for f in ref_faces(X) if len(f) == k + 1) for k in range(X.dim() + 1)
            )
            common = frozenset.intersection(*labelled)
            assert is_cone(X) == (min(common) if common else None)
            assert reduced_euler(X) == ref_reduced_euler(X)
            assert z2_betti(X) == ref_z2_betti(X)
            for k in range(6):
                for face in combinations("abcde", k):
                    assert X.has_face(face) == (bool(face) and any(set(face) <= f for f in labelled))
        for X in family:
            for Y in family:
                assert (X == Y) == (X.facets == Y.facets)

    def test_links_deletions_induced_subcomplexes_and_joins(self):
        for X in self.FAMILY:
            for v in X.vertices:
                assert label_view(link(X, v)) == ref_link(X, v)
                if len(X.vertices) > 1:
                    assert delete_vertex(X, v).facets == ref_delete_vertex(X, v)
            for k in range(len(X.vertices) + 2):
                for keep in combinations(X.vertices + ("z",), k):
                    assert label_view(induced_subcomplex(X, keep)) == ref_induced_subcomplex(X, keep)
            for Y in self.FACTORS:
                XY = join(X, Y)
                assert XY.facets == ref_join(X, Y)
                assert XY.vertices == tuple(sorted(X.vertices + Y.vertices))
