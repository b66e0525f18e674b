"""Witness search/verification, NE-certificates, join lifting, zigzag merging."""

from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from poset_collapse import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EVASIVE,
    NOT_FOUND,
    VOID,
    ComplexError,
    NECertificate,
    PointWitness,
    SearchBudget,
    SimplicialComplex,
    SplitWitness,
    classify_ne_equivalence,
    common_expansion,
    cone_witness,
    induced_subcomplex,
    is_nonevasive,
    join,
    join_witness,
    lift_certificate_over_join,
    link,
    reduced_euler,
    relabel,
    replay_certificate,
    search_ne_reduction,
    verify_ne_certificate,
    verify_witness,
    z2_betti,
)
from poset_collapse import evasiveness
from poset_collapse.complexes import _delete_m, _link_m, _masks
from poset_collapse.enumeration import complex_from_masks, iter_antichain_complexes
from poset_collapse.poset import _mask_labels

from conftest import (
    betti_equal,
    complexes,
    face_lists,
    naive_nonevasive,
    complex_of,
    ref_cone_witness,
    ref_delete_vertex,
    ref_join_witness,
    ref_link,
    ref_maximalize,
    split_chain,
)


def boundary():
    return SimplicialComplex.simplex_boundary("abc")


class SubSplit(SplitWitness):
    """A split subclass that adds nothing."""


class TestWitnessDunders:
    def test_repr_is_the_dataclass_text(self):
        w = SplitWitness("a", PointWitness("b"), SplitWitness("c", PointWitness("d"), PointWitness("e")))
        text = (
            "SplitWitness(vertex='a', link=PointWitness(vertex='b'), deletion=SplitWitness("
            "vertex='c', link=PointWitness(vertex='d'), deletion=PointWitness(vertex='e')))"
        )
        assert repr(w) == text
        # a subclass node, at the root or inside, is written with its own class name
        root = SubSplit("a", w.link, w.deletion)
        assert repr(root) == text.replace("SplitWitness", "SubSplit", 1)
        inner = SplitWitness("a", w.link, SubSplit("c", w.deletion.link, w.deletion.deletion))
        assert repr(inner) == "SubSplit".join(text.rsplit("SplitWitness", 1))
        assert repr(NECertificate(("x",), (root,))) == f"NECertificate(removed=('x',), witnesses=({root!r},))"

    @pytest.mark.parametrize(
        "along, split",
        [
            pytest.param("link", SplitWitness, id="link"),
            pytest.param("deletion", SplitWitness, id="deletion"),
            pytest.param("link", SubSplit, id="link-subclass"),
            pytest.param("deletion", SubSplit, id="deletion-subclass"),
        ],
    )
    def test_5000_splits_at_the_default_recursion_limit(self, along, split):
        u, w = split_chain(5000, along, split), split_chain(5000, along, split)
        assert u == w and hash(u) == hash(w)
        assert u != split_chain(4999, along, split) and u != PointWitness("a")
        # built outward from the innermost point, as split_chain builds it
        text = "PointWitness(vertex='a')"
        for _ in range(5000):
            pair = (text, "PointWitness(vertex='b')") if along == "link" else ("PointWitness(vertex='b')", text)
            text = f"{split.__qualname__}(vertex='a', link={pair[0]}, deletion={pair[1]})"
        assert repr(u) == text

    def test_malformed_trees_compare_as_the_dataclass(self):
        # trees without a node table: an unhashable label, non-witness children
        unhashable = SplitWitness(["a"], PointWitness("b"), PointWitness("b"))
        assert unhashable == SplitWitness(["a"], PointWitness("b"), PointWitness("b"))
        with pytest.raises(TypeError):
            hash(unhashable)
        odd = SplitWitness("a", 3, 4)
        assert odd == SplitWitness("a", 3, 4) and hash(odd) == hash(SplitWitness("a", 3, 4))
        assert odd != SplitWitness("a", 3, 5) and odd != unhashable

    def test_equality_builds_no_table_for_one_object_or_differing_roots(self, monkeypatch):
        built = []
        walk = evasiveness._walk_rows  # the row walk behind `_rows`, which `==` steps side by side
        monkeypatch.setattr(evasiveness, "_walk_rows", lambda roots, at: built.append(len(roots)) or walk(roots, at))
        u = split_chain(5000, "link")
        assert u == u and not u != u
        assert u != SplitWitness("b", u.link, u.deletion) and u != SubSplit("a", u.link, u.deletion)
        assert SubSplit("a", u.link, u.deletion) != u
        nan = float("nan")  # one object that is not equal to itself, as rows compare it
        assert SplitWitness(nan, u, u) != SplitWitness(float("nan"), u, u)
        assert not built
        assert SplitWitness(nan, u, u) == SplitWitness(nan, u, u)
        assert u == split_chain(5000, "link") and built == [1, 1, 1, 1]

    def test_deep_chains_compare_row_by_row(self, monkeypatch):
        # `==` pulls one row from each table at a time and stops at the first
        # pair that differs: a link chain starts at its point a, a deletion
        # chain at its point b
        made = []
        walk = evasiveness._walk_rows

        def counted(roots, at):
            for row in walk(roots, at):
                made.append(row)
                yield row

        monkeypatch.setattr(evasiveness, "_walk_rows", counted)
        u, w = split_chain(5000, "link"), split_chain(4999, "deletion")
        assert u != w and made == [("a",), ("b",)]
        for along in ("link", "deletion"):
            made.clear()
            assert split_chain(5000, along) == split_chain(5000, along)
            assert len(made) == 2 * 5002  # equal tables are read to the end
            assert split_chain(5000, along) != split_chain(4999, along)

    def test_hash_is_the_hash_of_the_node_table(self):
        w = SplitWitness("a", PointWitness("b"), SplitWitness("c", PointWitness("b"), PointWitness("d")))
        assert hash(w) == hash((("b",), ("d",), ("c", 0, 1), ("a", 0, 2)))
        for along in ("link", "deletion"):
            u = split_chain(5000, along)
            assert hash(u) == hash(tuple(evasiveness._rows((u,))[0])) == hash(split_chain(5000, along))

    def test_shared_subtrees_are_compared_and_hashed_once(self):
        # link and deletion are one object: 60 nodes spell a tree of 2^60
        def dag(n):
            w = PointWitness("a")
            for i in range(n):
                w = SplitWitness(str(i), w, w)
            return w

        u, w = dag(60), dag(60)
        assert u == w and hash(u) == hash(w)
        assert u != SplitWitness("59", u.link, dag(59).link)
        assert {u, w} == {u}


class TestIsNonevasive:
    def test_point(self):
        assert is_nonevasive(SimplicialComplex.point("a")) == PointWitness("a")

    def test_cones_are_nonevasive(self):
        for X in (
            SimplicialComplex.simplex("abc"),
            join(SimplicialComplex.point("p"), boundary()),
            join(SimplicialComplex.point("p"), SimplicialComplex([["a"], ["b"]])),
        ):
            w = is_nonevasive(X)
            assert verify_witness(X, w)

    def test_triangle_boundary_is_evasive(self):
        assert is_nonevasive(boundary()) is EVASIVE

    def test_two_points_are_evasive(self):
        assert is_nonevasive(SimplicialComplex([["a"], ["b"]])) is EVASIVE

    def test_budget_vertices(self):
        X = SimplicialComplex.simplex("abcdefgh")
        assert is_nonevasive(X, SearchBudget(max_vertices=4)) is BUDGET_EXCEEDED

    def test_budget_nodes(self):
        X = SimplicialComplex.simplex_boundary("abcde")
        assert is_nonevasive(X, SearchBudget(max_nodes=3)) is BUDGET_EXCEEDED

    def test_long_path_within_the_recursion_bound(self):
        # 512 vertices decide at the default recursion limit; more exceed the budget
        budget = SearchBudget(max_vertices=5000)
        for n, decided in ((512, True), (513, False), (1200, False)):
            X = SimplicialComplex([[f"v{i:04d}", f"v{i + 1:04d}"] for i in range(n - 1)])
            end = SimplicialComplex.point(f"v{n - 1:04d}")
            w = is_nonevasive(X, budget)
            cert = search_ne_reduction(X, end, budget)
            if decided:
                assert verify_witness(X, w)
                assert verify_ne_certificate(X, end, cert)
            else:
                assert w is BUDGET_EXCEEDED and cert is BUDGET_EXCEEDED

    def test_void_rejected(self):
        from poset_collapse import VOID

        with pytest.raises(ComplexError):
            is_nonevasive(VOID)

    @given(complexes(max_vertices=4))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_naive_oracle(self, X):
        result = is_nonevasive(X)
        if result is EVASIVE:
            assert not naive_nonevasive(X)
        else:
            assert naive_nonevasive(X)
            assert verify_witness(X, result)

    @given(complexes(max_vertices=5))
    @settings(max_examples=50, deadline=None)
    def test_nonevasive_implies_contractible_homology(self, X):
        result = is_nonevasive(X)
        if result is not EVASIVE:
            assert betti_equal(z2_betti(X), (1,))
            assert reduced_euler(X) == 0


class TestVerifyWitness:
    def test_search_output_verifies(self):
        X = SimplicialComplex.simplex("abc")
        assert verify_witness(X, is_nonevasive(X))

    def test_wrong_point_label(self):
        assert not verify_witness(SimplicialComplex.point("a"), PointWitness("b"))

    def test_no_split_verifies_on_the_boundary(self):
        X = boundary()
        for v in X.vertices:
            lk = link(X, v)
            for wl in (PointWitness("b"), SplitWitness("b", PointWitness("c"), PointWitness("c"))):
                assert not verify_witness(X, SplitWitness(v, wl, wl))

    def test_malformed_objects_are_false_not_errors(self):
        X = SimplicialComplex.point("a")
        assert not verify_witness(X, "nonsense")
        assert not verify_witness("nonsense", PointWitness("a"))

    def test_cone_witness_matches_definition(self):
        X = join(SimplicialComplex.point("p"), boundary())
        w = cone_witness(X, "p")
        assert verify_witness(X, w)
        with pytest.raises(ComplexError):
            cone_witness(boundary(), "a")


class TestCertificates:
    def test_empty_certificate_is_reflexive(self):
        X = boundary()
        assert verify_ne_certificate(X, X, NECertificate((), ()))

    def test_simplex_to_point(self):
        X = SimplicialComplex.simplex("abc")
        target = SimplicialComplex.point("c")
        cert = search_ne_reduction(X, target)
        assert isinstance(cert, NECertificate)
        assert cert.removed == ("a", "b")
        assert verify_ne_certificate(X, target, cert)

    def test_boundary_reduces_to_nothing(self):
        X = boundary()
        for target in (SimplicialComplex.point("a"), SimplicialComplex([["a", "b"]])):
            assert search_ne_reduction(X, target) is NOT_FOUND

    def test_non_subcomplex_target_rejected(self):
        X = boundary()
        with pytest.raises(ComplexError):
            search_ne_reduction(X, SimplicialComplex.simplex("abc"))
        with pytest.raises(ComplexError):
            search_ne_reduction(X, SimplicialComplex.point("z"))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            NECertificate(("a",), ())

    def test_cone_reduces_to_apex(self):
        X = join(SimplicialComplex.point("p"), SimplicialComplex([["a", "b"], ["b", "c"]]))
        cert = search_ne_reduction(X, SimplicialComplex.point("p"))
        assert isinstance(cert, NECertificate)
        assert verify_ne_certificate(X, SimplicialComplex.point("p"), cert)

    def test_budget_exhaustion_is_distinct_from_not_found(self):
        X = SimplicialComplex.simplex("abcdef")
        r = search_ne_reduction(X, SimplicialComplex.point("a"), SearchBudget(max_nodes=2))
        assert r is BUDGET_EXCEEDED


class TestJoinWitness:
    def test_point_with_two_points_gives_cone_witness(self):
        Y = SimplicialComplex([["x"], ["y"]])
        w = join_witness(SimplicialComplex.point("p"), PointWitness("p"), Y)
        X = join(SimplicialComplex.point("p"), Y)
        assert verify_witness(X, w)

    def test_simplex_witness_joins_with_point(self):
        X = SimplicialComplex.simplex("abc")
        Y = SimplicialComplex.point("z")
        w = join_witness(X, is_nonevasive(X), Y)
        assert verify_witness(join(X, Y), w)

    def test_cone_witness_joins_with_boundary(self):
        X = SimplicialComplex.simplex("ab")
        Y = relabel(boundary(), {"a": "x", "b": "y", "c": "z"})
        w = join_witness(X, is_nonevasive(X), Y)
        assert verify_witness(join(X, Y), w)

    def test_invalid_witness_rejected(self):
        with pytest.raises(ComplexError):
            join_witness(boundary(), PointWitness("a"), SimplicialComplex.point("z"))


class TestLiftCertificate:
    def test_edge_to_point_lifts_over_point(self):
        X1 = SimplicialComplex([["a", "b"]])
        X2 = SimplicialComplex.point("b")
        cert = search_ne_reduction(X1, X2)
        Y = SimplicialComplex.point("c")
        lifted = lift_certificate_over_join(X1, cert, Y)
        assert verify_ne_certificate(join(X1, Y), join(X2, Y), lifted)

    def test_empty_certificate_lifts_to_empty(self):
        X = boundary()
        lifted = lift_certificate_over_join(X, NECertificate((), ()), SimplicialComplex.point("z"))
        assert len(lifted) == 0

    def test_simplex_to_point_lifts_over_boundary(self):
        X1 = SimplicialComplex.simplex("abc")
        X2 = SimplicialComplex.point("c")
        cert = search_ne_reduction(X1, X2)
        Y = relabel(boundary(), {"a": "x", "b": "y", "c": "z"})
        lifted = lift_certificate_over_join(X1, cert, Y)
        assert verify_ne_certificate(join(X1, Y), join(X2, Y), lifted)

    def test_label_clash_rejected(self):
        X1 = SimplicialComplex([["a", "b"]])
        cert = search_ne_reduction(X1, SimplicialComplex.point("b"))
        with pytest.raises(ComplexError):
            lift_certificate_over_join(X1, cert, SimplicialComplex.point("a"))


class TestCommonExpansion:
    def test_degenerate_identity_zigzag(self):
        X = boundary()
        empty = NECertificate((), ())
        merged = common_expansion(X, X, X, empty, empty)
        assert merged.complex == X
        assert len(merged.to_a) == 0 and len(merged.to_c) == 0

    def test_two_cones_over_the_same_base(self):
        B = SimplicialComplex([["x", "y"], ["y", "z"]])
        A = join(SimplicialComplex.point("s"), B)
        C = join(SimplicialComplex.point("t"), B)
        ca = search_ne_reduction(A, B)
        cc = search_ne_reduction(C, B)
        merged = common_expansion(A, B, C, ca, cc)
        assert set(merged.complex.vertices) == set(A.vertices) | set(C.vertices)
        assert verify_ne_certificate(merged.complex, A, merged.to_a)
        assert verify_ne_certificate(merged.complex, C, merged.to_c)

    def test_two_simplices_over_a_shared_edge(self):
        A = SimplicialComplex.simplex("abc")
        B = SimplicialComplex.simplex("bc")
        C = SimplicialComplex.simplex("bcd")
        merged = common_expansion(
            A, B, C, search_ne_reduction(A, B), search_ne_reduction(C, B)
        )
        assert merged.complex == SimplicialComplex([["a", "b", "c"], ["b", "c", "d"]])
        assert merged.to_a.removed == ("d",)
        assert merged.to_c.removed == ("a",)

    def test_label_clash_rejected(self):
        A = SimplicialComplex.simplex("ab")
        B = SimplicialComplex.point("b")
        cert = search_ne_reduction(A, B)
        with pytest.raises(ComplexError):
            common_expansion(A, B, A, cert, cert)

    def test_bad_certificate_rejected(self):
        A = SimplicialComplex.simplex("abc")
        B = SimplicialComplex.simplex("bc")
        good = search_ne_reduction(A, B)
        bad = NECertificate(("a",), (PointWitness("b"),))
        with pytest.raises(ComplexError):
            common_expansion(A, B, A, bad, good)


class TestClassification:
    def test_point_and_simplex_are_one_class(self):
        fam = [SimplicialComplex.point("a"), SimplicialComplex.simplex("abc")]
        assert classify_ne_equivalence(fam).classes == ((0, 1),)

    def test_point_and_boundary_are_provably_distinct(self):
        fam = [SimplicialComplex.point("a"), boundary()]
        result = classify_ne_equivalence(fam)
        assert result.classes == ((0,), (1,))
        assert result.provably_distinct == ((0, 1),)

    def test_edge_and_path_merge(self):
        fam = [SimplicialComplex([["a", "b"]]), SimplicialComplex([["x", "y"], ["y", "z"]])]
        assert classify_ne_equivalence(fam).classes == ((0, 1),)

    def test_budget_shortfall_is_flagged_not_decided(self):
        fam = [SimplicialComplex.simplex("abcde"), SimplicialComplex.simplex("fghij")]
        result = classify_ne_equivalence(fam, SearchBudget(max_nodes=2))
        assert result.classes == ((0,), (1,))
        assert (0, 1) in result.undecided


class TestReplay:
    def test_replay_returns_end_complex(self):
        X = SimplicialComplex.simplex("abc")
        cert = search_ne_reduction(X, SimplicialComplex.point("c"))
        assert replay_certificate(X, cert) == SimplicialComplex.point("c")

    def test_replay_rejects_malformed(self):
        X = boundary()
        assert replay_certificate(X, NECertificate(("a",), (PointWitness("b"),))) is None

    @given(complexes(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_search_reductions_self_verify(self, X):
        # reduce to each single-vertex induced target that is reachable
        for v in X.vertices[:2]:
            target = induced_subcomplex(X, {v})
            cert = search_ne_reduction(X, target, SearchBudget(max_nodes=20000))
            if isinstance(cert, NECertificate):
                assert verify_ne_certificate(X, target, cert)


# -- label-level reference for the facet-mask kernel ---------------------------
#
# The decision and the NE-reduction search as they ran on SimplicialComplex
# objects, through the public link/delete_vertex, with memo and dead-state
# keys on labelled facet sets.  The kernel must return the same witnesses and
# certificates and run out of budget at the same budgets.


class _RefBudgetHit(Exception):
    pass


class _RefCounter:
    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise _RefBudgetHit


def ref_decide(X, memo, counter):
    key = X.facets
    hit = memo.get(key)
    if hit is not None:
        return hit
    counter.spend()
    if len(X.vertices) == 1:
        result = PointWitness(X.vertices[0])
    else:
        result = EVASIVE
        for v in X.vertices:
            lk = complex_of(ref_link(X, v))
            if lk is VOID:
                continue
            wl = ref_decide(lk, memo, counter)
            if wl is EVASIVE:
                continue
            wd = ref_decide(complex_of(ref_delete_vertex(X, v)), memo, counter)
            if wd is EVASIVE:
                continue
            result = SplitWitness(v, wl, wd)
            break
    memo[key] = result
    return result


def ref_is_nonevasive(X, budget):
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    try:
        return ref_decide(X, {}, _RefCounter(budget.max_nodes))
    except _RefBudgetHit:
        return BUDGET_EXCEEDED


def ref_search_ne_reduction(X, Y, budget):
    """For an induced target Y of X."""
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    keep = set(Y.vertices)
    memo = {}
    counter = _RefCounter(budget.max_nodes)
    dead = set()

    def dfs(cur):
        if set(cur.vertices) == keep:
            return []
        counter.spend()
        if cur.facets in dead:
            return None
        for v in cur.vertices:
            if v in keep:
                continue
            lk = complex_of(ref_link(cur, v))
            if lk is VOID:
                continue
            w = ref_decide(lk, memo, counter)
            if w is EVASIVE:
                continue
            rest = dfs(complex_of(ref_delete_vertex(cur, v)))
            if rest is not None:
                return [(v, w)] + rest
        dead.add(cur.facets)
        return None

    try:
        found = dfs(X)
    except _RefBudgetHit:
        return BUDGET_EXCEEDED
    if found is None:
        return NOT_FOUND
    return NECertificate(tuple(v for v, _ in found), tuple(w for _, w in found))


BUDGETS = [SearchBudget(max_nodes=n) for n in (1, 2, 3, 5, 8, 13)] + [DEFAULT_BUDGET]
SMALL_COMPLEXES = [complex_from_masks(m) for m in iter_antichain_complexes(4)]


class TestKernelMatchesLabelReference:
    @pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: str(b.max_nodes))
    def test_decisions_on_every_complex_up_to_four_vertices(self, budget):
        kinds = set()
        for X in SMALL_COMPLEXES:
            got = is_nonevasive(X, budget)
            assert got == ref_is_nonevasive(X, budget), X
            kinds.add(got if got in (EVASIVE, BUDGET_EXCEEDED) else type(got))
        if budget.max_nodes >= 5:
            assert {EVASIVE, PointWitness, SplitWitness} <= kinds
        else:
            assert BUDGET_EXCEEDED in kinds

    @pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: str(b.max_nodes))
    def test_searches_to_every_induced_target(self, budget):
        outcomes = set()
        for X in SMALL_COMPLEXES:
            vs = X.vertices
            for k in range(1, len(vs) + 1):
                for keep in combinations(vs, k):
                    Y = induced_subcomplex(X, keep)
                    if Y is VOID:
                        continue
                    got = search_ne_reduction(X, Y, budget)
                    assert got == ref_search_ne_reduction(X, Y, budget), (X, keep)
                    outcomes.add(got if got in (NOT_FOUND, BUDGET_EXCEEDED) else NECertificate)
        assert NECertificate in outcomes and NOT_FOUND in outcomes
        if budget.max_nodes < 5:
            assert BUDGET_EXCEEDED in outcomes

    @given(face_lists(max_vertices=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mask_link_and_deletion_match_the_label_operations(self, faces, data):
        X = SimplicialComplex(faces)
        assert X.facets == ref_maximalize(faces)
        bits, F = _masks(X)

        def label_view(M):
            return frozenset(_mask_labels(f, X.vertices) for f in M) if M else VOID

        v = data.draw(st.sampled_from(X.vertices))
        assert label_view(_link_m(F, bits[v])) == ref_link(X, v)
        assert label_view(_delete_m(F, bits[v])) == ref_delete_vertex(X, v)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ComplexError as e:
        return str(e)


JOIN_FACTORS = [
    SimplicialComplex.point("x"),
    SimplicialComplex([["x"], ["y"]]),
    SimplicialComplex([["x", "y"], ["y", "z"]]),
]


class TestKernelMatchesRecursiveReference:
    """The stack-based witness kernel builds the trees of the plain recursions."""

    def test_cones_and_joins_on_every_complex_up_to_five_vertices(self):
        joined = 0
        for masks in iter_antichain_complexes(5):
            X = complex_from_masks(masks)
            for apex in X.vertices + ("q",):
                assert outcome(cone_witness, X, apex) == outcome(ref_cone_witness, X, apex)
            w = is_nonevasive(X)
            if w is EVASIVE:
                continue
            for Y in JOIN_FACTORS:
                assert join_witness(X, w, Y) == ref_join_witness(w, Y)
                joined += 1
        assert joined == 3 * 1466


def star(leaves):
    return SimplicialComplex([["a", f"v{i:04d}"] for i in range(leaves)])


class TestKernelDepth:
    """Deletion chains past the default recursion limit."""

    def test_cone_and_join_on_a_1100_leaf_star(self):
        X = star(1100)
        w = cone_witness(X, "a")
        assert verify_witness(X, w)
        Y = JOIN_FACTORS[1]
        assert verify_witness(join(X, Y), join_witness(X, w, Y))

    def test_lifted_steps_share_one_witness(self):
        X = star(1100)
        cert = NECertificate(tuple(v for v in X.vertices if v != "a"), tuple(PointWitness("a") for _ in range(1100)))
        Y = JOIN_FACTORS[2]
        lifted = lift_certificate_over_join(X, cert, Y)
        first = lifted.witnesses[0]
        assert all(w is first for w in lifted.witnesses)
        assert verify_ne_certificate(join(X, Y), join(SimplicialComplex.point("a"), Y), lifted)

    def test_cone_on_a_1200_vertex_simplex(self):
        X = SimplicialComplex.simplex(f"v{i:04d}" for i in range(1200))
        assert verify_witness(X, cone_witness(X, "v0000"))


class TestUnhashableLabels:
    @pytest.mark.parametrize(
        "w", [PointWitness(["a"]), SplitWitness(["a"], PointWitness("b"), PointWitness("b"))], ids=["point", "split"]
    )
    def test_witness_is_false_not_an_error(self, w):
        assert not verify_witness(SimplicialComplex([["a", "b"]]), w)

    def test_certificate_is_none_not_an_error(self):
        X = SimplicialComplex([["a", "b"]])
        cert = NECertificate((["a"],), (PointWitness("b"),))
        assert replay_certificate(X, cert) is None
        assert not verify_ne_certificate(X, X, cert)

    def test_cone_apex_is_a_complex_error(self):
        with pytest.raises(ComplexError, match="is not an apex"):
            cone_witness(SimplicialComplex([["a", "b"]]), ["a"])

    @pytest.mark.parametrize(
        "w", [PointWitness(["a"]), SplitWitness(["a"], PointWitness("b"), PointWitness("b"))], ids=["point", "split"]
    )
    def test_join_input_is_a_complex_error(self, w):
        with pytest.raises(ComplexError, match="does not verify"):
            join_witness(SimplicialComplex([["a", "b"]]), w, SimplicialComplex.point("c"))


def test_non_induced_target_is_not_found_past_the_vertex_budget():
    # vertex removals only reach induced subcomplexes, so no search is needed
    X = SimplicialComplex.simplex(f"v{i:02d}" for i in range(20))
    Y = SimplicialComplex([["v00", "v01"], ["v01", "v02"]])
    assert search_ne_reduction(X, Y) is NOT_FOUND
