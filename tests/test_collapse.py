"""Elementary collapses, sequence search, and witness compilation."""

import copy
import json
import pickle
import random
from dataclasses import FrozenInstanceError
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from poset_collapse import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EVASIVE,
    VOID,
    NOT_FOUND,
    CollapseSequence,
    ComplexError,
    NECertificate,
    Poset,
    PointWitness,
    PosetMap,
    SearchBudget,
    SimplicialComplex,
    SplitWitness,
    apply_collapse,
    certificate_to_collapse,
    free_pairs,
    induced_subcomplex,
    is_nonevasive,
    link,
    order_complex,
    reduced_euler,
    replay_certificate,
    search_collapse,
    search_ne_reduction,
    theorem_reduce,
    verify_collapse,
    witness_to_vertex_collapse,
    z2_betti,
)
from poset_collapse import collapse, evasiveness
from poset_collapse import serialization as ser
from poset_collapse.collapse import FaceStore, _collapse_steps
from poset_collapse.complexes import _link_m, _masks
from poset_collapse.poset import _mask_labels
from poset_collapse.enumeration import (
    complex_from_masks,
    iter_antichain_complexes,
    iter_posets,
    map_from_table,
    monotone_tables,
    poset_from_masks,
)

from conftest import (
    betti_equal,
    complexes,
    grid,
    ref_certificate_to_collapse,
    ref_coface_counts,
    ref_faces,
    ref_verify_collapse,
)


def annulus():
    """Nine-vertex triangulated annulus: outer hexagon u0..u5, inner triangle v0..v2."""
    tris = []
    for k in range(3):
        tris.append({f"v{k}", f"u{2*k}", f"u{2*k+1}"})
        tris.append({f"v{k}", f"u{2*k+1}", f"u{(2*k+2) % 6}"})
        tris.append({f"v{k}", f"v{(k+1) % 3}", f"u{(2*k+2) % 6}"})
    return SimplicialComplex(tris)


def core_cycle():
    return SimplicialComplex([["v0", "v1"], ["v1", "v2"], ["v0", "v2"]])


class TestFreePairs:
    def test_edge_has_both_endpoints_free(self):
        X = SimplicialComplex([["a", "b"]])
        assert free_pairs(X) == [
            (frozenset({"a"}), frozenset({"a", "b"})),
            (frozenset({"b"}), frozenset({"a", "b"})),
        ]

    def test_triangle_boundary_has_none(self):
        assert free_pairs(SimplicialComplex.simplex_boundary("abc")) == []

    def test_full_simplex_edges_are_free(self):
        pairs = free_pairs(SimplicialComplex.simplex("abc"))
        assert (frozenset({"a", "b"}), frozenset({"a", "b", "c"})) in pairs
        assert all(len(s) == len(t) + 1 for t, s in pairs)

    def test_pairs_are_lexicographically_ordered(self):
        pairs = free_pairs(SimplicialComplex([["a", "b"], ["b", "c"], ["c", "d"]]))
        keys = [(sorted(t), sorted(s)) for t, s in pairs]
        assert keys == sorted(keys)


class TestApplyCollapse:
    def test_edge_to_point(self):
        X = SimplicialComplex([["a", "b"]])
        assert apply_collapse(X, {"b"}, {"a", "b"}) == SimplicialComplex.point("a")

    def test_simplex_to_path(self):
        X = SimplicialComplex.simplex("abc")
        out = apply_collapse(X, {"b", "c"}, {"a", "b", "c"})
        assert out == SimplicialComplex([["a", "b"], ["a", "c"]])

    def test_invalid_pair_rejected(self):
        with pytest.raises(ComplexError):
            apply_collapse(SimplicialComplex.simplex_boundary("abc"), {"a"}, {"a", "b"})


class TestVerifyCollapse:
    def test_empty_sequence(self):
        X = SimplicialComplex.simplex("ab")
        assert verify_collapse(X, X, CollapseSequence(()))

    def test_single_step(self):
        X = SimplicialComplex([["a", "b"]])
        seq = CollapseSequence(((frozenset({"b"}), frozenset({"a", "b"})),))
        assert verify_collapse(X, SimplicialComplex.point("a"), seq)

    def test_boundary_admits_nothing(self):
        X = SimplicialComplex.simplex_boundary("abc")
        seq = CollapseSequence(((frozenset({"a"}), frozenset({"a", "b"})),))
        assert not verify_collapse(X, SimplicialComplex.point("a"), seq)

    def test_malformed_step_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CollapseSequence(((frozenset({"a"}), frozenset({"a"})),))
        with pytest.raises(ValueError):
            CollapseSequence(((frozenset({"a"}), frozenset({"b", "c"})),))

    @pytest.mark.parametrize(
        "step",
        [(frozenset("b"),), (frozenset("b"), frozenset("ab"), frozenset("abc")), frozenset("ab"), 7],
        ids=["one-face", "three-faces", "a-face", "not-iterable"],
    )
    def test_a_step_that_is_not_a_pair_is_false(self, step):
        X = SimplicialComplex([["a", "b"]])
        assert not verify_collapse(X, SimplicialComplex.point("a"), unchecked_sequence([step]))

    @pytest.mark.parametrize("tau", [[["b"]], [{"b": 1}]], ids=["list", "dict"])
    def test_an_unhashable_label_is_false(self, tau):
        X = SimplicialComplex([["a", "b"]])
        seq = unchecked_sequence([(tau, ["a", "b"])])
        assert not verify_collapse(X, SimplicialComplex.point("a"), seq)


class TestWitnessCompilation:
    def test_edge_with_point_witness(self):
        X = SimplicialComplex([["a", "b"]])
        w = is_nonevasive(link(X, "a"))
        seq = witness_to_vertex_collapse(X, "a", w)
        assert seq.steps == ((frozenset({"a"}), frozenset({"a", "b"})),)
        assert verify_collapse(X, SimplicialComplex.point("b"), seq)

    def test_simplex_vertex_star(self):
        X = SimplicialComplex.simplex("abc")
        w = is_nonevasive(link(X, "a"))
        seq = witness_to_vertex_collapse(X, "a", w)
        assert len(seq) == 2  # half the faces containing a
        assert verify_collapse(X, SimplicialComplex.simplex("bc"), seq)
        assert seq.steps[-1][0] == frozenset({"a"})  # terminal pair removes the vertex

    def test_cone_over_square_any_vertex(self):
        square = SimplicialComplex([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
        X = SimplicialComplex([f | {"p"} for f in square.facets])
        w = is_nonevasive(link(X, "a"))
        seq = witness_to_vertex_collapse(X, "a", w)
        cur = X
        for tau, sigma in seq:
            cur = apply_collapse(cur, tau, sigma)
        assert set(cur.vertices) == set("bcd") | {"p"}

    def test_witness_mismatch_rejected(self):
        X = SimplicialComplex.simplex("abc")
        from poset_collapse import PointWitness

        with pytest.raises(ComplexError):
            witness_to_vertex_collapse(X, "a", PointWitness("b"))


class TestCertificateCompilation:
    def test_empty_certificate(self):
        X = SimplicialComplex.simplex("ab")
        assert len(certificate_to_collapse(X, NECertificate((), ()))) == 0

    def test_simplex_to_point_is_three_steps(self):
        X = SimplicialComplex.simplex("abc")
        target = SimplicialComplex.point("c")
        cert = search_ne_reduction(X, target)
        seq = certificate_to_collapse(X, cert)
        assert len(seq) == 3  # 7 faces down to 1
        assert verify_collapse(X, target, seq)

    def test_reduction_report_compiles(self):
        P = Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])
        phi = PosetMap(P, {"0": "2", "1": "12", "2": "2", "12": "12"})
        report = theorem_reduce(P, phi, phi.fixed_points(), emit_collapse=True)
        X = order_complex(P)
        Y = order_complex(P.induced(phi.fixed_points()))
        assert verify_collapse(X, Y, report.collapse)
        assert len(report.collapse) == (X.n_faces() - Y.n_faces()) // 2

    @given(complexes(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_step_count_and_invariants_along_replay(self, X):
        result = is_nonevasive(X)
        if result is EVASIVE:
            return
        target = SimplicialComplex.point(result.vertex if hasattr(result, "vertex") else X.vertices[0])
        # reduce to the single point the witness recursion bottoms out at
        for v in X.vertices:
            target = SimplicialComplex.point(v)
            from poset_collapse import induced_subcomplex

            if induced_subcomplex(X, {v}) != target:
                continue
            cert = search_ne_reduction(X, target, SearchBudget(max_nodes=50000))
            if not isinstance(cert, NECertificate):
                continue
            seq = certificate_to_collapse(X, cert)
            assert len(seq) == (X.n_faces() - 1) // 2
            cur = X
            euler, betti = reduced_euler(X), z2_betti(X)
            for tau, sigma in seq:
                cur = apply_collapse(cur, tau, sigma)
                assert reduced_euler(cur) == euler
                assert betti_equal(z2_betti(cur), betti)
            assert cur == target
            break


def _witness_nodes(w, path=()):
    yield path, w
    if isinstance(w, SplitWitness):
        yield from _witness_nodes(w.link, path + ("link",))
        yield from _witness_nodes(w.deletion, path + ("deletion",))


def _replace_node(w, path, new):
    if not path:
        return new
    if path[0] == "link":
        return SplitWitness(w.vertex, _replace_node(w.link, path[1:], new), w.deletion)
    return SplitWitness(w.vertex, w.link, _replace_node(w.deletion, path[1:], new))


def _corruptions(X, cert):
    """Certificates with one witness node's vertex changed to each other
    vertex of X and to a label X does not have; on a point node this
    changes the point."""
    for i, w in enumerate(cert.witnesses):
        for path, node in _witness_nodes(w):
            labels = [v for v in X.vertices if v != node.vertex] + ["zz"]
            if isinstance(node, SplitWitness):
                swaps = [SplitWitness(v, node.link, node.deletion) for v in labels]
            else:
                swaps = [PointWitness(v) for v in labels]
            for new in swaps:
                wits = list(cert.witnesses)
                wits[i] = _replace_node(w, path, new)
                yield NECertificate(cert.removed, tuple(wits))


def _grid_reduction():
    # [3]^2 with x -> min(x, 1) coordinatewise, onto its fixed points
    pts = [(i, j) for i in range(3) for j in range(3)]
    label = {p: f"{p[0]}{p[1]}" for p in pts}
    covers = [(label[p], label[q]) for p in pts for q in pts
              if q[0] - p[0] + q[1] - p[1] == 1 and q[0] >= p[0] and q[1] >= p[1]]
    P = Poset([label[p] for p in pts], covers)
    phi = PosetMap(P, {label[p]: label[(min(p[0], 1), min(p[1], 1))] for p in pts})
    return P, phi


def _seeded_reductions():
    yield _grid_reduction()
    posets = list(iter_posets(5))
    for seed in range(10):
        rng = random.Random(seed)
        below = rng.choice(posets)
        P = poset_from_masks(below)
        yield P, map_from_table(P, rng.choice(monotone_tables(below)))


class TestCompileChecksWitnessesInline:
    def test_corrupted_nodes_raise_exactly_when_replay_rejects(self):
        rejected = accepted = 0
        for P, phi in _seeded_reductions():
            X = order_complex(P)
            cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
            # the certificate itself is the control that must compile
            for bad in [cert, *_corruptions(X, cert)]:
                end = replay_certificate(X, bad)
                try:
                    seq = certificate_to_collapse(X, bad)
                except ComplexError:
                    assert end is None
                    rejected += 1
                else:
                    assert end is not None and verify_collapse(X, end, seq)
                    accepted += 1
        assert rejected > 1000 and accepted >= 11


def compiled(compile_, X, cert):
    """The collapse, or the ComplexError message."""
    try:
        return compile_(X, cert)
    except ComplexError as e:
        return str(e)


def reloaded(cert):
    """The certificate read back from its node table."""
    return ser.certificate_from_data(json.loads(ser.dumps(ser.certificate_to_data(cert))))


class TestCompilerMatchesRecursiveReference:
    """The kernel replay plus the emitter against the recursive compiler,
    which checks and emits in one walk; `_collapse_steps` counts the result."""

    def assert_same(self, X, cert):
        seq = compiled(certificate_to_collapse, X, cert)
        assert seq == compiled(ref_certificate_to_collapse, X, cert)
        return seq

    def test_every_monotone_map_on_four_elements(self):
        count = 0
        for n in range(1, 5):
            for below in iter_posets(n):
                P = poset_from_masks(below)
                X = order_complex(P)
                for table in monotone_tables(below):
                    phi = map_from_table(P, table)
                    for Q in (phi.fixed_points(), phi.image()):
                        cert = theorem_reduce(P, phi, Q).certificate
                        assert len(self.assert_same(X, cert)) == _collapse_steps(cert)
                        count += 1
        assert count == 5620

    @pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (5, 2), (3, 3)])
    def test_grids_in_memory_and_reloaded(self, k, d):
        P, phi = grid(k, d)
        X = order_complex(P)
        cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
        for c in (cert, reloaded(cert)):
            seq = self.assert_same(X, c)
            assert len(seq) == _collapse_steps(c)
        assert verify_collapse(X, order_complex(P.induced(phi.fixed_points())), seq)

    def test_corrupted_certificates(self):
        for P, phi in _seeded_reductions():
            X = order_complex(P)
            cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
            for bad in _corruptions(X, cert):
                self.assert_same(X, bad)

    def test_subclassed_nodes_compile_as_their_bases(self):
        class Split(SplitWitness):
            pass

        class Point(PointWitness):
            pass

        def subclassed(w):
            if isinstance(w, SplitWitness):
                return Split(w.vertex, subclassed(w.link), subclassed(w.deletion))
            return Point(w.vertex)

        P, phi = _grid_reduction()
        X = order_complex(P)
        cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
        sub = NECertificate(cert.removed, tuple(subclassed(w) for w in cert.witnesses))
        assert self.assert_same(X, sub) == certificate_to_collapse(X, cert)


def test_compiling_the_5x5_grid_memoises_its_links(monkeypatch):
    # the kernel replays a shared witness node once per state; the recursive
    # reference computes a link at each of the 5,130 nodes of the expanded trees
    P, phi = grid(5, 2)
    X = order_complex(P)
    cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
    calls = 0

    def counted(F, bit):
        nonlocal calls
        calls += 1
        return _link_m(F, bit)

    monkeypatch.setattr(collapse, "_link_m", counted)
    monkeypatch.setattr(evasiveness, "_link_m", counted)
    monkeypatch.setattr(evasiveness._Facets, "link", staticmethod(counted))
    assert len(certificate_to_collapse(X, cert)) == _collapse_steps(cert)
    assert 0 < calls <= 300


EDGE = SimplicialComplex([["a", "b"]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: certificate_to_collapse(EDGE, NECertificate((["a"],), (PointWitness("b"),))),
         "certificate removes unknown vertex"),
        (lambda: certificate_to_collapse(EDGE, NECertificate(("a",), (PointWitness(["b"]),))),
         "does not verify"),
        (lambda: witness_to_vertex_collapse(EDGE, "a", PointWitness(["b"])), "does not verify"),
        (lambda: apply_collapse(EDGE, [["a"]], frozenset("ab")), "is not a free pair"),
    ],
    ids=["removed-vertex", "certificate-witness", "vertex-witness", "free-pair"],
)
def test_unhashable_labels_are_complex_errors(call, message):
    with pytest.raises(ComplexError, match=message):
        call()


def test_a_vertex_removed_twice_is_named_as_already_removed():
    X = SimplicialComplex.simplex("abc")
    w = SplitWitness("b", PointWitness("c"), PointWitness("c"))  # for the edge bc, the link of a
    for compile_ in (certificate_to_collapse, ref_certificate_to_collapse):
        with pytest.raises(ComplexError, match="^certificate removes already removed vertex 'a'$"):
            compile_(X, NECertificate(("a", "a"), (w, w)))
        with pytest.raises(ComplexError, match="^certificate removes unknown vertex 'q'$"):
            compile_(X, NECertificate(("q",), (w,)))


class TestSequenceIsMaskBacked:
    """The labelled constructor, the trusted mask path and the labelled view."""

    def test_labelled_steps_are_stored_as_masks_over_their_labels(self):
        seq = CollapseSequence([({"c"}, {"b", "c"}), ({"b", "a"}, {"a", "b", "d"})])
        assert seq.vertices == ("a", "b", "c", "d")
        assert seq._pairs == ((0b0100, 0b0110), (0b0011, 0b1011))
        assert list(seq) == list(seq.steps) == [(frozenset("c"), frozenset("bc")), (frozenset("ab"), frozenset("abd"))]
        assert len(seq) == 2

    def test_equality_and_hash_go_by_the_labelled_steps(self):
        steps = [(frozenset("b"), frozenset("ab"))]
        wide = CollapseSequence._from_masks(("a", "b", "c", "z"), [(0b0010, 0b0011)])
        masks = CollapseSequence._from_masks(("a", "b", "c"), [(0b010, 0b011)])
        assert CollapseSequence(steps).vertices == ("a", "b") and wide._pairs == masks._pairs
        for seq in (wide, masks):
            assert seq == CollapseSequence(steps) and hash(seq) == hash(CollapseSequence(steps))
        assert masks != CollapseSequence([(frozenset("a"), frozenset("ab"))]) and masks != steps
        assert eval(repr(masks)) == masks and repr(masks).startswith("CollapseSequence(steps=((frozenset(")

    def test_a_sequence_is_frozen(self):
        seq = CollapseSequence._from_masks(("a", "b", "c"), [(0b010, 0b011)])
        h = hash(seq)
        for name, value in (("vertices", ("a", "b", "z")), ("_pairs", ((0b001, 0b011),)), ("steps", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(seq, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(seq, name)
        assert seq.vertices == ("a", "b", "c") and hash(seq) == h

    def test_copy_and_pickle_keep_the_steps(self):
        for seq in (CollapseSequence._from_masks(("a", "b", "c"), [(0b010, 0b011)]),
                    CollapseSequence([(frozenset(), frozenset("a"))])):
            for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
                assert type(twin) is CollapseSequence and twin == seq and hash(twin) == hash(seq)

    def test_an_empty_free_face_is_a_step(self):
        seq = CollapseSequence([(frozenset(), frozenset("a"))])
        assert seq._pairs == ((0, 1),) and not verify_collapse(SimplicialComplex.point("a"), SimplicialComplex.point("a"), seq)


def collapse_end(X, steps):
    """The complex left after the labelled steps, by label face sets."""
    return SimplicialComplex(set(ref_faces(X)) - {f for step in steps for f in step})


class TestReplayMatchesLabelReference:
    """`verify_collapse` against the label-level replay on every complex with
    at most four vertices, for found sequences, for the same steps over other
    vertex tuples (the re-index path), and for forged sequences."""

    def test_every_complex_up_to_four_vertices(self):
        paths = {"as stored": 0, "re-indexed": 0}
        checked = 0
        for X in SMALL_COMPLEXES:
            vs = X.vertices
            targets = [None] + [induced_subcomplex(X, keep) for k in range(1, len(vs) + 1)
                                for keep in combinations(vs, k)]
            for Y in targets:
                if Y is VOID:
                    continue
                seq = search_collapse(X, Y)
                if not isinstance(seq, CollapseSequence):
                    continue
                steps = list(seq)
                Y = collapse_end(X, steps) if Y is None else Y
                variants = [
                    (steps, seq),
                    (steps, CollapseSequence(steps)),  # over the step labels, a subset of X's
                    (steps, CollapseSequence._from_masks(vs + ("zz",), seq._pairs)),  # over a superset
                    ([(frozenset(), frozenset(vs[:1]))] + steps,
                     CollapseSequence([(frozenset(), frozenset(vs[:1]))] + steps)),  # an empty free face
                ]
                if steps:
                    tau, sigma = steps[0]
                    unknown = [(tau | {"zz"}, sigma | {"zz"})] + steps[1:]
                    swapped = [(sigma, tau)] + steps[1:]
                    variants += [
                        (unknown, CollapseSequence(unknown)),
                        (steps[1:], CollapseSequence(steps[1:])),  # a dropped step
                        (steps[:-1], CollapseSequence(steps[:-1])),
                        (swapped, unchecked_sequence(swapped)),
                    ]
                for labelled, forged in variants:
                    key = "as stored" if forged.vertices == vs else "re-indexed"
                    paths[key] += 1
                    for Z in (Y, X):
                        assert verify_collapse(X, Z, forged) == ref_verify_collapse(X, Z, labelled), (X, Z, labelled)
                    checked += 1
                assert verify_collapse(X, Y, seq)
        assert checked > 1000 and min(paths.values()) > 300


class TestSearchCollapse:
    def test_simplex_to_point(self):
        X = SimplicialComplex.simplex("abc")
        seq = search_collapse(X, None)
        assert isinstance(seq, CollapseSequence)
        assert len(seq) == 3

    def test_boundary_has_no_collapse(self):
        assert search_collapse(SimplicialComplex.simplex_boundary("abc"), None) is NOT_FOUND

    def test_annulus_to_core_cycle(self):
        X = annulus()
        assert len(X.vertices) == 9
        assert betti_equal(z2_betti(X), (1, 1))
        seq = search_collapse(X, core_cycle())
        assert isinstance(seq, CollapseSequence)
        assert verify_collapse(X, core_cycle(), seq)
        assert len(seq) == (X.n_faces() - core_cycle().n_faces()) // 2

    def test_budget_is_reported(self):
        X = SimplicialComplex.simplex("abcdef")
        assert search_collapse(X, None, SearchBudget(max_nodes=1)) is BUDGET_EXCEEDED

    def test_non_subcomplex_rejected(self):
        with pytest.raises(ComplexError):
            search_collapse(SimplicialComplex.simplex("abc"), SimplicialComplex.point("z"))

    def test_vertex_budget_is_checked_before_any_face_store(self, monkeypatch):
        def no_store(F):
            raise AssertionError("a face store was built for an over-budget complex")

        monkeypatch.setattr(collapse, "FaceStore", no_store)
        X = SimplicialComplex.simplex(f"v{i:02d}" for i in range(20))
        for Y in (SimplicialComplex.point("v00"), SimplicialComplex([["v00"], ["v01"]])):
            assert search_collapse(X, Y) is BUDGET_EXCEEDED
        assert search_collapse(X, None) is BUDGET_EXCEEDED
        with pytest.raises(ComplexError):
            search_collapse(X, SimplicialComplex.point("z"))

    @given(complexes(max_vertices=4))
    @settings(max_examples=40, deadline=None)
    def test_nonevasive_implies_collapsible(self, X):
        if is_nonevasive(X) is not EVASIVE:
            assert isinstance(search_collapse(X, None), CollapseSequence)


# -- the face store against rebuild-based references -------------------------------
#
# The references below step a complex the way the library did before it had a
# face store: every free check scans the facets and every step rebuilds the
# complex.  They live here only, as oracles for FaceStore-based replay and search.


def rebuild_is_free(X, tau, sigma) -> bool:
    if not X.has_face(tau):
        return False
    over = [F for F in X.facets if tau < F]
    return len(over) == 1 and over[0] == sigma and len(sigma) == len(tau) + 1


def rebuild_apply(X, tau, sigma):
    candidates = [F for F in X.facets if F != sigma]
    candidates += [sigma - {u} for u in sigma if sigma - {u} != tau]
    return SimplicialComplex(candidates)


def rebuild_verify(X, Y, steps) -> bool:
    cur = X
    for tau, sigma in steps:
        if not rebuild_is_free(cur, tau, sigma):
            return False
        cur = rebuild_apply(cur, tau, sigma)
    return cur == Y


def rebuild_free_pairs(X):
    out = []
    for tau in X.faces():
        over = [F for F in X.facets if tau < F]
        if len(over) == 1 and len(over[0]) == len(tau) + 1:
            out.append((tau, over[0]))
    out.sort(key=lambda p: (sorted(p[0]), sorted(p[1])))
    return out


def rebuild_search(X, Y, budget):
    """The recursive rebuild DFS: same pair order, dead states and budget."""
    if len(X.vertices) > budget.max_vertices:
        return BUDGET_EXCEEDED
    if Y is not None:
        target = Y.faces()
        if (X.n_faces() - len(target)) % 2 != 0:
            return NOT_FOUND
    left = [budget.max_nodes]
    dead = set()

    class Hit(Exception):
        pass

    def dfs(cur):
        if (len(cur.vertices) == 1) if Y is None else (cur == Y):
            return []
        if cur.facets in dead:
            return None
        left[0] -= 1
        if left[0] < 0:
            raise Hit
        for tau, sigma in rebuild_free_pairs(cur):
            if Y is not None and (tau in target or sigma in target):
                continue
            rest = dfs(rebuild_apply(cur, tau, sigma))
            if rest is not None:
                return [(tau, sigma)] + rest
        dead.add(cur.facets)
        return None

    try:
        found = dfs(X)
    except Hit:
        return BUDGET_EXCEEDED
    return NOT_FOUND if found is None else found


def unchecked_sequence(steps) -> CollapseSequence:
    """A CollapseSequence that skips construction checks, as a forged input
    would: a step of two faces of hashable labels becomes its mask pair over
    the sorted labels of all such steps, and any other step stays as it is,
    an entry that is no pair of masks."""
    def faces(step):
        try:
            tau, sigma = step
            return frozenset(tau), frozenset(sigma)
        except (TypeError, ValueError):
            return None

    pairs = [faces(step) for step in steps]
    vertices = tuple(sorted(set().union(*(t | s for t, s in filter(None, pairs)))))
    bits = {v: 1 << i for i, v in enumerate(vertices)}
    seq = object.__new__(CollapseSequence)
    object.__setattr__(seq, "vertices", vertices)  # a sequence is frozen
    object.__setattr__(seq, "_pairs", tuple(step if p is None else tuple(sum(bits[v] for v in f) for f in p)
                                            for step, p in zip(steps, pairs)))
    return seq


POOL = [frozenset(c) for k in range(1, 7) for c in combinations("abcdef", k)]


@st.composite
def replay_scripts(draw):
    """A complex on at most 5 vertices and a step sequence mixing valid steps
    with non-free pairs, absent faces, empty free faces and wrong sizes."""
    X = draw(complexes(max_vertices=5))
    cur, steps, valid = X, [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "nonfree", "absent", "empty", "size"]))
        faces = cur.faces()
        if kind == "valid":
            pairs = rebuild_free_pairs(cur)
            if not pairs:
                continue
            tau, sigma = draw(st.sampled_from(pairs))
            cur = rebuild_apply(cur, tau, sigma)
            valid.append(True)
        else:
            if kind == "nonfree":
                options = [
                    (t, s) for s in faces for t in (s - {v} for v in s)
                    if t and not rebuild_is_free(cur, t, s)
                ]
            elif kind == "absent":
                options = [
                    (t, t | {v}) for t in POOL for v in "abcdef"
                    if v not in t and not (t in faces and t | {v} in faces)
                ]
            elif kind == "empty":
                options = [(frozenset(), frozenset(v)) for v in "abcdef"]
            else:
                options = [(t, s) for s in faces for t in faces if t < s and len(s) != len(t) + 1]
                options += [(s, t) for t, s in options]
            if not options:
                continue
            tau, sigma = draw(st.sampled_from(options))
            valid.append(False)
        steps.append((tau, sigma))
    return X, steps, valid, cur


def mask_store(X):
    """A FaceStore of X and the mask of a labelled face over X's index; a
    label X does not have gets a bit of its own, which no face holds."""
    bits, F = _masks(X, X.vertices + tuple(v for v in "abcdef" if v not in X.vertices))
    return FaceStore(F), lambda face: sum(bits[v] for v in face)


class TestFaceStore:
    def test_counts_and_facets_of_a_triangle(self):
        store, mask = mask_store(SimplicialComplex.simplex("abc"))
        assert store.up[mask("a")] == 2
        assert store.up[mask("ab")] == 1
        assert store.facets == {mask("abc")}

    def test_remove_then_restore_is_identity(self):
        X = annulus()
        store = FaceStore(_masks(X)[1])
        before = dict(store.up), set(store.facets)
        for tau, sigma in store.free_pairs():
            store.remove(tau, sigma)
            store.restore(tau, sigma)
            assert (dict(store.up), store.facets) == before

    @given(replay_scripts())
    @settings(max_examples=300, deadline=None)
    def test_store_replay_matches_rebuild_replay(self, script):
        X, steps, valid, end = script
        (store, mask), cur = mask_store(X), X
        for (tau, sigma), ok in zip(steps, valid):
            assert store.is_free(mask(tau), mask(sigma)) == rebuild_is_free(cur, tau, sigma) == ok
            if ok:
                store.remove(mask(tau), mask(sigma))
                cur = rebuild_apply(cur, tau, sigma)
                assert store.facets == set(map(mask, cur.facets))
                assert store.up.keys() == set(map(mask, cur.faces()))
        seq = unchecked_sequence(steps)
        for Y in (end, X, SimplicialComplex.point("a")):
            assert verify_collapse(X, Y, seq) == rebuild_verify(X, Y, steps)
        assert verify_collapse(X, end, seq) == all(valid)

    @given(complexes(max_vertices=5))
    @settings(max_examples=100, deadline=None)
    def test_free_pairs_match_rebuild(self, X):
        assert free_pairs(X) == rebuild_free_pairs(X)

    def test_every_complex_up_to_four_vertices_matches_rebuild(self):
        family = [complex_from_masks(m) for m in iter_antichain_complexes(4)]
        assert len(family) == 166
        for X in family:
            assert free_pairs(X) == rebuild_free_pairs(X)
            budget = SearchBudget()
            assert as_lists(search_collapse(X, None, budget)) == as_lists(rebuild_search(X, None, budget))


@pytest.mark.parametrize("family", ["up to 4 vertices", (3, 2), (4, 2), (5, 2), (3, 3)], ids=str)
def test_store_counts_match_label_coface_counts(family):
    # the one-pass build (popcount of the facets' OR over each face, minus the
    # face) against counting the cofaces tau + v on label sets
    if family == "up to 4 vertices":
        Xs = [complex_from_masks(m) for m in iter_antichain_complexes(4)]
    else:
        Xs = [order_complex(grid(*family)[0])]
    for X in Xs:
        store = FaceStore(_masks(X)[1])
        labelled = {_mask_labels(f, X.vertices): c for f, c in store.up.items()}
        assert len(labelled) == len(store.up) == X.n_faces()
        assert labelled == ref_coface_counts(X)
        assert {_mask_labels(f, X.vertices) for f in store.facets} == X.facets


def as_lists(result):
    if result is NOT_FOUND or result is BUDGET_EXCEEDED:
        return result
    return [(sorted(t), sorted(s)) for t, s in result]


class TestSearchMatchesRebuild:
    @given(complexes(max_vertices=5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_result_for_every_small_budget(self, X, data):
        k = data.draw(st.integers(1, len(X.vertices)))
        targets = [None, induced_subcomplex(X, X.vertices[:k])]
        for Y in targets:
            if Y is VOID:
                continue
            for nodes in (1, 2, 3, 5, 8, 13, 1_000_000):
                budget = SearchBudget(max_nodes=nodes)
                assert as_lists(search_collapse(X, Y, budget)) == as_lists(rebuild_search(X, Y, budget))


SEARCH_BUDGETS = [SearchBudget(max_nodes=n) for n in (1, 2, 3, 5, 8, 13)] + [DEFAULT_BUDGET]
SMALL_COMPLEXES = [complex_from_masks(m) for m in iter_antichain_complexes(4)]


def store_free_pairs(store, X):
    """The store's free pairs, labelled by X's vertices."""
    return list(CollapseSequence._from_masks(X.vertices, store.free_pairs()))


def store_complex(store, X):
    return SimplicialComplex._from_masks(X.vertices, frozenset(store.facets))


class TestSearchMatchesRebuildEverywhere:
    """Every complex on at most four vertices, every target, every budget:
    a moved spend or a wrong pair order fails here, not only in a draw."""

    @pytest.mark.parametrize("budget", SEARCH_BUDGETS, ids=lambda b: str(b.max_nodes))
    def test_every_complex_to_a_point_and_to_every_induced_target(self, budget):
        outcomes = set()
        for X in SMALL_COMPLEXES:
            vs = X.vertices
            targets = [None] + [induced_subcomplex(X, keep) for k in range(1, len(vs) + 1)
                                for keep in combinations(vs, k)]
            for Y in targets:
                if Y is VOID:
                    continue
                got = search_collapse(X, Y, budget)
                assert as_lists(got) == as_lists(rebuild_search(X, Y, budget)), (X, Y)
                outcomes.add(got if got in (NOT_FOUND, BUDGET_EXCEEDED) else CollapseSequence)
        assert CollapseSequence in outcomes and NOT_FOUND in outcomes
        if budget.max_nodes < 5:
            assert BUDGET_EXCEEDED in outcomes

    def test_free_pairs_after_every_remove_and_restore(self):
        def walk(store, X, seen):
            pairs = store_free_pairs(store, X)
            assert pairs == rebuild_free_pairs(store_complex(store, X))
            key = frozenset(store.facets)
            if key in seen:
                return
            seen.add(key)
            for tau, sigma in store.free_pairs():
                store.remove(tau, sigma)
                walk(store, X, seen)
                store.restore(tau, sigma)
                assert store_free_pairs(store, X) == pairs

        states = 0
        for X in SMALL_COMPLEXES:
            F = _masks(X)[1]
            assert not FaceStore(F).rank  # built by free_pairs only
            seen: set = set()
            walk(FaceStore(F), X, seen)
            states += len(seen)
            # a rank built after a step, then met by the face restore brings back
            for tau, sigma in FaceStore(F).free_pairs():
                store = FaceStore(F)
                store.remove(tau, sigma)
                after = store_free_pairs(store, X)
                assert after == rebuild_free_pairs(store_complex(store, X))
                store.restore(tau, sigma)
                assert store_free_pairs(store, X) == rebuild_free_pairs(X)
        assert states > 1000
