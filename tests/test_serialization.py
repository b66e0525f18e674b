"""Round-trips and input diagnostics for the JSON formats."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from poset_collapse import (
    CollapseSequence,
    Poset,
    PosetMap,
    SimplicialComplex,
    certificate_to_collapse,
    order_complex,
    search_ne_reduction,
    theorem_reduce,
    verify_collapse,
    verify_ne_certificate,
    verify_witness,
    is_nonevasive,
)
from poset_collapse import serialization as ser
from poset_collapse.cli import main
from poset_collapse.collapse import _collapse_steps, _compile_masks
from poset_collapse.enumeration import iter_posets, map_from_table, monotone_tables, poset_from_masks
from poset_collapse.evasiveness import NECertificate, PointWitness, SplitWitness

from conftest import grid, nested_certificate_data, nested_data, split_chain


def b2():
    return Poset(["0", "1", "2", "12"], [("0", "1"), ("0", "2"), ("1", "12"), ("2", "12")])


class TestRoundTrips:
    def test_poset(self):
        P = b2()
        assert ser.poset_from_data(ser.poset_to_data(P)) == P

    def test_map(self):
        P = b2()
        phi = PosetMap(P, {"0": "2", "1": "12", "2": "2", "12": "12"})
        assert ser.map_from_data(ser.map_to_data(phi), P) == phi

    def test_complex(self):
        X = SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"]])
        assert ser.complex_from_data(ser.complex_to_data(X)) == X

    def test_witness_reverifies_after_parse(self):
        X = SimplicialComplex.simplex("abc")
        w = is_nonevasive(X)
        back = ser.witness_from_data(ser.witness_to_data(w))
        assert back == w
        assert verify_witness(X, back)

    def test_certificate_reverifies_after_parse(self):
        X = SimplicialComplex.simplex("abc")
        Y = SimplicialComplex.point("c")
        cert = search_ne_reduction(X, Y)
        back = ser.certificate_from_data(ser.certificate_to_data(cert))
        assert verify_ne_certificate(X, Y, back)

    def test_collapse_reverifies_after_parse(self):
        X = SimplicialComplex.simplex("abc")
        Y = SimplicialComplex.point("c")
        cert = search_ne_reduction(X, Y)
        seq = certificate_to_collapse(X, cert)
        back = ser.collapse_from_data(ser.collapse_to_data(seq))
        assert verify_collapse(X, Y, back)

    def test_reduction_report_embeds_everything(self):
        P = b2()
        phi = PosetMap(P, {"0": "2", "1": "12", "2": "2", "12": "12"})
        report = theorem_reduce(P, phi, phi.fixed_points(), emit_collapse=True)
        data = ser.reduction_report_to_data(report)
        assert data["removal_order"] == ["0", "1"]
        cert = ser.certificate_from_data(data["certificate"])
        seq = ser.collapse_from_data(data["collapse"])
        X = order_complex(P)
        Y = order_complex(P.induced({"2", "12"}))
        assert verify_ne_certificate(X, Y, cert)
        assert verify_collapse(X, Y, seq)

    def test_dumps_is_deterministic(self):
        X = SimplicialComplex([["b", "a"], ["c", "b"]])
        assert ser.dumps(ser.complex_to_data(X)) == ser.dumps(ser.complex_to_data(X))


# strings the encoder has to escape: quotes, backslashes, control characters,
# non-ASCII inside and outside the BMP, and a lone surrogate
_SPECIAL = '"\\/\x00\x01\x1f\x7f\n\t\r\u00e9\u2028\u2029\ud800\U0001d11e'
_strings = st.text(st.one_of(st.characters(), st.sampled_from(_SPECIAL)), max_size=8)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    _strings,
)
json_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.lists(_strings, max_size=5),
        st.dictionaries(_strings, kids, max_size=5),
    ),
    max_leaves=40,
)


def same_witness(u, w) -> bool:
    # dataclass equality recurses, so compare deep witnesses on a stack
    todo = [(u, w)]
    while todo:
        u, w = todo.pop()
        if type(u) is not type(w) or u.vertex != w.vertex:
            return False
        if isinstance(u, SplitWitness):
            todo += [(u.link, w.link), (u.deletion, w.deletion)]
    return True


def chain_text(n) -> str:
    """The indent=2 JSON of split_chain(n, "deletion"), built line by line."""
    head, tail = [], []
    for k in range(n):
        pad = "  " * (2 * k)
        head.append(f'{{\n{pad}  "split": {{\n{pad}    "deletion": ')
        tail.append(
            f',\n{pad}    "link": {{\n{pad}      "point": "b"\n{pad}    }},'
            f'\n{pad}    "v": "a"\n{pad}  }}\n{pad}}}'
        )
    pad = "  " * (2 * n)
    return "".join(head) + f'{{\n{pad}  "point": "a"\n{pad}}}' + "".join(reversed(tail)) + "\n"


_SHARED = [{"x": 1}]


class TestDumps:
    @given(json_trees)
    @example([])
    @example({"": {}, "a": [[], {}, [""]]})
    @example(-(2**70))
    @example({"a": _SHARED, "b": _SHARED})  # met twice, but never inside itself
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_stdlib_indent_sorted(self, data):
        assert ser.dumps(data) == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_self_containing_list_is_circular(self):
        a = ["x"]
        a.append(a)
        with pytest.raises(ValueError, match="Circular reference"):
            ser.dumps({"a": a})

    def test_self_containing_dict_is_circular(self):
        d = {"k": "v"}
        d["self"] = [d]
        with pytest.raises(ValueError, match="Circular reference"):
            ser.dumps(d)

    @pytest.mark.parametrize("bad", [1.5, {"a": [0.0]}, {"a"}, [["b", {"c"}]], {1: "x"}])
    def test_floats_sets_and_non_string_keys_are_type_errors(self, bad):
        with pytest.raises(TypeError):
            ser.dumps(bad)

    def test_chain_oracle_matches_stdlib(self):
        data = nested_data(split_chain(3, "deletion"))
        assert chain_text(3) == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_writes_past_the_recursion_limit(self):
        # 1,000 splits are 2,000 JSON levels; the text grows with the square of
        # the depth (about 16 MB here), so 5,000 splits would be 0.4 GB
        assert ser.dumps(nested_data(split_chain(1000, "deletion"))) == chain_text(1000)


# labels that `ensure_ascii` escapes, sorted: a control character, '"', '\\', 'é'
ESCAPED = ("\x01", '"', "\\", "\u00e9")


class TestSequenceNode:
    """Compiled steps written from a sequence's mask pairs against
    `collapse_to_data` of the same sequence, written by the same walker."""

    @staticmethod
    def both(X, cert):
        seq = CollapseSequence._from_masks(X.vertices, _compile_masks(X, cert))
        return {"steps": seq}, ser.collapse_to_data(seq)

    @pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (3, 3)])
    def test_grid_steps_at_every_depth(self, k, d):
        P, phi = grid(k, d)
        X = order_complex(P)
        streamed, labelled = self.both(X, theorem_reduce(P, phi, phi.fixed_points()).certificate)
        for wrap in (lambda c: c, lambda c: {"a": [{"collapse": c}], "b": 1}, lambda c: [[c, "x"]]):
            assert ser.dumps(wrap(streamed)) == ser.dumps(wrap(labelled))

    def test_escaped_labels(self):
        X = SimplicialComplex.simplex(ESCAPED)
        assert X.vertices == ESCAPED
        streamed, labelled = self.both(X, search_ne_reduction(X, SimplicialComplex.point(ESCAPED[0])))
        text = ser.dumps(streamed)
        assert text == ser.dumps(labelled) == json.dumps(labelled, indent=2, sort_keys=True) + "\n"
        assert '"\\u00e9"' in text and '"\\u0001"' in text

    def test_no_steps(self):
        X = SimplicialComplex.simplex("ab")
        streamed, labelled = self.both(X, NECertificate((), ()))
        assert ser.dumps(streamed) == ser.dumps(labelled) == '{\n  "steps": []\n}\n'

    @pytest.mark.parametrize(
        "pairs, labels",
        [
            ([(0b001, 0b011), (0b100, 0b011)], "abc"),  # the free face is not in the coface
            ([(0b001, 0b111)], "abc"),  # two more vertices
            ([(0b011, 0b011)], "abc"),  # no more vertex
            ([(0, 0b001)], "abc"),  # an empty free face
            ([(0b001, 0b1001)], "abc"),  # a vertex beyond the labels
            ([(0b01, 0b11)], ("b", "a")),  # labels out of order
        ],
    )
    def test_malformed_steps_raise_before_writing(self, pairs, labels):
        with pytest.raises(ValueError):
            CollapseSequence._from_masks(tuple(labels), pairs)


def _step(free, coface):
    return {"free": free, "coface": coface}


class TestCollapseReader:
    """`collapse_from_data` decodes to mask pairs; a fault is reported as the
    step-by-step walk meets it, field and label faults before malformed steps."""

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"steps": {}}, "c.json: field 'steps' has the wrong type"),
            ({"steps": [[]]}, "c.json.steps[0]: expected an object, got list"),
            ({"steps": [_step(["a"], ["a", "b"]), {"free": ["a"]}]}, "c.json.steps[1]: missing field 'coface'"),
            ({"steps": [_step(["a"], ["a", "b"]), _step("a", [])]}, "c.json.steps[1]: field 'free' has the wrong type"),
            ({"steps": [_step(["a"], ["b"]), _step([1], [])]}, "c.json.steps[1]: free[0]: labels must be strings, got int"),
            ({"steps": [_step(["a"], ["a", "b"]), _step(["a"], ["b", ["c"]])]},
             "c.json.steps[1]: coface[1]: labels must be strings, got list"),
            ({"steps": [_step(["a"], ["a", "b"]), _step(["a"], ["b", "c"])]}, "c.json: malformed step (['a'], ['b', 'c'])"),
        ],
    )
    def test_messages(self, data, message):
        with pytest.raises(ser.InputError) as e:
            ser.collapse_from_data(data, "c.json")
        assert str(e.value) == message

    def test_repeats_read_as_sets_and_an_empty_free_face_reads(self):
        seq = ser.collapse_from_data({"steps": [_step(["a", "a"], ["b", "a"]), _step([], ["c"])]})
        assert seq.vertices == ("a", "b", "c") and seq._pairs == ((0b001, 0b011), (0, 0b100))
        assert seq == CollapseSequence([({"a"}, {"a", "b"}), (set(), {"c"})])
        X = SimplicialComplex([["a", "b"], ["c"]])
        assert not verify_collapse(X, SimplicialComplex([["a"]]), seq)
        # the same sequence written from its masks reads back to itself
        text = ser.dumps({"steps": seq})
        assert text == ser.dumps(ser.collapse_to_data(seq))
        assert ser.collapse_from_data({"steps": json.loads(text)["steps"]}) == seq


class TestDeepWitnesses:
    @pytest.mark.parametrize("along", ["link", "deletion"])
    def test_codec_round_trips_5000_splits(self, along):
        # the node table, through its JSON text, and the nested form
        w = split_chain(5000, along)
        data = ser.witness_to_data(w)
        assert len(data["nodes"]) == 5002  # the points a and b, and one row per split
        assert same_witness(ser.witness_from_data(json.loads(ser.dumps(data))), w)
        assert same_witness(ser.witness_from_data(nested_data(w)), w)

    def test_error_paths_name_the_node(self):
        data = nested_data(split_chain(3, "link"))
        data["split"]["link"]["split"]["link"]["split"]["deletion"] = {"point": 1}
        with pytest.raises(ser.InputError, match=r"^witness\.link\.link\.deletion: field 'point'"):
            ser.witness_from_data(data)

    def test_link_errors_come_before_a_missing_deletion(self):
        data = nested_data(split_chain(2, "deletion"))
        del data["split"]["deletion"]
        data["split"]["link"] = {"split": {"v": "a", "link": []}}
        with pytest.raises(ser.InputError, match=r"^witness\.link: field 'link' has the wrong type"):
            ser.witness_from_data(data)
        data["split"]["link"] = {"point": "b"}
        with pytest.raises(ser.InputError, match=r"^witness: missing field 'deletion'"):
            ser.witness_from_data(data)

    def test_split_must_be_an_object(self):
        with pytest.raises(ser.InputError, match=r"^w\.deletion: expected an object, got list"):
            ser.witness_from_data(
                {"split": {"v": "a", "link": {"point": "b"}, "deletion": {"split": []}}}, "w"
            )


# the certificate `ne-search` writes for the triangle abc down to the point c;
# each case below changes some of its fields, or of a one-point witness's
SIMPLEX_CERT = {"format": "nodes", "nodes": [["c"], ["b", 0, 0]], "removed": ["a", "b"], "witnesses": [1, 0]}
ONE_POINT = {"format": "nodes", "nodes": [["a"]], "root": 0}

BELOW_1 = r"\.nodes\[1\]: expected a node index below 1, got "
NOT_A_ROW = r": expected \[v\] or \[v, link, deletion\]"
MALFORMED = {
    "forward-index": ("certificate", {"nodes": [["c"], ["b", 2, 0], ["a", 0, 0]]}, BELOW_1 + "2"),
    "self-index": ("certificate", {"nodes": [["c"], ["b", 0, 1]]}, BELOW_1 + "1"),
    "bool-index": ("certificate", {"nodes": [["c"], ["b", True, 0]]}, BELOW_1 + "True"),
    "negative-index": ("certificate", {"nodes": [["c"], ["b", 0, -1]]}, BELOW_1 + "-1"),
    "string-index": ("certificate", {"nodes": [["c"], ["b", "0", 0]]}, BELOW_1 + "'0'"),
    "two-entries": ("certificate", {"nodes": [["c"], ["b", 0]]}, r"\.nodes\[1\]" + NOT_A_ROW),
    "empty-row": ("certificate", {"nodes": [[], ["b", 0, 0]]}, r"\.nodes\[0\]" + NOT_A_ROW),
    "row-not-a-list": ("certificate", {"nodes": ["c", ["b", 0, 0]]}, r"\.nodes\[0\]" + NOT_A_ROW),
    "int-label": ("certificate", {"nodes": [[3], ["b", 0, 0]]}, r"\.nodes\[0\]\[0\]: labels must be strings, got int"),
    "list-label": ("certificate", {"nodes": [["c"], [["b"], 0, 0]]}, r"\.nodes\[1\]\[0\]: labels must be strings"),
    "nodes-not-a-list": ("certificate", {"nodes": {"0": ["c"]}}, r": field 'nodes' has the wrong type"),
    "witness-index": ("certificate", {"witnesses": [1, 2]}, r"\.witnesses\[1\]: expected a node index below 2, got 2"),
    "unknown-format": ("certificate", {"format": "tree"}, r": unknown format 'tree'"),
    "lengths": ("certificate", {"removed": ["a"]}, r": 'removed' and 'witnesses' lengths differ"),
    "root-index": ("witness", {"root": 1}, r"\.root: expected a node index below 1, got 1"),
    "root-null": ("witness", {"root": None}, r"\.root: expected a node index below 1, got None"),
    "root-missing": ("witness", {"root": ...}, r": missing field 'root'"),
    "witness-format": ("witness", {"format": 2}, r": unknown format 2"),
}


class TestNodeTable:
    def test_rows_are_children_first_and_interned(self):
        # the B2 witness of `reduce`: the two points "2" are equal, so one row
        w = SplitWitness("1", PointWitness("12"), SplitWitness("12", PointWitness("2"), PointWitness("2")))
        data = {"format": "nodes", "nodes": [["12"], ["2"], ["12", 1, 1], ["1", 0, 2]], "root": 3}
        assert ser.witness_to_data(w) == data
        assert ser.witness_from_data(data) == w
        cert = NECertificate(("0", "1"), (w, PointWitness("12")))
        assert ser.certificate_to_data(cert) == {
            "format": "nodes", "nodes": data["nodes"], "removed": ["0", "1"], "witnesses": [3, 0],
        }

    def test_repeated_rows_come_back_as_one_object(self):
        inner = SplitWitness("b", PointWitness("c"), PointWitness("c"))
        equal = SplitWitness("b", PointWitness("c"), PointWitness("c"))
        w = ser.witness_from_data(ser.witness_to_data(SplitWitness("a", inner, equal)))
        assert w.link is w.deletion and w.link.link is w.link.deletion
        cert = ser.certificate_from_data(ser.certificate_to_data(NECertificate(("x", "y"), (inner, inner))))
        assert cert.witnesses[0] is cert.witnesses[1]

    @pytest.mark.parametrize("k", [2, 3])
    def test_equal_certificates_write_the_same_bytes(self, k):
        # the grid [k]^2 with x -> min(x, 1): the builder shares subtrees, and
        # the nested reader returns the same certificate with none shared
        labels = [f"{i}{j}" for i in range(k) for j in range(k)]
        covers = [(f"{i}{j}", f"{i + 1}{j}") for i in range(k - 1) for j in range(k)]
        covers += [(f"{i}{j}", f"{i}{j + 1}") for i in range(k) for j in range(k - 1)]
        P = Poset(labels, covers)
        phi = PosetMap(P, {x: "".join(min(c, "1") for c in x) for x in labels})
        cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
        tree = ser.certificate_from_data(nested_certificate_data(cert))
        assert tree == cert
        assert ser.dumps(ser.certificate_to_data(tree)) == ser.dumps(ser.certificate_to_data(cert))

    def test_subclassed_split_is_written_as_a_split(self):
        # a split is classified by isinstance, as the witness kernel and the
        # compiler classify it, so a subclass writes, counts and hashes as its
        # base, and an inner subclass node, point or split, compares as its base
        class S(SplitWitness):
            pass

        class Q(PointWitness):
            pass

        X = SimplicialComplex.simplex("abc")
        sub = NECertificate(("a",), (S("b", PointWitness("c"), PointWitness("c")),))
        base = NECertificate(("a",), (SplitWitness("b", PointWitness("c"), PointWitness("c")),))
        assert verify_ne_certificate(X, SimplicialComplex.simplex("bc"), sub)
        data = ser.certificate_to_data(sub)
        assert data == ser.certificate_to_data(base)
        assert data["nodes"] == [["c"], ["b", 0, 0]]
        assert ser.certificate_from_data(json.loads(ser.dumps(data))) == base
        assert hash(sub.witnesses[0]) == hash(base.witnesses[0])
        assert _collapse_steps(sub) == len(certificate_to_collapse(X, sub)) == 2
        inner = SplitWitness("a", sub.witnesses[0], Q("b"))
        twin = SplitWitness("a", base.witnesses[0], PointWitness("b"))
        assert inner == twin and hash(inner) == hash(twin)
        assert sub.witnesses[0] != base.witnesses[0]  # the root classes differ

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_tables_name_the_node(self, case, tmp_path):
        kind, change, message = MALFORMED[case]
        data = dict(SIMPLEX_CERT if kind == "certificate" else ONE_POINT, **change)
        data = {key: value for key, value in data.items() if value is not ...}  # ... drops the key
        read = ser.certificate_from_data if kind == "certificate" else ser.witness_from_data
        with pytest.raises(ser.InputError, match=f"^{kind}{message}"):
            read(data)
        # the CLI reports the file and the node, and exits 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        cx = tmp_path / "simplex.json"
        cx.write_text(json.dumps({"facets": [["a", "b", "c"]]}))
        flag = "--certificate" if kind == "certificate" else "--witness"
        command = "to-collapse" if kind == "certificate" else "verify-witness"
        assert main([command, "--complex", str(cx), flag, str(bad)]) == 2

    def test_every_small_reduction_round_trips(self):
        # every monotone map on at most 4 elements, onto Fix and onto the image
        count = 0
        for n in range(1, 5):
            for below in iter_posets(n):
                P = poset_from_masks(below)
                for table in monotone_tables(below):
                    phi = map_from_table(P, table)
                    for Q in (phi.fixed_points(), phi.image()):
                        cert = theorem_reduce(P, phi, Q).certificate
                        text = ser.dumps(ser.certificate_to_data(cert))
                        assert ser.certificate_from_data(json.loads(text)) == cert
                        count += 1
        assert count == 2 * 2810

    def test_nested_files_still_load_and_verify(self):
        # the certificate an earlier `reduce` wrote for B2 with its closure map
        def split(v, link, deletion):
            return {"split": {"v": v, "link": link, "deletion": deletion}}

        data = {
            "removed": ["0", "1"],
            "witnesses": [split("1", {"point": "12"}, split("12", {"point": "2"}, {"point": "2"})), {"point": "12"}],
        }
        P = b2()
        cert = ser.certificate_from_data(data)
        assert verify_ne_certificate(order_complex(P), order_complex(P.induced({"2", "12"})), cert)
        assert ser.witness_from_data(data["witnesses"][0]) == cert.witnesses[0]
        assert ser.certificate_to_data(cert)["nodes"] == [["12"], ["2"], ["12", 1, 1], ["1", 0, 2]]


class TestDiagnostics:
    def test_missing_field_names_the_field(self):
        with pytest.raises(ser.InputError, match="elements"):
            ser.poset_from_data({"covers": []})

    def test_bad_cover_shape_names_the_index(self):
        with pytest.raises(ser.InputError, match=r"covers\[1\]"):
            ser.poset_from_data({"elements": ["a", "b"], "covers": [["a", "b"], ["a"]]})

    def test_bad_facet_named(self):
        with pytest.raises(ser.InputError, match=r"facets\[0\]"):
            ser.complex_from_data({"facets": [[]]})

    def test_witness_requires_known_node_kind(self):
        with pytest.raises(ser.InputError, match="point.*split|split.*point"):
            ser.witness_from_data({"other": 1})

    def test_certificate_length_mismatch(self):
        with pytest.raises(ser.InputError, match="lengths"):
            ser.certificate_from_data({"removed": ["a"], "witnesses": []})

    def test_json_error_carries_line_number(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "elements": [,]\n}\n')
        with pytest.raises(ser.InputError, match="line 2"):
            ser.load_json(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ser.InputError):
            ser.load_json(tmp_path / "nope.json")
