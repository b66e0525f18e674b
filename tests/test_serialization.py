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
from poset_collapse.evasiveness import SplitWitness

from conftest import split_chain


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
        data = ser.witness_to_data(split_chain(3, "deletion"))
        assert chain_text(3) == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_writes_past_the_recursion_limit(self):
        # 1,000 splits are 2,000 JSON levels; the text grows with the square of
        # the depth (about 16 MB here), so 5,000 splits would be 0.4 GB
        assert ser.dumps(ser.witness_to_data(split_chain(1000, "deletion"))) == chain_text(1000)


class TestDeepWitnesses:
    @pytest.mark.parametrize("along", ["link", "deletion"])
    def test_codec_round_trips_5000_splits(self, along):
        w = split_chain(5000, along)
        data = ser.witness_to_data(w)
        assert same_witness(ser.witness_from_data(data), w)

    def test_error_paths_name_the_node(self):
        data = ser.witness_to_data(split_chain(3, "link"))
        data["split"]["link"]["split"]["link"]["split"]["deletion"] = {"point": 1}
        with pytest.raises(ser.InputError, match=r"^witness\.link\.link\.deletion: field 'point'"):
            ser.witness_from_data(data)

    def test_link_errors_come_before_a_missing_deletion(self):
        data = ser.witness_to_data(split_chain(2, "deletion"))
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
