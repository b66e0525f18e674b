"""End-to-end CLI runs: exit codes, file round-trips, byte determinism."""

import contextlib
import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from poset_collapse import SimplicialComplex, verify_collapse
from poset_collapse import serialization as ser
from poset_collapse.cli import main

B2 = {"elements": ["0", "1", "2", "12"], "covers": [["0", "1"], ["0", "2"], ["1", "12"], ["2", "12"]]}
CLOSURE = {"map": {"0": "2", "1": "12", "2": "2", "12": "12"}}
COMPOSED = {"map": {"0": "2", "1": "2", "2": "2", "12": "2"}}
BOUNDARY = {"facets": [["a", "b"], ["b", "c"], ["a", "c"]]}


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    return tmp_path, write


def canonical(text) -> str:
    """The stdlib's indent=2, sorted-keys text of the same JSON value."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    # every JSON a subcommand prints is the stdlib's text of that value, byte for byte
    if out.out:
        assert out.out == canonical(out.out)
    return code, out.out, out.err


class TestReduce:
    def test_b2_fixture_matches_expected_removal(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        code, out, _ = run(["reduce", "--poset", poset, "--map", mapf, "--sub", "fix"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["removal_order"] == ["0", "1"]
        assert data["seed"] == 0

    def test_emit_collapse_embeds_sequence(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        code, out, _ = run(
            ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--emit-collapse"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["collapse"]["steps"]

    def test_subset_file(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        sub = write("q.json", {"elements": ["1", "2", "12"]})
        code, out, _ = run(["reduce", "--poset", poset, "--map", mapf, "--sub", sub], capsys)
        assert code == 0
        assert json.loads(out)["removal_order"] == ["0"]

    def test_reduce_to_image(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        code, out, _ = run(["reduce-to-image", "--poset", poset, "--map", mapf], capsys)
        assert code == 0
        assert json.loads(out)["removal_order"] == ["0", "1"]

    def test_bad_precondition_is_input_error(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("comp.json", COMPOSED)
        code, _, err = run(["reduce", "--poset", poset, "--map", mapf, "--sub", "fix"], capsys)
        assert code == 2
        assert "monotone" in err


class TestClassifyAndDecompose:
    def test_composed_map_is_not_monotone(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("comp.json", COMPOSED)
        code, out, _ = run(["classify-map", "--poset", poset, "--map", mapf], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["order_preserving"] and not data["monotone"]
        assert data["non_monotone_witness"] == "1"

    def test_decompose_roundtrip(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        code, out, _ = run(["decompose", "--poset", poset, "--map", mapf], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["alpha"]["map"] == CLOSURE["map"]
        assert data["beta"]["map"] == {e: e for e in B2["elements"]}


class TestComplexCommands:
    def test_order_complex(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        code, out, _ = run(["order-complex", "--poset", poset], capsys)
        assert code == 0
        assert json.loads(out)["facets"] == [["0", "1", "12"], ["0", "12", "2"]]

    def test_nonevasive_on_boundary_is_exit_1(self, files, capsys):
        tmp, write = files
        cx = write("bd.json", BOUNDARY)
        code, out, _ = run(["nonevasive", "--complex", cx], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "evasive"

    def test_nonevasive_with_witness_roundtrip(self, files, capsys):
        tmp, write = files
        cx = write("simplex.json", {"facets": [["a", "b", "c"]]})
        code, out, _ = run(["nonevasive", "--complex", cx], capsys)
        assert code == 0
        witness_file = tmp / "w.json"
        witness_file.write_text(json.dumps(json.loads(out)["witness"]))
        code, out, _ = run(
            ["verify-witness", "--complex", cx, "--witness", str(witness_file)], capsys
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_ne_search_and_to_collapse_pipeline(self, files, capsys):
        tmp, write = files
        cx = write("simplex.json", {"facets": [["a", "b", "c"]]})
        target = write("pt.json", {"facets": [["c"]]})
        code, out, _ = run(["ne-search", "--complex", cx, "--target", target], capsys)
        assert code == 0
        cert_file = tmp / "cert.json"
        cert_file.write_text(json.dumps(json.loads(out)["certificate"]))
        code, out, _ = run(
            ["to-collapse", "--complex", cx, "--certificate", str(cert_file)], capsys
        )
        assert code == 0
        assert len(json.loads(out)["steps"]) == 3

    def test_collapse_search_not_found(self, files, capsys):
        tmp, write = files
        cx = write("bd.json", BOUNDARY)
        code, out, _ = run(["collapse-search", "--complex", cx, "--to-point"], capsys)
        assert code == 1

    def test_collapse_search_deep_simplex(self, files, capsys):
        # 1,023 steps deep: within the default 16-vertex budget, far past the
        # interpreter's recursion limit
        tmp, write = files
        facets = [[f"v{i:02d}" for i in range(11)]]
        cx = write("simplex11.json", {"facets": facets})
        code, out, err = run(["collapse-search", "--complex", cx, "--to-point"], capsys)
        assert code == 0, err
        data = json.loads(out)
        assert data["status"] == "found"
        seq = ser.collapse_from_data(data["sequence"])
        assert len(seq) == 1023
        X = SimplicialComplex(facets)
        removed = {v for tau, _ in seq if len(tau) == 1 for v in tau}
        (last,) = set(X.vertices) - removed
        assert verify_collapse(X, SimplicialComplex.point(last), seq)

    def test_budget_exit_code(self, files, capsys):
        tmp, write = files
        cx = write("big.json", {"facets": [[f"v{i}" for i in range(20)]]})
        code, out, _ = run(["nonevasive", "--complex", cx], capsys)
        assert code == 3
        assert json.loads(out)["status"] == "budget-exceeded"


class TestMobiusCommands:
    def test_mobius_table(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        code, out, _ = run(["mobius", "--poset", poset], capsys)
        assert code == 0
        values = {(v["x"], v["y"]): v["mu"] for v in json.loads(out)["values"]}
        assert values[("0", "12")] == 1

    def test_hall_check(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        code, out, _ = run(["hall-check", "--poset", poset], capsys)
        assert code == 0
        assert json.loads(out) == {"mu": 1, "reduced_euler": 1, "equal": True, "seed": 0}

    def test_crapo_check(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        sub = write("q.json", {"elements": ["0", "2", "12"]})
        code, out, _ = run(
            ["crapo-check", "--poset", poset, "--map", mapf, "--sub", sub], capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "lhs": 0, "rhs": 0, "equal": True, "case": "zero-not-fixed", "seed": 0,
        }


class TestCommonExpansionAndEnumerate:
    def test_common_expansion(self, files, capsys):
        tmp, write = files
        a = write("a.json", {"facets": [["a", "b", "c"]]})
        c = write("c.json", {"facets": [["b", "c", "d"]]})
        b = write("b.json", {"facets": [["b", "c"]]})
        code, out, _ = run(["ne-search", "--complex", a, "--target", b], capsys)
        cert_ab = tmp / "ab.json"
        cert_ab.write_text(json.dumps(json.loads(out)["certificate"]))
        code, out, _ = run(["ne-search", "--complex", c, "--target", b], capsys)
        cert_cb = tmp / "cb.json"
        cert_cb.write_text(json.dumps(json.loads(out)["certificate"]))
        code, out, _ = run(
            [
                "common-expansion",
                "--complex-a", a, "--complex-c", c,
                "--cert-ab", str(cert_ab), "--cert-cb", str(cert_cb),
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["complex"]["facets"] == [["a", "b", "c"], ["b", "c", "d"]]

    def test_enumerate_families(self, files, capsys):
        tmp, write = files
        fam = write(
            "family.json",
            {
                "complexes": [
                    {"facets": [["a"]]},
                    {"facets": [["a", "b", "c"]]},
                    BOUNDARY,
                ]
            },
        )
        code, out, _ = run(["enumerate", "--complexes", fam], capsys)
        assert code == 0
        data = json.loads(out)
        assert [0, 1] in data["classes"]
        assert [0, 2] in data["provably_distinct"]


class TestHygiene:
    def test_identical_invocations_are_byte_identical(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("closure.json", CLOSURE)
        argv = ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_output_file(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        out_path = tmp / "out.json"
        code, out, _ = run(["order-complex", "--poset", poset, "-o", str(out_path)], capsys)
        assert code == 0 and out == ""
        text = out_path.read_text()
        assert json.loads(text)["facets"]
        assert text == canonical(text)

    def test_unwritable_output_is_exit_2(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        out_path = tmp / "no-such-dir" / "out.json"
        code, out, err = run(["order-complex", "--poset", poset, "-o", str(out_path)], capsys)
        assert code == 2
        assert err == f"error: {out_path}: No such file or directory\n"
        assert out == ""
        code, out, err = run(["order-complex", "--poset", poset, "-o", str(tmp)], capsys)
        assert code == 2
        assert "Traceback" not in err and err.startswith(f"error: {tmp}: ")

    def test_malformed_json_is_exit_2_with_position(self, files, capsys):
        tmp, write = files
        bad = tmp / "bad.json"
        bad.write_text('{"elements": [}')
        code, _, err = run(["order-complex", "--poset", str(bad)], capsys)
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "argv_flag, data",
        [
            ("--complex", {"facets": [["a", ["b"]]]}),
            ("--complex", {"facets": [["a", 1]]}),
            ("--poset", {"elements": [1, "a"], "covers": []}),
            ("--poset", {"elements": ["a", "b"], "covers": [["a", ["b"]]]}),
        ],
    )
    def test_non_string_labels_are_exit_2(self, files, capsys, argv_flag, data):
        tmp, write = files
        path = write("bad.json", data)
        command = "nonevasive" if argv_flag == "--complex" else "order-complex"
        code, out, err = run([command, argv_flag, path], capsys)
        assert code == 2
        assert "labels must be strings" in err
        assert "Traceback" not in err and out == ""

    def test_non_string_map_value_is_exit_2(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("bad-map.json", {"map": {"0": ["2"], "1": "12", "2": "2", "12": "12"}})
        code, _, err = run(["classify-map", "--poset", poset, "--map", mapf], capsys)
        assert code == 2
        assert "must be a string label" in err

    def test_deeply_nested_witness_is_exit_2(self, files, capsys):
        # 600 split nodes are 1,201 JSON levels, past the decoder's recursion
        tmp, write = files
        cx = write("edge.json", {"facets": [["a", "b"]]})
        text = '{"point": "a"}'
        for _ in range(600):
            text = '{"split": {"v": "a", "link": {"point": "b"}, "deletion": ' + text + "}}"
        witness = tmp / "deep.json"
        witness.write_text(text)
        code, out, err = run(["verify-witness", "--complex", cx, "--witness", str(witness)], capsys)
        assert code == 2
        assert "nested too deeply" in err
        assert "Traceback" not in err and out == ""

    def test_deeply_nested_arrays_are_exit_2(self, files, capsys):
        tmp, write = files
        bad = tmp / "brackets.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(["nonevasive", "--complex", str(bad)], capsys)
        assert code == 2
        assert "nested too deeply" in err
        assert "Traceback" not in err and out == ""

    def test_env_budget_override(self, files, capsys, monkeypatch):
        tmp, write = files
        cx = write("simplex.json", {"facets": [["a", "b", "c", "d", "e"]]})
        monkeypatch.setenv("POSET_COLLAPSE_BUDGET", "2")
        code, out, _ = run(["nonevasive", "--complex", cx], capsys)
        assert code == 3

    def test_unknown_map_key_is_exit_2(self, files, capsys):
        tmp, write = files
        poset = write("b2.json", B2)
        mapf = write("typo.json", {"map": dict(CLOSURE["map"], zzz="0")})
        code, out, err = run(["classify-map", "--poset", poset, "--map", mapf], capsys)
        assert code == 2
        assert err == "error: map has a key outside the poset: 'zzz'\n" and out == ""

    @pytest.mark.parametrize("flags", [["--budget-nodes", "0"], ["--budget-vertices", "-1"]])
    def test_non_positive_budget_is_exit_2(self, files, capsys, flags):
        tmp, write = files
        cx = write("edge.json", {"facets": [["a", "b"]]})
        code, out, err = run(["nonevasive", "--complex", cx] + flags, capsys)
        assert code == 2
        assert err == "error: --budget-nodes and --budget-vertices must be positive\n" and out == ""

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
    def test_bad_env_budget_is_exit_2(self, files, capsys, monkeypatch, value):
        tmp, write = files
        cx = write("edge.json", {"facets": [["a", "b"]]})
        monkeypatch.setenv("POSET_COLLAPSE_BUDGET", value)
        code, out, err = run(["nonevasive", "--complex", cx], capsys)
        assert code == 2
        assert err == f"error: POSET_COLLAPSE_BUDGET must be a positive integer, got {value!r}\n"
        assert out == ""


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc, shown",
        [(ValueError("boom"), "ValueError: boom"), (KeyError("x"), "KeyError: 'x'")],
    )
    def test_internal_error_is_exit_4_without_traceback(self, files, capsys, monkeypatch, exc, shown):
        # a bug is not the user's fault: not exit 2, and no traceback
        import poset_collapse.cli as cli

        def broken(args):
            raise exc

        tmp, write = files
        poset = write("b2.json", B2)
        monkeypatch.setattr(cli, "cmd_order_complex", broken)
        code, out, err = run(["order-complex", "--poset", poset], capsys)
        assert code == 4
        assert err == f"internal error: {shown}\n" and out == ""


# -- fuzz: every file a subcommand reads, arbitrary or mutated -------------------

SIMPLEX = {"facets": [["a", "b", "c"]]}
POINT_C = {"facets": [["c"]]}

# each subcommand that reads files, with the flag and the valid content of
# each file; "witness" and the certificates are made by the CLI itself
FUZZ_COMMANDS = {
    "classify-map": {"--poset": B2, "--map": CLOSURE},
    "decompose": {"--poset": B2, "--map": CLOSURE},
    "order-complex": {"--poset": B2},
    "nonevasive": {"--complex": SIMPLEX},
    "verify-witness": {"--complex": SIMPLEX, "--witness": "witness"},
    "ne-search": {"--complex": SIMPLEX, "--target": POINT_C},
    "reduce": {"--poset": B2, "--map": CLOSURE, "--sub": {"elements": ["1", "2", "12"]}},
    "reduce-to-image": {"--poset": B2, "--map": CLOSURE},
    "to-collapse": {"--complex": SIMPLEX, "--certificate": "cert-simplex"},
    "collapse-search": {"--complex": SIMPLEX, "--target": POINT_C},
    "mobius": {"--poset": B2},
    "hall-check": {"--poset": B2},
    "crapo-check": {"--poset": B2, "--map": CLOSURE, "--sub": {"elements": ["0", "2", "12"]}},
    "common-expansion": {
        "--complex-a": {"facets": [["a", "b", "c"]]},
        "--complex-c": {"facets": [["b", "c", "d"]]},
        "--cert-ab": "cert-ab",
        "--cert-cb": "cert-cb",
    },
    "enumerate": {"--complexes": {"complexes": [{"facets": [["a"]]}, SIMPLEX, BOUNDARY]}},
}

LABEL_LEAVES = st.sampled_from(["0", "1", "2", "12", "a", "b", "c", "d"])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=4) | LABEL_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8) | st.sampled_from(["facets", "elements", "covers", "map"]), inner, max_size=4),
    max_leaves=12,
)


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def made_files(tmp_path_factory):
    """The witness and certificates the fuzz mutates, written by the CLI, and
    a directory for the fuzzed files."""
    tmp = tmp_path_factory.mktemp("made")

    def made(argv, field):
        code, out, err = _cli(argv)
        assert code == 0, err
        return json.loads(out)[field]

    def cx(name, data):
        path = tmp / name
        path.write_text(json.dumps(data))
        return str(path)

    simplex = cx("simplex.json", SIMPLEX)
    a = cx("a.json", FUZZ_COMMANDS["common-expansion"]["--complex-a"])
    c = cx("c.json", FUZZ_COMMANDS["common-expansion"]["--complex-c"])
    b = cx("b.json", {"facets": [["b", "c"]]})
    return {
        "dir": tmp,
        "witness": made(["nonevasive", "--complex", simplex], "witness"),
        "cert-simplex": made(["ne-search", "--complex", simplex, "--target", cx("pt.json", POINT_C)], "certificate"),
        "cert-ab": made(["ne-search", "--complex", a, "--target", b], "certificate"),
        "cert-cb": made(["ne-search", "--complex", c, "--target", b], "certificate"),
    }


@st.composite
def mutations(draw, value):
    """`value` with one node replaced, one label swapped, or one entry
    dropped or repeated."""
    if isinstance(value, str):
        return draw(LABEL_LEAVES | JSON_TREES)
    if not value or draw(st.integers(0, 4)) == 0:
        return draw(JSON_TREES)
    copy = dict(value) if isinstance(value, dict) else list(value)
    key = draw(st.sampled_from(sorted(copy) if isinstance(copy, dict) else range(len(copy))))
    action = draw(st.integers(0, 4))
    if action == 0:
        del copy[key]
    elif action == 1 and isinstance(copy, list):
        copy.append(copy[key])
    else:
        copy[key] = draw(mutations(value[key]))
    return copy


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_fuzzed_input_files_end_in_a_documented_exit_code(made_files, data):
    # arbitrary JSON trees and mutations of valid files, for every subcommand
    # that reads a file: never an internal error (exit 4), never a traceback
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    files = FUZZ_COMMANDS[command]
    target = data.draw(st.sampled_from(sorted(files)))
    argv = [command]
    for flag, valid in files.items():
        content = made_files[valid] if isinstance(valid, str) else valid
        if flag == target:
            content = data.draw(JSON_TREES if data.draw(st.integers(0, 3)) == 0 else mutations(content))
        path = made_files["dir"] / (flag.strip("-") + ".json")
        path.write_text(json.dumps(content))
        argv += [flag, str(path)]
    code, out, err = _cli(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
