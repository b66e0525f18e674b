"""End-to-end CLI runs: exit codes, file round-trips, byte determinism."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import poset_collapse
from poset_collapse import (
    SimplicialComplex,
    certificate_to_collapse,
    order_complex,
    reduce_to_image,
    search_ne_reduction,
    theorem_reduce,
    verify_collapse,
    verify_ne_certificate,
)
from poset_collapse import serialization as ser
from poset_collapse.cli import main

from conftest import nested_certificate_data, nested_data

B2 = {"elements": ["0", "1", "2", "12"], "covers": [["0", "1"], ["0", "2"], ["1", "12"], ["2", "12"]]}
CLOSURE = {"map": {"0": "2", "1": "12", "2": "2", "12": "12"}}
COMPOSED = {"map": {"0": "2", "1": "2", "2": "2", "12": "2"}}
BOUNDARY = {"facets": [["a", "b"], ["b", "c"], ["a", "c"]]}


def write_grid(write, k, d):
    """Files of the grid [k]^d and of its map x -> min(x, 1) coordinatewise."""
    points = ["".join(map(str, p)) for p in itertools.product(range(k), repeat=d)]
    covers = [[p, q] for p in points for q in points
              if sum(map(int, q)) == sum(map(int, p)) + 1 and all(a <= b for a, b in zip(p, q))]
    image = {p: "".join(min(c, "1") for c in p) for p in points}
    return write("grid.json", {"elements": points, "covers": covers}), write("grid-map.json", {"map": image})


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

    @pytest.mark.parametrize("flags, code", [([], 0), (["--budget-nodes", "4"], 0), (["--budget-nodes", "3"], 3)])
    def test_b2_report_within_the_node_budget(self, files, capsys, flags, code):
        # the certificate writes 4 distinct witness nodes; the report is unchanged within budget
        tmp, write = files
        argv = ["reduce", "--poset", write("b2.json", B2), "--map", write("closure.json", CLOSURE), "--sub", "fix"]
        got, out, err = run(argv + flags, capsys)
        report = {
            "certificate": {
                "format": "nodes",
                "nodes": [["12"], ["2"], ["12", 1, 1], ["1", 0, 2]],
                "removed": ["0", "1"],
                "witnesses": [3, 0],
            },
            "gamma": CLOSURE,
            "removal_order": ["0", "1"],
        }
        expected = report if code == 0 else {"status": "budget-exceeded"}
        assert (got, json.loads(out), err) == (code, dict(expected, seed=0), "")

    @pytest.mark.parametrize("flags, code", [(["--budget-nodes", "4"], 0), (["--budget-nodes", "3"], 3)])
    def test_b2_collapse_within_the_step_budget(self, files, capsys, flags, code):
        # 2 removed vertices and 2 splits compile to 4 elementary collapses
        tmp, write = files
        argv = ["reduce", "--poset", write("b2.json", B2), "--map", write("closure.json", CLOSURE), "--sub", "fix"]
        got, out, err = run(argv + ["--emit-collapse"] + flags, capsys)
        assert (got, err) == (code, "")
        if code == 0:
            assert len(json.loads(out)["collapse"]["steps"]) == 4
        else:
            assert json.loads(out) == {"status": "budget-exceeded", "seed": 0}

    @staticmethod
    def tall_chain(write):
        # 0 < a000 < ... < a997 < t with phi = t: 999 distinct witness nodes,
        # whose expanded trees have about 2^998 nodes
        labels = ["0", *[f"a{i:03d}" for i in range(998)], "t"]
        poset = write("chain.json", {"elements": labels, "covers": [list(p) for p in zip(labels, labels[1:])]})
        return labels, poset, write("top.json", {"map": {e: "t" for e in labels}})

    @pytest.mark.parametrize("command", ["reduce", "reduce-to-image"])
    def test_tall_chain_writes_a_small_certificate(self, files, capsys, command):
        tmp, write = files
        labels, poset, mapf = self.tall_chain(write)
        out_path = tmp / "out.json"
        argv = [command, "--poset", poset, "--map", mapf, "-o", str(out_path)]
        assert run(argv + (["--sub", "fix"] if command == "reduce" else []), capsys) == (0, "", "")
        assert out_path.stat().st_size < 1_000_000
        data = json.loads(out_path.read_text())
        assert len(data["certificate"]["nodes"]) <= 999
        X = SimplicialComplex([labels])
        assert verify_ne_certificate(X, SimplicialComplex.point("t"), ser.certificate_from_data(data["certificate"]))

    @pytest.mark.parametrize("command", ["reduce", "reduce-to-image", "to-collapse"])
    def test_tall_chain_collapse_is_over_the_step_budget(self, files, capsys, command):
        # the collapse would have 2^999 - 1 steps: exit 3 before compiling any
        tmp, write = files
        labels, poset, mapf = self.tall_chain(write)
        if command == "to-collapse":
            code, out, _ = run(["reduce", "--poset", poset, "--map", mapf, "--sub", "fix"], capsys)
            cert = write("cert.json", json.loads(out)["certificate"])
            argv = [command, "--complex", write("chain-cx.json", {"facets": [labels]}), "--certificate", cert]
        else:
            argv = [command, "--poset", poset, "--map", mapf, "--emit-collapse"]
            argv += ["--sub", "fix"] if command == "reduce" else []
        t0 = time.perf_counter()
        got, out, err = run(argv, capsys)
        assert (got, json.loads(out), err) == (3, {"status": "budget-exceeded", "seed": 0}, "")
        assert time.perf_counter() - t0 < 30

    def test_cube_grid_certificate_is_small(self, files, capsys):
        # the grid [4]^3 with x -> min(x, 1): its expanded witness trees have
        # 257,188 nodes, and the nested form written before was 78 MB
        tmp, write = files
        poset, mapf = write_grid(write, 4, 3)
        out_path = tmp / "out.json"
        argv = ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "-o", str(out_path)]
        assert run(argv, capsys) == (0, "", "")
        assert out_path.stat().st_size < 1_000_000
        data = json.loads(out_path.read_text())
        assert len(data["removal_order"]) == 64 - 8 and len(data["certificate"]["nodes"]) < 1100

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


class TestStreamedCollapse:
    """`--emit-collapse` and `to-collapse` write the compiled steps from mask
    pairs; the text must be `dumps` of the labelled sequence, built here."""

    @staticmethod
    def expected(data, X, cert) -> str:
        data = dict(data, seed=0)
        collapse = ser.collapse_to_data(certificate_to_collapse(X, cert))
        if "certificate" in data:
            data["collapse"] = collapse
        else:
            data.update(collapse)
        return ser.dumps(data)

    @pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (5, 2), (3, 3)])
    def test_grids(self, files, capsys, k, d):
        tmp, write = files
        poset, mapf = write_grid(write, k, d)
        P = ser.poset_from_data(json.loads(Path(poset).read_text()))
        phi = ser.map_from_data(json.loads(Path(mapf).read_text()), P)
        X = order_complex(P)
        for command, report in (("reduce", theorem_reduce(P, phi, phi.fixed_points())),
                                ("reduce-to-image", reduce_to_image(P, phi))):
            argv = [command, "--poset", poset, "--map", mapf, "--emit-collapse"]
            code, out, err = run(argv + (["--sub", "fix"] if command == "reduce" else []), capsys)
            assert (code, err) == (0, "")
            assert out == self.expected(ser.reduction_report_to_data(report), X, report.certificate)
        cert = theorem_reduce(P, phi, phi.fixed_points()).certificate
        argv = ["to-collapse", "--complex", write("cx.json", ser.complex_to_data(X)),
                "--certificate", write("cert.json", ser.certificate_to_data(cert))]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out == self.expected({}, X, cert)

    def test_escaped_labels(self, files, capsys):
        # a control character, '"', '\\' and 'é': as a chain for `reduce`, as
        # a simplex for `to-collapse`
        tmp, write = files
        labels = ["\x01", '"', "\\", "\u00e9"]
        poset = write("chain.json", {"elements": labels, "covers": [list(p) for p in zip(labels, labels[1:])]})
        mapf = write("top.json", {"map": {v: labels[-1] for v in labels}})
        code, out, err = run(["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--emit-collapse"], capsys)
        P = ser.poset_from_data(json.loads(Path(poset).read_text()))
        phi = ser.map_from_data(json.loads(Path(mapf).read_text()), P)
        report = theorem_reduce(P, phi, phi.fixed_points())
        assert (code, err) == (0, "")
        assert out == self.expected(ser.reduction_report_to_data(report), order_complex(P), report.certificate)
        assert '"\\u00e9"' in out and '"\\u0001"' in out and '"\\""' in out and '"\\\\"' in out
        X = SimplicialComplex([labels])
        cert = search_ne_reduction(X, SimplicialComplex.point('"'))
        argv = ["to-collapse", "--complex", write("cx.json", {"facets": [labels]}),
                "--certificate", write("cert.json", ser.certificate_to_data(cert))]
        code, out, err = run(argv, capsys)
        assert (code, err, out) == (0, "", self.expected({}, X, cert))

    def test_no_steps(self, files, capsys):
        tmp, write = files
        cert = write("cert.json", {"format": "nodes", "nodes": [], "removed": [], "witnesses": []})
        code, out, err = run(["to-collapse", "--complex", write("cx.json", BOUNDARY), "--certificate", cert], capsys)
        assert (code, err) == (0, "")
        assert out == '{\n  "seed": 0,\n  "steps": []\n}\n'

    @pytest.mark.parametrize(
        "cert, message",
        [
            # the step for "a" compiles; that for "b" has the point "a" for the point "c"
            ({"format": "nodes", "nodes": [["c"], ["b", 0, 0], ["a"]], "removed": ["a", "b"], "witnesses": [1, 2]},
             "certificate witness for 'b' does not verify"),
            ({"format": "nodes", "nodes": [["b"]], "removed": ["q"], "witnesses": [0]},
             "certificate removes unknown vertex 'q'"),
        ],
        ids=["forged-witness", "unknown-vertex"],
    )
    def test_a_bad_certificate_writes_nothing(self, files, capsys, cert, message):
        # every step is compiled and checked before the first byte is written
        tmp, write = files
        argv = ["to-collapse", "--complex", write("cx.json", {"facets": [["a", "b", "c"]]}),
                "--certificate", write("cert.json", cert)]
        assert run(argv, capsys) == (2, "", f"error: {message}\n")
        out_path = tmp / "out.json"
        out_path.write_bytes(b"earlier bytes\n")
        assert run(argv + ["-o", str(out_path)], capsys) == (2, "", f"error: {message}\n")
        assert out_path.read_bytes() == b"earlier bytes\n"


    def test_a_vertex_removed_twice_is_named_as_already_removed(self, files, capsys):
        # the first step for "a" compiles; the second names "a" as known but gone
        tmp, write = files
        cert = {"format": "nodes", "nodes": [["c"], ["b", 0, 0]], "removed": ["a", "a"], "witnesses": [1, 1]}
        argv = ["to-collapse", "--complex", write("cx.json", {"facets": [["a", "b", "c"]]}),
                "--certificate", write("cert.json", cert)]
        assert run(argv, capsys) == (2, "", "error: certificate removes already removed vertex 'a'\n")


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

    def test_long_path_is_over_budget_not_a_crash(self, files, capsys):
        # past the recursive searches' 512-vertex bound, whatever --budget-vertices says
        tmp, write = files
        cx = write("path.json", {"facets": [[f"v{i:04d}", f"v{i + 1:04d}"] for i in range(1199)]})
        code, out, err = run(["nonevasive", "--complex", cx, "--budget-vertices", "5000"], capsys)
        assert (code, json.loads(out)["status"], err) == (3, "budget-exceeded", "")

    @pytest.mark.parametrize(
        "argv, code, status",
        [
            (["ne-search", "--target", "pt.json", "--budget-nodes", "1"], 3, "budget-exceeded"),
            (["ne-search", "--target", "bd.json"], 1, "not-found"),
            (["collapse-search", "--to-point", "--budget-nodes", "1"], 3, "budget-exceeded"),
        ],
    )
    def test_search_outcomes(self, files, capsys, argv, code, status):
        tmp, write = files
        write("pt.json", {"facets": [["c"]]})
        write("bd.json", BOUNDARY)
        cx = write("cx.json", {"facets": [["a", "b", "c"], ["a", "d"]]})
        argv = [str(tmp / a) if a.endswith(".json") else a for a in argv]
        assert run(argv + ["--complex", cx], capsys)[:2] == (code, ser.dumps({"status": status, "seed": 0}))

    def test_collapse_search_checks_the_vertex_budget_before_the_face_counts(self, files, capsys):
        # 511 - 2 faces is odd, so within the budget this target is not-found
        tmp, write = files
        cx = write("simplex9.json", {"facets": [[f"v{i}" for i in range(9)]]})
        target = write("two.json", {"facets": [["v0"], ["v1"]]})
        argv = ["collapse-search", "--complex", cx, "--target", target]
        assert run(argv + ["--budget-vertices", "8"], capsys)[:2] == (3, ser.dumps({"status": "budget-exceeded", "seed": 0}))
        assert run(argv, capsys)[:2] == (1, ser.dumps({"status": "not-found", "seed": 0}))

    def test_non_induced_target_is_not_found_past_the_vertex_budget(self, files, capsys):
        # vertex removals only reach induced subcomplexes, so no search is needed
        tmp, write = files
        cx = write("big.json", {"facets": [[f"v{i:02d}" for i in range(20)]]})
        target = write("path.json", {"facets": [["v00", "v01"], ["v01", "v02"]]})
        got = run(["ne-search", "--complex", cx, "--target", target], capsys)
        assert got == (1, ser.dumps({"status": "not-found", "seed": 0}), "")

    def test_order_complex_of_a_long_chain(self, files, capsys):
        tmp, write = files
        labels = [f"c{i:04d}" for i in range(1200)]
        poset = write("chain.json", {"elements": labels, "covers": [list(p) for p in zip(labels, labels[1:])]})
        code, out, err = run(["order-complex", "--poset", poset], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["facets"] == [labels]


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

    def test_outputs_do_not_depend_on_the_hash_seed(self, files):
        # set iteration order changes with PYTHONHASHSEED; the bytes must not
        tmp, write = files
        poset, mapf = write_grid(write, 3, 2)
        cx = write("grid-cx.json", json.loads(_cli(["order-complex", "--poset", poset])[1]))
        commands = [
            ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--emit-collapse"],
            ["nonevasive", "--complex", cx],
            ["ne-search", "--complex", cx, "--target", write("edge.json", {"facets": [["00", "22"]]})],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(poset_collapse.__file__).parent.parent))
        for argv in commands:
            outs = []
            for seed in ("0", "1"):
                proc = subprocess.run([sys.executable, "-m", "poset_collapse.cli", *argv], capture_output=True,
                                      text=True, env=dict(env, PYTHONHASHSEED=seed), check=True)
                outs.append(proc.stdout)
            assert outs[0] == outs[1] and outs[0] == canonical(outs[0]), argv[0]

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

    def test_empty_output_path_is_exit_2(self, files, capsys):
        # "" names no file: an error, not a silent fallback to stdout
        tmp, write = files
        poset = write("b2.json", B2)
        code, out, err = run(["order-complex", "--poset", poset, "-o", ""], capsys)
        assert (code, out, err) == (2, "", "error: '': No such file or directory\n")

    def test_malformed_json_is_exit_2_with_position(self, files, capsys):
        tmp, write = files
        bad = tmp / "bad.json"
        bad.write_text('{"elements": [}')
        code, _, err = run(["order-complex", "--poset", str(bad)], capsys)
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("nonevasive", "--complex", b'{"facets": [["a\xff"]]}'),  # not UTF-8
            # past the interpreter's 4,300-digit limit for int(str)
            ("verify-witness", "--witness", b'{"format": "nodes", "nodes": [["a"]], "root": 1' + b"0" * 4999 + b"}"),
        ],
        ids=["not-utf-8", "5000-digit-root"],
    )
    def test_undecodable_json_is_exit_2(self, files, capsys, command, flag, text):
        tmp, write = files
        bad = tmp / "bad.json"
        bad.write_bytes(text)
        argv = [command, flag, str(bad)]
        if command == "verify-witness":
            argv += ["--complex", write("point.json", {"facets": [["a"]]})]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["order-complex", "reduce", "hall-check"])
    def test_repeated_element_label_is_exit_2(self, files, capsys, command):
        # read as a set, ["a", "a", "b"] would be a 2-element poset
        tmp, write = files
        poset = write("bad.json", {"elements": ["a", "a", "b"], "covers": [["a", "b"]]})
        argv = [command, "--poset", poset]
        if command == "reduce":
            argv += ["--map", write("map.json", {"map": {"a": "b", "b": "b"}}), "--sub", "fix"]
        assert run(argv, capsys) == (2, "", f"error: {poset}: elements[1]: repeated label 'a'\n")

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

    # "²" passes str.isdigit but not int()
    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", "\u00b2"])
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
# each file; "witness" and the certificates are made by the CLI itself, and
# each also comes in the nested form that earlier versions wrote
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

FUZZ_KEYS = ["facets", "elements", "covers", "map", "format", "nodes", "root", "removed", "witnesses"]
LABEL_LEAVES = st.sampled_from(["0", "1", "2", "12", "a", "b", "c", "d"])
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=4) | LABEL_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8) | st.sampled_from(FUZZ_KEYS), inner, max_size=4),
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
    seeds = {
        "witness": made(["nonevasive", "--complex", simplex], "witness"),
        "cert-simplex": made(["ne-search", "--complex", simplex, "--target", cx("pt.json", POINT_C)], "certificate"),
        "cert-ab": made(["ne-search", "--complex", a, "--target", b], "certificate"),
        "cert-cb": made(["ne-search", "--complex", c, "--target", b], "certificate"),
    }
    nested = {"witness": nested_data(ser.witness_from_data(seeds["witness"]))}
    for name in ("cert-simplex", "cert-ab", "cert-cb"):
        nested[name] = nested_certificate_data(ser.certificate_from_data(seeds[name]))
    return {"dir": tmp, **seeds, **{f"{name}-nested": data for name, data in nested.items()}}


@st.composite
def mutations(draw, value):
    """`value` with one node replaced, one label or index swapped, or one
    entry dropped or repeated."""
    if not isinstance(value, (dict, list)):
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
        if isinstance(valid, str):  # a made file, as written or in the nested form
            valid = data.draw(st.sampled_from([valid, valid + "-nested"]))
        content = made_files[valid] if isinstance(valid, str) else valid
        if flag == target:
            content = data.draw(JSON_TREES if data.draw(st.integers(0, 3)) == 0 else mutations(content))
        path = made_files["dir"] / (flag.strip("-") + ".json")
        path.write_text(json.dumps(content))
        argv += [flag, str(path)]
    code, out, err = _cli(argv)
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err


# -- one parser per process, commands run by name looked up at call time ---------


def _run_any(argv) -> tuple[int, str, str]:
    """`_cli`, with argparse's exit (a usage error or --help) as the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import poset_collapse.cli as cli\n"
            "print(len(built), cli._parser)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(poset_collapse.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == "0 None\n"

    def test_many_calls_build_one_parser(self, files, monkeypatch):
        import poset_collapse.cli as cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        tmp, write = files
        poset = write("b2.json", B2)
        for argv in (["order-complex", "--poset", poset], ["mobius", "--poset", poset], ["mobius"], ["--help"]):
            _run_any(argv)
        assert len(built) == 1

    def test_repeated_runs_are_identical(self, files):
        tmp, write = files
        poset, mapf = write_grid(write, 3, 2)
        for argv in (
            ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--emit-collapse"],
            ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--emit-collapse", "--budget-nodes", "3"],
            ["reduce", "--poset", poset],
            ["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--no-such-flag"],
            ["--help"],
            ["reduce", "--help"],
        ):
            first = _run_any(argv)
            assert first[0] in (0, 2, 3) and first[1] + first[2]
            assert _run_any(argv) == _run_any(argv) == first, argv

    @pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
    def test_a_patched_command_is_the_one_called(self, monkeypatch, command):
        import poset_collapse.cli as cli

        _run_any(["--help"])  # the parser is built before the patch
        called = []
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda args: called.append(args.command) or 7)
        argv = [command] + [word for flag in FUZZ_COMMANDS[command] for word in (flag, "unread.json")]
        assert _run_any(argv) == (7, "", "")
        assert called == [command]

    @pytest.mark.parametrize("command", [None] + sorted(FUZZ_COMMANDS))
    def test_help_equals_a_fresh_parser(self, monkeypatch, command):
        import poset_collapse.cli as cli

        monkeypatch.setenv("COLUMNS", "80")
        argv = ([] if command is None else [command]) + ["--help"]
        _run_any(argv)  # the reused parser exists from here on
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert _run_any(argv) == (0, out.getvalue(), "")
        assert out.getvalue().startswith("usage: poset-collapse")


# -- the report's node table, walked once ------------------------------------------


@pytest.mark.parametrize("k, d", [(3, 2), (4, 2), (5, 2), (3, 3)])
def test_emit_collapse_walks_the_node_table_once(files, monkeypatch, k, d):
    # after theorem_reduce, `_rows` runs once: for the certificate's JSON,
    # whose table also gives the step count checked against --budget-nodes
    import poset_collapse.cli as cli
    from poset_collapse import evasiveness
    from poset_collapse.collapse import _collapse_steps

    rows, walks, counts = evasiveness._rows, [], []
    for module in (evasiveness, poset_collapse.collapse, ser):
        monkeypatch.setattr(module, "_rows", lambda roots: walks.append(len(roots)) or rows(roots))
    reduce = cli.theorem_reduce

    def reduced(*a):
        report = reduce(*a)
        walks.clear()  # the walks that built the witnesses
        return report

    monkeypatch.setattr(cli, "theorem_reduce", reduced)
    over = cli._over_budget
    monkeypatch.setattr(cli, "_over_budget", lambda args, count: counts.append(count) or over(args, count))
    tmp, write = files
    poset, mapf = write_grid(write, k, d)
    code, out, err = _cli(["reduce", "--poset", poset, "--map", mapf, "--sub", "fix", "--emit-collapse"])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert walks == [len(data["removal_order"])]
    cert = ser.certificate_from_data(data["certificate"])
    steps = _collapse_steps(cert)
    assert steps == len(data["collapse"]["steps"])
    assert counts == [max(len(data["certificate"]["nodes"]), steps)] and steps > len(data["certificate"]["nodes"])
