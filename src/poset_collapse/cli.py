"""Command-line surface.

Exit codes: 0 success/verified, 1 not-found/not-verified/inequality,
2 malformed input or an `--output` path that cannot be written, 3 budget
exceeded, 4 internal error (a bug in this package, reported on stderr as
`internal error: <type>: <message>` without a traceback).  `--budget-nodes`
bounds the nodes a search spends; for `reduce` and `reduce-to-image`, the
distinct witness nodes their certificate writes; and for `to-collapse` and
`--emit-collapse`, the steps of the compiled collapse, counted before it is
compiled.  Outputs are JSON, byte-stable for a fixed input and seed; the
seed is recorded in every structured output.

`to-collapse` and `--emit-collapse` compile the certificate to mask pairs
(`collapse._compile_masks`), and they and `collapse-search` write the
`CollapseSequence` node that holds them; `serialization.write_json` streams
its steps from the pairs, in the bytes of `collapse_to_data`, and builds no
label set.  Every step is compiled and checked before the first byte is
written, so a bad certificate writes nothing.  The step count
checked against `--budget-nodes` comes from the node table the report
writes, so `reduce --emit-collapse` walks the witnesses once.

`main` builds the argument parser on its first call and reuses it for every
later call in the process: building it costs milliseconds, as much as a
small command, and in-process callers (the test suite, the benchmark) call
`main` many times.  It is not built at import, so importing the package
stays cheap.  The parser holds no functions, only the name of each
command's `cmd_*` function: `main` looks the name up in this module when it
runs the command, so a `cmd_*` replaced after the first call is the one
that runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialization as ser
from .collapse import CollapseSequence, _collapse_steps, _compile_masks, _table_steps, search_collapse
from .complexes import ComplexError, order_complex
from .evasiveness import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EVASIVE,
    NOT_FOUND,
    SearchBudget,
    classify_ne_equivalence,
    common_expansion,
    is_nonevasive,
    replay_certificate,
    search_ne_reduction,
    verify_witness,
)
from .mobius import crapo_check, hall_check, mobius_table
from .poset import PosetError, PosetMap, decompose_monotone
from .reduction import reduce_to_image, theorem_reduce

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget(args) -> SearchBudget:
    nodes = args.budget_nodes
    if nodes is None:
        env = os.environ.get("POSET_COLLAPSE_BUDGET") or str(DEFAULT_BUDGET.max_nodes)
        try:
            nodes = int(env) if env.isdigit() else 0
        except ValueError:  # digits that int() does not read, such as "²"
            nodes = 0
        if not nodes:
            raise ser.InputError(f"POSET_COLLAPSE_BUDGET must be a positive integer, got {env!r}")
    if nodes <= 0 or args.budget_vertices <= 0:
        raise ser.InputError("--budget-nodes and --budget-vertices must be positive")
    return SearchBudget(max_vertices=args.budget_vertices, max_nodes=nodes)


def _emit(args, data: dict) -> None:
    data = dict(data)
    data["seed"] = args.seed
    if args.output is not None:  # "" too, which names no file
        try:
            with open(args.output, "w") as fh:
                ser.write_json(data, fh)
        except OSError as e:
            raise ser.InputError(f"{args.output or repr('')}: {e.strerror or e}") from None
    else:
        ser.write_json(data, sys.stdout)


def _emit_outcome(args, result, found: str, key: str, to_data) -> int:
    """Emit a search result: budget-exceeded (exit 3), evasive or not-found
    (exit 1), or status `found` with the converted result under `key`; the
    sentinels are tested by identity, since hashing a witness walks it."""
    if result is BUDGET_EXCEEDED:
        _emit(args, {"status": "budget-exceeded"})
        return EXIT_BUDGET
    if result is EVASIVE or result is NOT_FOUND:
        _emit(args, {"status": "evasive" if result is EVASIVE else "not-found"})
        return EXIT_NEGATIVE
    _emit(args, {"status": found, key: to_data(result)})
    return EXIT_OK


def _load_poset(path):
    return ser.poset_from_data(ser.load_json(path), where=str(path))


def _load_map(path, P):
    return ser.map_from_data(ser.load_json(path), P, where=str(path))


def _load_complex(path):
    return ser.complex_from_data(ser.load_json(path), where=str(path))


def _load_certificate(path):
    return ser.certificate_from_data(ser.load_json(path), where=str(path))


def _resolve_subset(phi, spec: str):
    if spec == "fix":
        return phi.fixed_points()
    if spec == "image":
        return phi.image()
    data = ser.load_json(spec)
    elements = ser._need(data, "elements", list, str(spec))
    return frozenset(ser._labels(elements, f"{spec}: elements"))


def cmd_classify_map(args):
    P = _load_poset(args.poset)
    phi = _load_map(args.map, P)
    data = {
        "order_preserving": phi.order_preserving,
        "monotone": phi.monotone,
        "increasing": phi.increasing,
        "decreasing": phi.decreasing,
    }
    witness = phi.non_monotone_witness()
    if witness is not None:
        data["non_monotone_witness"] = witness
    _emit(args, data)
    return EXIT_OK


def cmd_decompose(args):
    P = _load_poset(args.poset)
    phi = _load_map(args.map, P)
    alpha, beta = decompose_monotone(phi)
    _emit(args, {"alpha": ser.map_to_data(alpha), "beta": ser.map_to_data(beta)})
    return EXIT_OK


def cmd_order_complex(args):
    P = _load_poset(args.poset)
    _emit(args, ser.complex_to_data(order_complex(P)))
    return EXIT_OK


def cmd_nonevasive(args):
    X = _load_complex(args.complex)
    result = is_nonevasive(X, _budget(args))
    return _emit_outcome(args, result, "nonevasive", "witness", ser.witness_to_data)


def cmd_verify_witness(args):
    X = _load_complex(args.complex)
    w = ser.witness_from_data(ser.load_json(args.witness), where=str(args.witness))
    ok = verify_witness(X, w)
    _emit(args, {"verified": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_ne_search(args):
    X = _load_complex(args.complex)
    Y = _load_complex(args.target)
    result = search_ne_reduction(X, Y, _budget(args))
    return _emit_outcome(args, result, "found", "certificate", ser.certificate_to_data)


def _over_budget(args, count: int) -> bool:
    """Emit budget-exceeded when `count` exceeds --budget-nodes."""
    if count > _budget(args).max_nodes:
        _emit(args, {"status": "budget-exceeded"})
        return True
    return False


def _compiled_collapse(X, cert) -> dict:
    """The collapse data of `cert` on X, compiled and checked in full before
    `_emit` writes its first byte, and written from the mask pairs."""
    return {"steps": CollapseSequence._from_masks(X.vertices, _compile_masks(X, cert))}


def _emit_report(args, P, report) -> int:
    """Emit a reduction report, or budget-exceeded (exit 3) when its certificate
    writes more distinct nodes than --budget-nodes or, with --emit-collapse,
    would compile to more collapse steps; `report` has no collapse yet, and
    it is compiled only within the budget."""
    data = ser.reduction_report_to_data(report)
    table = data["certificate"]
    steps = _table_steps(table["nodes"], table["witnesses"]) if args.emit_collapse else 0
    if _over_budget(args, max(len(table["nodes"]), steps)):
        return EXIT_BUDGET
    if args.emit_collapse:
        data["collapse"] = _compiled_collapse(order_complex(P), report.certificate)
    _emit(args, data)
    return EXIT_OK


def cmd_reduce(args):
    P = _load_poset(args.poset)
    phi = _load_map(args.map, P)
    return _emit_report(args, P, theorem_reduce(P, phi, _resolve_subset(phi, args.sub)))


def cmd_reduce_to_image(args):
    P = _load_poset(args.poset)
    phi = _load_map(args.map, P)
    return _emit_report(args, P, reduce_to_image(P, phi))


def cmd_to_collapse(args):
    X = _load_complex(args.complex)
    cert = _load_certificate(args.certificate)
    if _over_budget(args, _collapse_steps(cert)):
        return EXIT_BUDGET
    _emit(args, _compiled_collapse(X, cert))
    return EXIT_OK


def cmd_collapse_search(args):
    X = _load_complex(args.complex)
    Y = _load_complex(args.target) if args.target else None
    if Y is None and not args.to_point:
        raise ser.InputError("collapse-search needs --target FILE or --to-point")
    result = search_collapse(X, Y, _budget(args))
    return _emit_outcome(args, result, "found", "sequence", lambda seq: {"steps": seq})


def cmd_mobius(args):
    P = _load_poset(args.poset)
    _emit(args, ser.mobius_to_data(mobius_table(P)))
    return EXIT_OK


def cmd_hall_check(args):
    P = _load_poset(args.poset)
    check = hall_check(P)
    _emit(args, ser.hall_to_data(check))
    return EXIT_OK if check.equal else EXIT_NEGATIVE


def cmd_crapo_check(args):
    P = _load_poset(args.poset)
    phi = _load_map(args.map, P)
    subset = _resolve_subset(phi, args.sub)
    check = crapo_check(P, phi, subset)
    _emit(args, ser.crapo_to_data(check))
    return EXIT_OK if check.equal else EXIT_NEGATIVE


def cmd_common_expansion(args):
    A = _load_complex(args.complex_a)
    C = _load_complex(args.complex_c)
    cert_ab = _load_certificate(args.cert_ab)
    cert_cb = _load_certificate(args.cert_cb)
    B = replay_certificate(A, cert_ab)
    if B is None:
        raise ser.InputError(f"{args.cert_ab}: certificate does not replay from the first complex")
    merged = common_expansion(A, B, C, cert_ab, cert_cb)
    _emit(
        args,
        {
            "complex": ser.complex_to_data(merged.complex),
            "cert_to_a": ser.certificate_to_data(merged.to_a),
            "cert_to_c": ser.certificate_to_data(merged.to_c),
        },
    )
    return EXIT_OK


def cmd_enumerate(args):
    data = ser.load_json(args.complexes)
    raw = ser._need(data, "complexes", list, str(args.complexes))
    family = [
        ser.complex_from_data(c, where=f"{args.complexes}.complexes[{i}]")
        for i, c in enumerate(raw)
    ]
    result = classify_ne_equivalence(family, _budget(args))
    _emit(args, ser.classification_to_data(result))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poset-collapse",
        description="Nonevasiveness witnesses, NE-reduction and collapse "
        "certificates for order complexes, and Mobius identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn.__name__)  # a name, looked up when main runs it
        p.add_argument("--output", "-o", help="write JSON here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="recorded in outputs")
        p.add_argument("--budget-nodes", type=int, default=None)
        p.add_argument("--budget-vertices", type=int, default=DEFAULT_BUDGET.max_vertices)
        return p

    p = add("classify-map", cmd_classify_map, help="classification flags of a self-map")
    p.add_argument("--poset", required=True)
    p.add_argument("--map", required=True)

    p = add("decompose", cmd_decompose, help="split a monotone map into increasing∘decreasing")
    p.add_argument("--poset", required=True)
    p.add_argument("--map", required=True)

    p = add("order-complex", cmd_order_complex, help="complex of chains of a poset")
    p.add_argument("--poset", required=True)

    p = add("nonevasive", cmd_nonevasive, help="decide nonevasiveness with a witness")
    p.add_argument("--complex", required=True)

    p = add("verify-witness", cmd_verify_witness, help="replay a witness")
    p.add_argument("--complex", required=True)
    p.add_argument("--witness", required=True)

    p = add("ne-search", cmd_ne_search, help="search an NE-reduction X to Y")
    p.add_argument("--complex", required=True)
    p.add_argument("--target", required=True)

    p = add("reduce", cmd_reduce, help="NE-reduce Delta(P) to Delta(Q) along a monotone map")
    p.add_argument("--poset", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--sub", required=True, help="'fix', 'image', or a JSON file of elements")
    p.add_argument("--emit-collapse", action="store_true")

    p = add("reduce-to-image", cmd_reduce_to_image, help="reduce onto the image subposet")
    p.add_argument("--poset", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--emit-collapse", action="store_true")

    p = add("to-collapse", cmd_to_collapse, help="compile a certificate into elementary collapses")
    p.add_argument("--complex", required=True)
    p.add_argument("--certificate", required=True)

    p = add("collapse-search", cmd_collapse_search, help="search a collapse sequence")
    p.add_argument("--complex", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--to-point", action="store_true")

    p = add("mobius", cmd_mobius, help="full Mobius-function table")
    p.add_argument("--poset", required=True)

    p = add("hall-check", cmd_hall_check, help="mu(0,1) against the proper part's Euler characteristic")
    p.add_argument("--poset", required=True)

    p = add("crapo-check", cmd_crapo_check, help="generalized closure-theorem identity")
    p.add_argument("--poset", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--sub", required=True, help="'fix', 'image', or a JSON file of elements")

    p = add("common-expansion", cmd_common_expansion, help="merge a zigzag A down B up C")
    p.add_argument("--complex-a", required=True)
    p.add_argument("--complex-c", required=True)
    p.add_argument("--cert-ab", required=True)
    p.add_argument("--cert-cb", required=True)

    p = add("enumerate", cmd_enumerate, help="partition a family into NE-equivalence classes")
    p.add_argument("--complexes", required=True)

    return parser


_parser = None  # built by the first `main` call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[args.fn](args)
    except (ser.InputError, PosetError, ComplexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
