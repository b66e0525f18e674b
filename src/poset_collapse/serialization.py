"""JSON file formats and byte-stable dumping.

Formats (exact field names):
  poset        {"elements": [...], "covers": [["a","b"], ...]}
  map          {"map": {"a": "b", ...}}
  complex      {"facets": [["a","b","c"], ...]}
  witness      {"format": "nodes", "nodes": [...], "root": i}
  certificate  {"format": "nodes", "nodes": [...], "removed": [...], "witnesses": [i, ...]}
  collapse     {"steps": [{"free": [...], "coface": [...]}, ...]}
  crapo        {"lhs": n, "rhs": m, "equal": bool, "case": ...}

Witnesses are written as one node table: each row of "nodes" is ["v"], the
point v, or ["v", link, deletion], a split at v whose link and deletion are
the rows at those indices.  Rows are listed children first, so every index
points below its own row, and "root" and "witnesses" index rows too.  The
writer lists the witnesses' node table, `evasiveness._rows`, which keeps one
row per distinct (v, link, deletion), so equal witnesses write the same bytes
however their subtrees were shared, and the reader builds the rows in one
forward pass, so a loaded witness shares every repeated subtree.  A witness or certificate without a "format" field is read
in the nested form written before the table existed, where a witness is
{"point": "v"} | {"split": {"v": ..., "link": ..., "deletion": ...}} and a
certificate is {"removed": [...], "witnesses": [nested witness, ...]}; any
other "format" is an input error.

Every element and vertex label is a JSON string; loaders reject anything
else with InputError.  A repeated label in a poset's "elements" is an
InputError that names it; one inside a face (a facet, a collapse step's
"free" or "coface") is read as a set.  A collapse is decoded straight to
mask pairs over the sorted union of its step labels, with no label set or
position string built unless the data is malformed; an empty "free" face
reads, and replay rejects it.

Output contract of `dumps`: the bytes of
`json.dumps(data, indent=2, sort_keys=True)` plus a trailing newline, that
is a 2-space indent, keys sorted, every string `ensure_ascii`-escaped.  It
accepts dicts with `str` keys, lists, tuples, strs, ints, bools and None, and
raises TypeError on anything else, floats included: no output of the CLI
holds a float or a non-`str` key.  It also accepts a `CollapseSequence`
node with string labels, and writes it from its mask pairs in the same
bytes as the list of steps of `collapse_to_data`, without building that
list.  `write_json` streams the same text to a file, chunk by chunk.  It
walks the data on an explicit stack, so no nesting depth hits the recursion
limit.  Witnesses are converted to and from data on explicit stacks too.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .collapse import CollapseSequence
from .complexes import SimplicialComplex, _mask
from .evasiveness import (
    NECertificate,
    NEClassification,
    PointWitness,
    SplitWitness,
    _rows,
)
from .mobius import CrapoCheck, HallCheck, MobiusTable
from .poset import Poset, PosetMap
from .reduction import ReductionReport


class InputError(ValueError):
    """Malformed input file; the message carries a field/position diagnostic."""


_END = object()


def _step_chunks(seq: CollapseSequence, pad: str):
    # the text of `collapse_to_data(seq)["steps"]`, from seq's mask pairs,
    # where `pad` is a newline and its indent
    if not seq._pairs:
        yield "[]"
        return
    p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
    enc = [_encode_str(v) for v in seq.vertices]
    face_sep = "," + p3
    # one step, from the joined coface and free face labels
    template = f'{{{p2}"coface": [{p3}%s{p2}],{p2}"free": [{p3}%s{p2}]{p1}}}'
    no_free = f'{{{p2}"coface": [{p3}%s{p2}],{p2}"free": []{p1}}}'  # an empty free face
    sep, item_sep = "[" + p1, "," + p1
    for t, s in seq._pairs:
        names = []
        m = s
        while m:
            low = m & -m
            names.append(enc[low.bit_length() - 1])
            m ^= low
        coface = face_sep.join(names)
        del names[(s & ((s ^ t) - 1)).bit_count()]  # the vertex the free face lacks
        yield sep + (template % (coface, face_sep.join(names)) if t else no_free % coface)
        sep = item_sep
    yield pad + "]"


def dumps(data) -> str:
    """`json.dumps(data, indent=2, sort_keys=True) + "\\n"`, byte for byte."""
    return "".join(_chunks(data))


def write_json(data, fh) -> None:
    """Write the text of `dumps(data)` to the text file `fh`, a chunk at a time."""
    fh.writelines(_chunks(data))


def _chunks(data):
    # The text of dumps(data) in order.  The stdlib's `indent` output runs
    # its pure-Python encoder; this writes the same text with the C string
    # encoder and joins each list of strings (faces, labels) in one call.  A
    # container met again inside itself raises ValueError; a float, a
    # non-`str` key or any other type raises TypeError.
    pads = ["\n"]  # pads[d]: a newline and the indent of depth d
    seps = [",\n"]  # seps[d]: the separator between items at depth d
    stack = []  # open containers: (items iterator, is dict, separator, closer, id)
    open_ids = set()
    value = data
    while True:
        if isinstance(value, str):
            yield _encode_str(value)
        elif value is None:
            yield "null"
        elif value is True:
            yield "true"
        elif value is False:
            yield "false"
        elif isinstance(value, int):
            yield int.__repr__(value)
        elif isinstance(value, CollapseSequence):
            yield from _step_chunks(value, pads[len(stack)])
        elif isinstance(value, (list, tuple, dict)):
            if not value:
                yield "{}" if isinstance(value, dict) else "[]"
            else:
                depth = len(stack)
                if len(pads) == depth + 1:
                    pads.append(pads[depth] + "  ")
                    seps.append(seps[depth] + "  ")
                inner, sep, outer = pads[depth + 1], seps[depth + 1], pads[depth]
                head = None
                is_dict = isinstance(value, dict)
                if is_dict:
                    items = iter(sorted(value.items()))
                    k, child = next(items)
                    head, closer = "{" + inner + _encode_str(k) + ": ", outer + "}"
                else:
                    try:
                        yield "[" + inner + sep.join(map(_encode_str, value)) + outer + "]"
                    except TypeError:  # not only strings: open the list below
                        items = iter(value)
                        child = next(items)
                        head, closer = "[" + inner, outer + "]"
                if head is not None:
                    key = id(value)
                    if key in open_ids:
                        raise ValueError("Circular reference detected")
                    open_ids.add(key)
                    yield head
                    stack.append((items, is_dict, sep, closer, key))
                    value = child
                    continue
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        # close finished containers up to the next item
        while stack:
            items, is_dict, sep, closer, key = stack[-1]
            item = next(items, _END)
            if item is _END:
                stack.pop()
                open_ids.discard(key)
                yield closer
            elif is_dict:
                k, value = item
                yield sep + _encode_str(k) + ": "
                break
            else:
                value = item
                yield sep
                break
        else:
            yield "\n"
            return


def load_json(path) -> object:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: byte {e.start}: {e.reason}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError as e:
        # an integer past the interpreter's limit on digits for int(str)
        raise InputError(f"{path}: {e}") from None
    except RecursionError:
        # the stdlib decoder recurses once per nesting level
        raise InputError(f"{path}: JSON nested too deeply to decode") from None


def _need(data, field, kind, where):
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object, got {type(data).__name__}")
    if field not in data:
        raise InputError(f"{where}: missing field {field!r}")
    value = data[field]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{where}: field {field!r} has the wrong type")
    return value


def _labels(values, where):
    # vertex and element labels are strings; anything else is malformed input
    for j, v in enumerate(values):
        if not isinstance(v, str):
            raise InputError(f"{where}[{j}]: labels must be strings, got {type(v).__name__}")
    return values


# -- posets and maps -----------------------------------------------------------


def poset_to_data(P: Poset) -> dict:
    return {
        "elements": list(P.elements),
        "covers": sorted([a, b] for a, b in P.cover_pairs()),
    }


def poset_from_data(data, where: str = "poset") -> Poset:
    elements = _labels(_need(data, "elements", list, where), f"{where}: elements")
    if len(set(elements)) != len(elements):
        j = next(j for j, e in enumerate(elements) if e in elements[:j])
        raise InputError(f"{where}: elements[{j}]: repeated label {elements[j]!r}")
    covers = _need(data, "covers", list, where)
    pairs = []
    for i, pair in enumerate(covers):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InputError(f"{where}: covers[{i}] must be a two-element list")
        pairs.append(tuple(_labels(pair, f"{where}: covers[{i}]")))
    return Poset(elements, pairs)


def map_to_data(phi: PosetMap) -> dict:
    return {"map": dict(sorted(phi.table.items()))}


def map_from_data(data, P: Poset, where: str = "map") -> PosetMap:
    table = _need(data, "map", dict, where)
    for k, v in table.items():
        if not isinstance(v, str):
            raise InputError(f"{where}: map[{k!r}] must be a string label, got {type(v).__name__}")
    return PosetMap(P, table)


# -- complexes -----------------------------------------------------------------


def complex_to_data(X: SimplicialComplex) -> dict:
    return {"facets": sorted(sorted(f) for f in X.facets)}


def complex_from_data(data, where: str = "complex") -> SimplicialComplex:
    facets = _need(data, "facets", list, where)
    for i, f in enumerate(facets):
        if not isinstance(f, list) or not f:
            raise InputError(f"{where}: facets[{i}] must be a nonempty list")
        _labels(f, f"{where}: facets[{i}]")
    return SimplicialComplex(facets)


# -- witnesses and certificates ---------------------------------------------------


def _table(data: dict, where: str) -> list:
    # the witnesses of a node table, decoded in one forward pass; every index
    # points below its own row, so a shared row comes back as one object
    if data["format"] != "nodes":
        raise InputError(f"{where}: unknown format {data['format']!r}")
    nodes: list = []
    for i, row in enumerate(_need(data, "nodes", list, where)):
        at = f"{where}.nodes[{i}]"
        if not isinstance(row, list) or len(row) not in (1, 3):
            raise InputError(f"{at}: expected [v] or [v, link, deletion]")
        _labels(row[:1], at)
        if len(row) == 1:
            nodes.append(PointWitness(row[0]))
        else:
            nodes.append(SplitWitness(row[0], _node(nodes, row[1], at), _node(nodes, row[2], at)))
    return nodes


def _node(nodes: list, i, where: str):
    if type(i) is not int or not 0 <= i < len(nodes):
        raise InputError(f"{where}: expected a node index below {len(nodes)}, got {i!r}")
    return nodes[i]


def witness_to_data(w) -> dict:
    rows, (root,) = _rows((w,))
    return {"format": "nodes", "nodes": [list(row) for row in rows], "root": root}


def witness_from_data(data, where: str = "witness"):
    if isinstance(data, dict) and "format" in data:
        return _node(_table(data, where), _need(data, "root", None, where), f"{where}.root")
    return _nested_witness(data, where)


_NO_DELETION = object()


def _nested_witness(data, where: str):
    # An explicit stack, so a witness of any depth decodes.  Entries are
    # (node, step, None) to decode a node, (None, step, v) for a split
    # waiting on its link and deletion, and (split, "", _NO_DELETION) for a
    # split whose deletion is missing.  Nodes are checked in recursive order
    # (v, link subtree, then deletion), so a malformed file reports the same
    # first error; the path in it is rendered from the waiting splits.
    todo = [(data, "", None)]
    done = []  # decoded subtrees, the latest last

    def at(step):
        return where + "".join(s for _, s, v in todo if isinstance(v, str)) + step

    while todo:
        data, step, v = todo.pop()
        if v is not None:
            if v is _NO_DELETION:
                _need(data, "deletion", dict, at(""))  # raises
            deletion = done.pop()
            done[-1] = SplitWitness(v, done[-1], deletion)
            continue
        if not isinstance(data, dict):
            raise InputError(f"{at(step)}: expected an object")
        if "point" in data:
            v = data["point"]
            if not isinstance(v, str):
                _need(data, "point", str, at(step))  # raises
            done.append(PointWitness(v))
        elif "split" in data:
            node = data["split"]
            if not (
                isinstance(node, dict)
                and isinstance(node.get("v"), str)
                and isinstance(node.get("link"), dict)
            ):
                _need(node, "v", str, at(step))  # one of the two raises
                _need(node, "link", dict, at(step))
            todo.append((None, step, node["v"]))
            deletion = node.get("deletion")
            if isinstance(deletion, dict):
                todo.append((deletion, ".deletion", None))
            else:  # reported after the link subtree, as the recursion did
                todo.append((node, "", _NO_DELETION))
            todo.append((node["link"], ".link", None))
        else:
            raise InputError(f"{at(step)}: expected a 'point' or 'split' node")
    return done[0]


def certificate_to_data(cert: NECertificate) -> dict:
    rows, roots = _rows(cert.witnesses)
    nodes = [list(row) for row in rows]
    return {"format": "nodes", "nodes": nodes, "removed": list(cert.removed), "witnesses": roots}


def certificate_from_data(data, where: str = "certificate") -> NECertificate:
    removed = _labels(_need(data, "removed", list, where), f"{where}: removed")
    wits = _need(data, "witnesses", list, where)
    if len(removed) != len(wits):
        raise InputError(f"{where}: 'removed' and 'witnesses' lengths differ")
    if "format" in data:
        nodes = _table(data, where)
        wits = [_node(nodes, i, f"{where}.witnesses[{j}]") for j, i in enumerate(wits)]
    else:
        wits = [_nested_witness(w, f"{where}.witnesses[{j}]") for j, w in enumerate(wits)]
    return NECertificate(tuple(removed), tuple(wits))


def collapse_to_data(seq: CollapseSequence) -> dict:
    return {
        "steps": [
            {"free": sorted(tau), "coface": sorted(sigma)} for tau, sigma in seq.steps
        ]
    }


def collapse_from_data(data, where: str = "collapse") -> CollapseSequence:
    steps = _need(data, "steps", list, where)
    try:  # every field and label at once; on a fault, or an empty free face, the walk below
        names: set = set()
        for step in steps:
            free, coface = step["free"], step["coface"]
            if not (isinstance(step, dict) and isinstance(free, list) and isinstance(coface, list)):
                raise TypeError
            names.update(free, coface)
        if not all(isinstance(v, str) for v in names):
            raise TypeError
        bits = {v: 1 << i for i, v in enumerate(sorted(names))}
        pairs = [(_mask(step["free"], bits), _mask(step["coface"], bits)) for step in steps]
        return CollapseSequence._from_masks(tuple(bits), pairs)
    except (TypeError, KeyError, ValueError):
        pass
    out = []  # step by step, so the first fault is reported where the walk meets it
    for i, step in enumerate(steps):
        at = f"{where}.steps[{i}]"
        tau = _labels(_need(step, "free", list, at), f"{at}: free")
        sigma = _labels(_need(step, "coface", list, at), f"{at}: coface")
        out.append((frozenset(tau), frozenset(sigma)))
    try:
        return CollapseSequence(out)
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


# -- reports -------------------------------------------------------------------


def reduction_report_to_data(report: ReductionReport) -> dict:
    data = {
        "gamma": map_to_data(report.gamma),
        "removal_order": list(report.removal_order),
        "certificate": certificate_to_data(report.certificate),
    }
    if report.collapse is not None:
        data["collapse"] = collapse_to_data(report.collapse)
    return data


def hall_to_data(check: HallCheck) -> dict:
    return {"mu": check.mu, "reduced_euler": check.reduced_euler, "equal": check.equal}


def crapo_to_data(check: CrapoCheck) -> dict:
    return {"lhs": check.lhs, "rhs": check.rhs, "equal": check.equal, "case": check.case}


def mobius_to_data(table: MobiusTable) -> dict:
    return {
        "values": [
            {"x": x, "y": y, "mu": v}
            for (x, y), v in sorted(table.values.items())
        ]
    }


def classification_to_data(c: NEClassification) -> dict:
    return {
        "classes": [list(cls) for cls in c.classes],
        "undecided": [list(p) for p in c.undecided],
        "provably_distinct": [list(p) for p in c.provably_distinct],
    }
