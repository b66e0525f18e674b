"""JSON file formats and byte-stable dumping.

Formats (exact field names):
  poset        {"elements": [...], "covers": [["a","b"], ...]}
  map          {"map": {"a": "b", ...}}
  complex      {"facets": [["a","b","c"], ...]}
  witness      {"point": "v"} | {"split": {"v": ..., "link": ..., "deletion": ...}}
  certificate  {"removed": [...], "witnesses": [...]}
  collapse     {"steps": [{"free": [...], "coface": [...]}, ...]}
  homology     {"betti": [...], "reduced_euler": n}
  crapo        {"lhs": n, "rhs": m, "equal": bool, "case": ...}

Every element and vertex label is a JSON string; loaders reject anything
else with InputError.
"""

from __future__ import annotations

import json
from pathlib import Path

from .collapse import CollapseSequence
from .complexes import SimplicialComplex, z2_betti, reduced_euler
from .evasiveness import (
    NECertificate,
    NEClassification,
    PointWitness,
    SplitWitness,
)
from .mobius import CrapoCheck, HallCheck, MobiusTable
from .poset import Poset, PosetMap
from .reduction import ReductionReport


class InputError(ValueError):
    """Malformed input file; the message carries a field/position diagnostic."""


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_json(path) -> object:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
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


def homology_to_data(X: SimplicialComplex) -> dict:
    return {"betti": list(z2_betti(X)), "reduced_euler": reduced_euler(X)}


# -- witnesses and certificates ---------------------------------------------------


def witness_to_data(w) -> dict:
    if isinstance(w, PointWitness):
        return {"point": w.vertex}
    return {
        "split": {
            "v": w.vertex,
            "link": witness_to_data(w.link),
            "deletion": witness_to_data(w.deletion),
        }
    }


def witness_from_data(data, where: str = "witness"):
    if not isinstance(data, dict):
        raise InputError(f"{where}: expected an object")
    if "point" in data:
        return PointWitness(_need(data, "point", str, where))
    if "split" in data:
        node = data["split"]
        v = _need(node, "v", str, where)
        return SplitWitness(
            v,
            witness_from_data(_need(node, "link", dict, where), f"{where}.link"),
            witness_from_data(_need(node, "deletion", dict, where), f"{where}.deletion"),
        )
    raise InputError(f"{where}: expected a 'point' or 'split' node")


def certificate_to_data(cert: NECertificate) -> dict:
    return {
        "removed": list(cert.removed),
        "witnesses": [witness_to_data(w) for w in cert.witnesses],
    }


def certificate_from_data(data, where: str = "certificate") -> NECertificate:
    removed = _labels(_need(data, "removed", list, where), f"{where}: removed")
    wits = _need(data, "witnesses", list, where)
    if len(removed) != len(wits):
        raise InputError(f"{where}: 'removed' and 'witnesses' lengths differ")
    return NECertificate(
        tuple(removed),
        tuple(witness_from_data(w, f"{where}.witnesses[{i}]") for i, w in enumerate(wits)),
    )


def collapse_to_data(seq: CollapseSequence) -> dict:
    return {
        "steps": [
            {"free": sorted(tau), "coface": sorted(sigma)} for tau, sigma in seq.steps
        ]
    }


def collapse_from_data(data, where: str = "collapse") -> CollapseSequence:
    steps = _need(data, "steps", list, where)
    out = []
    for i, step in enumerate(steps):
        at = f"{where}.steps[{i}]"
        tau = _labels(_need(step, "free", list, at), f"{at}: free")
        sigma = _labels(_need(step, "coface", list, at), f"{at}: coface")
        out.append((frozenset(tau), frozenset(sigma)))
    try:
        return CollapseSequence(tuple(out))
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
