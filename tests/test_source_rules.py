"""Rules on the package source itself."""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import poset_collapse

SRC = Path(poset_collapse.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_assert_statements():
    # `python -O` strips asserts, so no correctness check may rely on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
    assert len(list(SRC.rglob("*.py"))) >= 10


def test_collapse_never_builds_label_face_sets():
    # replay, search, the witness kernel and the NE searches run on the masks a
    # complex stores; none may build its label facet or face sets, or ask
    # `has_face`, which translates labels.  `self.facets` and `store.facets`
    # are a FaceStore's own set of facet masks.
    found = []
    for name in ("collapse.py", "evasiveness.py", "reduction.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            called = node.attr in ("faces", "n_faces", "has_face")
            facets = node.attr == "facets" and getattr(node.value, "id", None) not in ("self", "store")
            if called or facets:
                found.append(f"{name}:{node.lineno} .{node.attr}")
    assert not found, f"label facet or face sets used on masks' paths: {found}"


def test_cli_compiles_collapses_one_way():
    # the CLI writes every compiled collapse from mask pairs; the labelled
    # sequence is for the library and `collapse-search`'s results only
    words = re.findall(r"\w+", (SRC / "cli.py").read_text())
    assert "certificate_to_collapse" not in words
    assert "_compile_masks" in words


def test_witness_nodes_are_classified_by_isinstance():
    # every walk tells a split from a point as the witness kernel does, by
    # isinstance; `w.__class__ is SplitWitness` would part a subclass from its
    # base.  The root check of `SplitWitness.__eq__` compares two classes.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, *pair in zip(node.ops, operands, operands[1:]):
                names = {getattr(e, "attr", getattr(e, "id", None)) for e in pair}
                if isinstance(op, (ast.Is, ast.IsNot)) and "__class__" in names and names & {"SplitWitness", "PointWitness"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"witness nodes classified by their exact class: {found}"


def test_search_steps_make_no_generators():
    # FaceStore's methods, `_link_m` and `_delete_m` run once or more per node
    # of every search; a generator there costs a frame per call and a resume
    # per item, more than the few ints it yields
    scopes = {"collapse.py": ("FaceStore",), "complexes.py": ("_link_m", "_delete_m")}
    found, seen = [], set()
    for name, defs in scopes.items():
        path = SRC / name
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if getattr(node, "name", None) not in defs:
                continue
            seen.add(node.name)
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.GeneratorExp)):
                    found.append(f"{name}:{sub.lineno} {type(sub).__name__}")
    assert seen == {d for defs in scopes.values() for d in defs}
    assert not found, f"generators on the search steps: {found}"


def _perfbench_constant(name, filename):
    # read from the benchmark's source with `ast`, without importing it
    path = PERFBENCH / filename
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} defines no {name}")


def test_benchmark_traced_names_resolve():
    # a traced benchmark run fails on a layer name that no longer exists
    methods = _perfbench_constant("TRACED_METHODS", "worker.py")
    for module, cls_name, attr, _ in methods:
        cls = getattr(importlib.import_module(f"poset_collapse.{module}"), cls_name)
        assert attr in cls.__dict__, f"{module}.{cls_name}.{attr} is gone"
    spans = {span for *_, span in methods}
    for layer in _perfbench_constant("LAYERS", "run.py"):
        if layer in spans:
            continue
        module, name = layer.split(".")
        mod = importlib.import_module(f"poset_collapse.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{layer} is not a function of its module"


def test_benchmark_workload_names_resolve():
    # the workloads reach the package as `L.<module>.<name>`, or through a
    # local alias such as `E = self.L.enumeration`
    path = PERFBENCH / "workloads.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set(_perfbench_constant("LAYER_MODULES", "workloads.py"))
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and v.attr in modules:
                    alias[t.id] = v.attr
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            v = node.value
            if isinstance(v, ast.Attribute) and v.attr in modules:
                used.add((v.attr, node.attr))
            elif isinstance(v, ast.Name) and v.id in alias:
                used.add((alias[v.id], node.attr))
    missing = sorted(f"{m}.{name}" for m, name in used
                     if not hasattr(importlib.import_module(f"poset_collapse.{m}"), name))
    assert len(used) > 20 and not missing, f"names the workloads use are gone: {missing}"


def test_every_definition_is_named_somewhere_else():
    # a function, method or class that no code, test or benchmark names is dead
    roots = (SRC, Path(__file__).resolve().parent, PERFBENCH)
    words = {}  # (path, line number) -> the words on that line
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for no, line in enumerate(path.read_text().splitlines(), 1):
                words[path, no] = re.findall(r"\w+", line)
    count = Counter(w for line in words.values() for w in line)
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if count[name] == words[path, node.lineno].count(name):
                    dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, f"defined but named nowhere else: {dead}"


# Every call cycle within a module of the package, a function that calls
# itself or functions that call each other, with what bounds its depth.  A
# recursion that the input size alone bounds would hit the interpreter's
# limit, so the witness kernel walks explicit stacks and is not listed.
RECURSIVE = {
    ("enumeration.iter_posets",),  # n, the number of elements
    ("evasiveness._decide",),  # at most 512 vertices, the NE searches' cap
    ("evasiveness.search_ne_reduction.dfs",),  # at most 512 vertices, the same cap
}


def _call_graph(tree, module):
    """Each function of the module, by qualified name, with the module's
    functions its own body calls: a bare name means the non-method functions
    of that name, `self.f` the methods f of the caller's class."""
    defs = {}  # qualified name -> (node, class qualified name or None, is a method)

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                defs[name] = (child, cls, isinstance(node, ast.ClassDef))
                visit(child, name, cls)
            else:
                visit(child, prefix, cls)

    visit(tree, module, None)
    graph = {}
    for name, (fn, cls, _) in defs.items():
        callees = set()
        stack = list(fn.body)  # its own body: nested definitions are nodes of their own
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            f = node.func if isinstance(node, ast.Call) else None
            if isinstance(f, ast.Name):
                callees |= {q for q, (g, _, method) in defs.items() if g.name == f.id and not method}
            elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
                callees |= {q for q, (g, c, method) in defs.items() if g.name == f.attr and method and c == cls}
        graph[name] = callees
    return graph


def _cycles(graph):
    """The strongly connected components of `graph` that hold a cycle, each
    as a sorted tuple of its nodes."""
    reach = {}
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(graph[v])
        reach[start] = seen
    return {tuple(sorted(u for u in reach[v] if v in reach[u])) for v in graph if v in reach[v]}


def test_call_cycles_are_on_the_allow_list():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        found |= _cycles(_call_graph(ast.parse(path.read_text(), filename=str(path)), path.stem))
    assert found == RECURSIVE


def test_collapse_replay_translates_no_labels():
    # verify_collapse steps the sequence's mask pairs, re-indexed at most once;
    # neither it nor a function of its module that it reaches turns a label
    # face into a mask or back.  The three forms a collapse step once had are
    # one class, so the wrapper and the labelling helper are gone everywhere.
    path = SRC / "collapse.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    graph = _call_graph(tree, "collapse")
    reached, todo = set(), ["collapse.verify_collapse"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += graph[name]
    assert {"collapse.verify_collapse", "collapse._reindexed"} <= reached
    defs = {f"collapse.{node.name}": node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [f"{name}:{node.lineno} {node.id}" for name in sorted(reached & defs.keys())
             for node in ast.walk(defs[name]) if isinstance(node, ast.Name) and node.id in ("_mask", "_mask_labels")]
    assert not found, f"label translation on the replay path: {found}"
    gone = []
    for path in sorted(SRC.rglob("*.py")):
        words = re.findall(r"\w+", path.read_text())
        gone += [f"{path.name} {w}" for w in ("MaskSteps", "_label_steps") if w in words]
    assert not gone, f"removed collapse-step forms still named: {gone}"
