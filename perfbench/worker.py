"""One workload process: set up, run passes for a time budget, report JSON.

Started by run.py with PYTHONHASHSEED fixed and interpreter defaults; prints
one JSON record as its last stdout line.  With --trace 1 it first runs
untraced passes for half the budget, then installs the span tracer, repeats
the input generation under it, and runs traced passes for the other half.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))

from tracing import Tracer  # noqa: E402
from workloads import LAYER_MODULES, WORKLOADS, clock, import_package  # noqa: E402


# set-up is repeated, within this many seconds and times, for its median
SETUP_BUDGET_S = 1.0
SETUP_MAX = 10

# methods traced besides the public module-level functions
TRACED_METHODS = (
    ("poset", "Poset", "__init__", "poset.Poset"),
    ("poset", "Poset", "induced", "poset.induced"),
    ("poset", "Poset", "maximal_chains", "poset.maximal_chains"),
    ("poset", "Poset", "linear_extension", "poset.linear_extension"),
    ("poset", "PosetMap", "__init__", "poset.PosetMap"),
    ("poset", "PosetMap", "power", "poset.power"),
    ("poset", "PosetMap", "compose", "poset.compose"),
    ("complexes", "SimplicialComplex", "__init__", "complexes.SimplicialComplex"),
    ("complexes", "SimplicialComplex", "faces", "complexes.faces"),
)


def interpreter_state() -> dict:
    return {
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "recursion_limit": sys.getrecursionlimit(),
        "gc_enabled": gc.isenabled(),
        "optimize": sys.flags.optimize,
        "budget_env": os.environ.get("POSET_COLLAPSE_BUDGET"),
    }


def check_defaults(state: dict, hashseed: str) -> None:
    want = {"hashseed": hashseed, "recursion_limit": 1000, "gc_enabled": True,
            "optimize": 0, "budget_env": None}
    if state != want:
        raise SystemExit(f"worker: interpreter state {state} differs from {want}")


def more_passes(elapsed: float, done: int, budget: float) -> bool:
    """Whether to start another pass: yes while it would end before
    `budget` by the mean pass time's half, so that runs overshoot and
    undershoot `budget` about equally."""
    return elapsed + 0.5 * elapsed / done <= budget


def run_passes(w, budget: float) -> list:
    """Whole passes for about `budget` seconds; always at least one."""
    passes = []
    t0 = clock()
    while True:
        passes.append(w.run_pass())
        if not more_passes(clock() - t0, len(passes), budget):
            return passes


def instance_medians(passes) -> dict:
    """Per instance, in instance order, the median over `passes` of its
    step, latency, certify and verify times (see PassStats)."""
    return {key: [statistics.median(xs) for xs in zip(*(getattr(st, attr) for st in passes))]
            for key, attr in (("step", "steps"), ("latency", "latencies"),
                              ("certify", "certify_each"), ("verify", "verify_each"))}


def pass_record(st) -> dict:
    return {
        "pass_s": st.pass_s,
        "certify_s": st.certify_s,
        "verify_s": st.verify_s,
        "attempted": st.attempted,
        "failed": st.failed,
        "counts": dict(st.counts),
        "errors": st.errors,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            workdir: Path, pins="file") -> dict:
    cls = WORKLOADS[workload]
    setup_s = []
    while True:
        # the previous set-up's package and inputs go before the next starts
        L = w = None
        gc.collect()
        t0 = clock()
        L = import_package(SRC)
        w = cls(L, seed, size, workdir, pins)
        setup_s.append(clock() - t0)
        if len(setup_s) == SETUP_MAX or sum(setup_s) + setup_s[-1] > SETUP_BUDGET_S:
            break
    record = {"setup_s": setup_s}
    budget = seconds / 2 if trace else seconds
    passes = run_passes(w, budget)
    record["passes"] = [pass_record(st) for st in passes]
    record["medians"] = instance_medians(passes)
    record["calibration"] = [c for st in passes for c in st.calibration]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        record["trace"] = traced_run(L, cls, seed, size, workdir, pins, budget)
    return record


def traced_run(L, cls, seed, size, workdir, pins, budget) -> dict:
    tracer = Tracer()
    modules = [L.pkg] + [getattr(L, m) for m in LAYER_MODULES]
    methods = [(getattr(L, m), c, a, n) for m, c, a, n in TRACED_METHODS]
    traced_names = tracer.install(modules, methods)
    try:
        w = cls(L, seed, size, workdir, pins)
        phases = [{"phase": "setup", "self": tracer.self_times(), "calls": tracer.call_counts(),
                   "spans": tracer.n_spans()}]
        spans_path = OUT / f"spans-{cls.name}"
        t0 = clock()
        while True:
            tracer.clear()
            st = w.run_pass()
            phases.append({"phase": "pass", **pass_record(st), "self": tracer.self_times(),
                           "calls": tracer.call_counts(), "spans": tracer.n_spans()})
            if not more_passes(clock() - t0, len(phases) - 1, budget):
                break
        # the spans of the last traced pass
        tracer.write(spans_path)
    finally:
        tracer.uninstall()
    return {"traced_names": traced_names, "phases": phases}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--hashseed", required=True)
    args = ap.parse_args(argv)
    state = interpreter_state()
    check_defaults(state, args.hashseed)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["interpreter"] = state
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
