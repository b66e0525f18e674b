"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh single-threaded worker processes, one after the
other, each with its own fixed PYTHONHASHSEED and otherwise default
interpreter settings, and prints one JSON result as the last stdout line
(the line before it carries the details: hash seeds, sample counts, pins,
failures).  With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SAMPLE_SEEDS, WORKLOADS  # noqa: E402

# untraced runs split their time over this many worker processes, each with
# its own fixed hash seed: set iteration order moves a grid's time by up to
# half between hash seeds, so the hash seeds do not vary with --seed
WORKERS = 2
DEADLINE_S = 170

# end-to-end times are given at the host speed at which one calibration run
# (workloads.calibration_run) takes this long; see speed_factor
CALIBRATION_REF_S = 0.007
# the package's code slows down by about this power of the calibration
# kernel's slowdown: the log-log slope of its times against the kernel's,
# interleaved over minutes, was 0.76 to 0.86 (see README.md)
SLOWDOWN_EXPONENT = 0.8

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "instance_p50_ms": "ms",
    "instance_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "poset.Poset",
    "poset.PosetMap",
    "poset.induced",
    "poset.maximal_chains",
    "poset.linear_extension",
    "poset.power",
    "poset.compose",
    "poset.stabilize",
    "complexes.SimplicialComplex",
    "complexes.faces",
    "complexes.link",
    "complexes.delete_vertex",
    "complexes.order_complex",
    "complexes.induced_subcomplex",
    "complexes.reduced_euler",
    "evasiveness.is_nonevasive",
    "evasiveness.verify_witness",
    "evasiveness.search_ne_reduction",
    "evasiveness.verify_ne_certificate",
    "evasiveness.cone_witness",
    "evasiveness.join_witness",
    "collapse.verify_collapse",
    "collapse.apply_collapse",
    "collapse.certificate_to_collapse",
    "collapse.search_collapse",
    "collapse.free_pairs",
    "reduction.theorem_reduce",
    "reduction.interval_witness",
    "mobius.mobius_table",
    "mobius.crapo_check",
    "mobius.hall_check",
    "enumeration.iter_posets",
    "enumeration.monotone_tables",
    "enumeration.increasing_tables",
    "enumeration.iter_antichain_complexes",
    "enumeration.complex_from_masks",
    "serialization.dumps",
    "serialization.load_json",
    "serialization.certificate_from_data",
    "serialization.collapse_from_data",
    "serialization.witness_from_data",
    "serialization.reduction_report_to_data",
    "cli.main",
)

WORK_COUNTS = ("collapse.steps", "complexes.faces_source", "serialization.bytes_out")


def per_layer_units() -> dict:
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in WORK_COUNTS + ("evasiveness.witness_nodes", "trace.spans"):
        units[name] = "count"
    units["trace.overhead"] = "x"
    return units


def hashseed(index: int) -> str:
    digest = hashlib.sha256(f"perfbench/{index}".encode()).digest()
    return str(int.from_bytes(digest[:4], "little"))


def worker_env(seed_value: str) -> dict:
    # interpreter defaults: no PYTHON* overrides (optimisation, recursion,
    # malloc, dev mode ...) and no search budget from the environment
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "POSET_COLLAPSE_BUDGET"}
    env["PYTHONHASHSEED"] = seed_value
    return env


def run_worker(args, index: int, seconds: float, deadline: float) -> dict:
    seed_value = hashseed(index)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--size", args.size, "--hashseed", seed_value]
    proc = subprocess.run(cmd, env=worker_env(seed_value), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {index} printed no record")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (0 <= q <= 1) of a nonempty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def speed_factor(record) -> float:
    """What scales a worker's times to the reference host speed: the shared
    host runs the same code up to 1.6 times slower for minutes at a time,
    and the calibration runs interleaved with the worker's passes slow down
    with it, by about the 1/SLOWDOWN_EXPONENT power of the package's
    slowdown."""
    return (CALIBRATION_REF_S / statistics.median(record["calibration"])) ** SLOWDOWN_EXPONENT


def instance_medians(records) -> dict:
    """Per instance, the median over the workers of each worker's median
    over its untraced passes, scaled to the reference speed."""
    sizes = {len(r["medians"]["step"]) for r in records}
    if len(sizes) != 1:
        raise RuntimeError(f"workers ran different instance lists: {sorted(sizes)} steps")
    scaled = [{key: [x * speed_factor(r) for x in xs] for key, xs in r["medians"].items()}
              for r in records]
    return {key: [statistics.median(xs) for xs in zip(*(m[key] for m in scaled))]
            for key in scaled[0]}


def end_to_end(records) -> dict:
    med = instance_medians(records)
    values = {
        "setup_s": statistics.median(s * speed_factor(r) for r in records for s in r["setup_s"]),
        "pass_s": sum(med["step"]),
        "certify_s": sum(med["certify"]),
        "verify_s": sum(med["verify"]),
        "instance_p50_ms": quantile(med["latency"], 0.50) * 1000,
        "instance_p99_ms": quantile(med["latency"], 0.99) * 1000,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(record) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced worker: each layer's values cover the
    traced input generation plus one traced pass (the median for times)."""
    trace = record["trace"]
    missing = [n for n in LAYERS if n not in trace["traced_names"]]
    if missing:
        raise RuntimeError(f"layers not traced: {missing}")
    setup, passes = trace["phases"][0], trace["phases"][1:]
    last = passes[-1]
    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = setup["calls"].get(name, 0) + last["calls"].get(name, 0)
        values[f"{name}.self_s"] = setup["self"].get(name, 0.0) + statistics.median(
            p["self"].get(name, 0.0) for p in passes)
    for name in WORK_COUNTS:
        values[name] = last["counts"].get(name, 0)
    values["evasiveness.witness_nodes"] = last["calls"].get("evasiveness.verify_witness", 0)
    values["trace.spans"] = last["spans"]
    traced_pass = statistics.median(p["pass_s"] for p in passes)
    untraced_pass = statistics.median(p["pass_s"] for p in record["passes"])
    values["trace.overhead"] = traced_pass / untraced_pass
    problems = []
    for p in passes:
        self_total = sum(p["self"].values())
        if self_total > p["pass_s"]:
            problems.append(f"summed self time {self_total} exceeds traced pass {p['pass_s']}")
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few instances per workload, for smoke tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    workers = 1 if args.trace else WORKERS
    try:
        records = [run_worker(args, i, args.seconds / workers, deadline)
                   for i in range(workers)]
        passes = [p for r in records for p in r["passes"]]
        trace_problems = []
        if args.trace:
            metrics, trace_problems = per_layer(records[0])
            passes += records[0]["trace"]["phases"][1:]
        else:
            metrics = end_to_end(records)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(trace_problems)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "sample_seed": args.seed % SAMPLE_SEEDS,
        "workers": [{k: r[k] for k in ("interpreter", "setup_s", "peak_rss_mb")}
                    | {"pass_s": [p["pass_s"] for p in r["passes"]],
                       "calibration_s": statistics.median(r["calibration"])} for r in records],
        "instances_per_pass": passes[0]["attempted"],
        "failed_fraction": failed / attempted,
        "counts": passes[0]["counts"],
        "problems": (trace_problems + [e for p in passes for e in p["errors"]])[:10],
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
