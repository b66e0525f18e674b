"""The benchmark's own tests: `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, import_package  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def _synthetic_module():
    mod = types.ModuleType("synthetic")
    exec(
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.02)\n"
        "def outer():\n"
        "    time.sleep(0.01)\n"
        "    inner()\n"
        "    inner()\n"
        "def items():\n"
        "    for _ in range(3):\n"
        "        inner()\n"
        "        yield 1\n",
        mod.__dict__,
    )
    return mod


def test_self_time_is_duration_minus_children():
    mod = _synthetic_module()
    other = types.ModuleType("importer")
    other.inner = mod.inner  # imported by name: must be rebound too
    original = mod.inner
    tracer = Tracer()
    names = tracer.install([mod, other])
    assert names == ["synthetic.inner", "synthetic.outer", "synthetic.items"]
    assert mod.inner is not original and other.inner is mod.inner
    try:
        t0 = time.perf_counter()
        mod.outer()
        other.inner()
        assert sum(mod.items()) == 3
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert tracer.call_counts() == {"synthetic.inner": 6, "synthetic.outer": 1, "synthetic.items": 1}
    spans = list(zip(tracer.span_id, tracer.parent, tracer.name, tracer.start, tracer.end))
    by_id = {s[0]: s for s in spans}
    outer_id = tracer.names.index("synthetic.outer")
    (outer,) = [s for s in spans if s[2] == outer_id]
    children = [s for s in spans if s[1] == outer[0]]
    assert len(children) == 2 and all(by_id[c[1]] is outer for c in children)
    expected_self = (outer[4] - outer[3]) - sum(c[4] - c[3] for c in children)
    self_times = tracer.self_times()
    assert self_times["synthetic.outer"] == pytest.approx(expected_self, abs=1e-12)
    assert 0.009 <= self_times["synthetic.outer"] < 0.02
    assert self_times["synthetic.inner"] >= 6 * 0.02
    # each resumption of the generator is a span whose child is one inner call
    assert 0 <= self_times["synthetic.items"] < 0.01
    assert sum(self_times.values()) <= wall
    assert mod.inner is original and other.inner is original


def test_wrong_pin_fails_the_run(tmp_path):
    good = worker.measure("grid-cli", 0, 0.1, False, "tiny", tmp_path)
    assert all(p["failed"] == 0 for p in good["passes"])
    bad = worker.measure("grid-cli", 0, 0.1, False, "tiny", tmp_path,
                         pins={"grid32.faces": 104})
    assert all(p["failed"] == 1 for p in bad["passes"])
    assert "pinned count grid32.faces" in bad["passes"][0]["errors"][0]


def test_steps_sum_to_the_pass_without_calibration(tmp_path):
    L = import_package(ROOT / "src")
    st = WORKLOADS["reduce-small"](L, 0, "tiny", tmp_path, pins=None).run_pass()
    assert st.failed == 0 and len(st.steps) == st.attempted + 1
    assert sum(st.steps) == pytest.approx(st.pass_s, rel=1e-12)
    assert len(st.latencies) == len(st.certify_each) == len(st.verify_each) == st.attempted
    assert st.calibration and all(c > 0 for c in st.calibration)


def test_times_scale_to_the_reference_speed():
    ref = run.CALIBRATION_REF_S

    def record(slowdown):
        # the same work on a host that runs the calibration kernel
        # `slowdown` times slower than the reference
        k = slowdown ** run.SLOWDOWN_EXPONENT
        return {"medians": {"step": [k * 1.0, k * 2.0],
                            "latency": [k * 0.9, k * 1.9],
                            "certify": [k * 0.5, k * 1.5],
                            "verify": [k * 0.25, k * 0.25]},
                "calibration": [ref * slowdown * f for f in (0.9, 1.0, 1.2)],
                "setup_s": [k * 0.5], "peak_rss_mb": 10.0}

    for slowdowns in ((1.0, 1.0), (1.0, 1.6), (0.7, 1.3)):
        m = {k: v["value"] for k, v in run.end_to_end([record(x) for x in slowdowns]).items()}
        assert m["pass_s"] == pytest.approx(3.0)
        assert m["certify_s"] == pytest.approx(2.0)
        assert m["verify_s"] == pytest.approx(0.5)
        assert m["setup_s"] == pytest.approx(0.5)
        assert m["instance_p50_ms"] == pytest.approx(1400.0)
        assert m["peak_rss_mb"] == 10.0
