"""Regenerate pins.json: the counts of every seeded sample at this commit.

    python3 perfbench/pin.py [WORKLOAD ...]

With workload names, only those entries are rewritten.

Run it only where the package is trusted: the benchmark then fails any
later version whose sampled results differ.  Stops without writing if any
instance fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import PINS_FILE, SAMPLE_SEEDS, WORKLOADS, import_package  # noqa: E402


def main() -> int:
    names = sys.argv[1:] or sorted(n for n, cls in WORKLOADS.items() if cls.sampled_keys)
    L = import_package(HERE.parent / "src")
    workdir = HERE.parent / ".perfbench_out" / "pin"
    pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    try:
        for name in names:
            cls = WORKLOADS[name]
            pins[name] = {}
            for seed in range(SAMPLE_SEEDS):
                st = cls(L, seed, "full", workdir, pins=None).run_pass()
                if st.failed:
                    print(f"{name} seed {seed}: {st.errors}", file=sys.stderr)
                    return 1
                pins[name][str(seed)] = {k: st.counts.get(k, 0) for k in cls.sampled_keys}
                print(name, seed, pins[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
