"""Self-test of the benchmark.

For each workload it runs bench.py

* twice traced with one seed: every per-layer count (unit ``count``)
  must repeat exactly;
* twice untraced with the same seed: ``resolved_rows`` must repeat
  exactly;
* once untraced with a second seed: every end-to-end timing must stay
  within its bound of the first seed's median.

Every run must report ``correct``.  Runs measure for BENCHMARK.json's
``run_seconds``, the length its bounds were set for.  Exits 1 if any
check fails.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_A, SEED_B = 101, 202


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    timings = [m for m in spec["end_to_end"] if m["unit"] == "s"]
    failures = 0

    def verdict(workload, name, ok, detail=""):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {workload} {name} {detail}".rstrip(), flush=True)

    for workload in (w["name"] for w in spec["workloads"]):
        traced = [bench(workload, SEED_A, seconds, 1) for _ in range(2)]
        plain = [bench(workload, SEED_A, seconds, 0) for _ in range(2)]
        other = bench(workload, SEED_B, seconds, 0)
        verdict(workload, "correct", all(r["correct"] for r in traced + plain + [other]))
        for name in counts:
            values = [r["metrics"][name]["value"] for r in traced]
            verdict(workload, name, values[0] == values[1], f"{values}")
        values = [r["metrics"]["resolved_rows"]["value"] for r in plain]
        verdict(workload, "resolved_rows", values[0] == values[1], f"{values}")
        for metric in timings:
            name = metric["name"]
            base = statistics.median(r["metrics"][name]["value"] for r in plain)
            value = other["metrics"][name]["value"]
            change = (value - base) / base
            verdict(workload, f"{name} seed {SEED_B} vs {SEED_A}", abs(change) <= metric["bound"],
                    f"{change:+.3f} (bound {metric['bound']})")
    print(f"{failures} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
