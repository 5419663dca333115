"""gaussmax benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --workload block-crude --seed 1 --seconds 42 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:
set-up time (median over fresh interpreters), the wall time per call
of the cli runners for ``dominate``, ``estimate``, ``verify --workers
1`` and ``verify --workers 2`` (mean over the run's interpreters of
each one's median, weighted by its number of calls), the largest peak
RSS of the single-worker processes, and the number of resolved verify
rows.  With ``--trace 1`` it prints the per-layer metrics from a traced
``verify --workers 1``.  The seed is passed to gaussmax as ``--seed``.
Every run checks the outputs (see checks.py) and counts each command
and each check as one operation.

The last line of standard output is the result object; an earlier line
holds the environment.  Artifacts go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"

# Workload -> the verify methods whose rows must carry an answer at every
# rung: exact formulas, or IS whose relative standard error is about 0.5%.
ANSWERED = {
    "block-crude": ("exact_block_diagonal", "union_combined"),
    "polyhedron-is": ("union_combined",),
    "mixture-ellipsoid": (),
}
# The kinds of interpreter of an untraced run.  Each starts fresh, times
# its set-up, calls verify once (if listed) and then interleaves the
# other commands until each one's calls add up to `batch` seconds (at
# least one call); the sample of a command is its median time per call
# in that interpreter.  Every verify call is thus the first command in
# its process, as it is for a user of the CLI.
# Each kind runs once, in this order.  After that, of the kinds that
# still end within the run at their median duration so far, the one
# with the least command time per share goes next.  So the three kinds
# get the run's time in the ratio 1 : 1.5 : 1 on every workload, whether
# estimate takes 3 ms (block-crude) or 9 s (mixture-ellipsoid).  The
# short commands get the larger share because interpreter-bound code
# feels the machine's changes of speed most.  The machine runs in fast
# and slow phases of a few seconds (mixture-ellipsoid dominate took 15
# and 23 ms per call in one process), so dominate is timed in every
# interpreter, for at least a second.
KINDS = (
    # directory, (metric, command) pairs, workers, batch seconds, share
    ("verify", (("verify_s", "verify"), ("dominate_s", "dominate")), 1, 1.0, 1.0),
    ("calls", (("estimate_s", "estimate"), ("dominate_s", "dominate")), 1, 1.5, 1.5),
    ("verify_w2", (("verify_w2_s", "verify"), ("dominate_s", "dominate")), 2, 1.0, 1.0),
)
CHILD_TIMEOUT_S = 150
# One BLAS thread per process: verify --workers 2 then uses at most two
# cores' worth of threads, which is nproc on the reference machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def git_commit() -> str | None:
    """Commit of the checkout, or None outside a git repository."""
    # The ceiling keeps git from taking up a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaussmax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def child(mode: str, config: Path, result: Path, **options) -> dict:
    """Run probe.py in a fresh interpreter and return its result object.

    A child that fails, hangs or writes no result counts as one failed
    operation.
    """
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "probe.py"), mode, "--config", str(config), "--result", str(result)]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        return json.loads(result.read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        text = f"{' '.join(cmd)}: {exc!r}\n{stderr.decode(errors='replace')[-4000:]}"
        return {"attempted": 1, "failures": [text], "setup_s": None, "per_call_s": None}


def guarded(name: str, check, *args) -> list[tuple]:
    """Run one check function; an exception in it is one failed check."""
    try:
        return check(*args)
    except Exception:  # a check that cannot run has not passed
        return [(name, False, traceback.format_exc())]


def run_e2e(workload: str, config: Path, run_dir: Path, seed: int, seconds: float):
    import checks

    out = run_dir / "e2e"
    samples = {key: [] for _, pairs, *_ in KINDS for key, _ in pairs}
    measured = [0.0] * len(KINDS)
    durations = [[] for _ in KINDS]
    setups, rss, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    for i in itertools.count():
        if failures:
            break
        if i < len(KINDS):
            k = i
        else:
            left = seconds - (time.perf_counter() - start)
            fits = [j for j in range(len(KINDS)) if statistics.median(durations[j]) <= left]
            if not fits:
                break
            k = min(fits, key=lambda j: measured[j] / KINDS[j][4])
        name, pairs, workers, batch, _ = KINDS[k]
        t0 = time.perf_counter()
        run = child("run", config, run_dir / f"entry{i}.json", out=out / name, seed=seed,
                    command=",".join(command for _, command in pairs), workers=workers, batch=batch)
        durations[k].append(time.perf_counter() - t0)
        attempted += run["attempted"]
        failures += run["failures"]
        if run["setup_s"] is not None:
            setups.append(run["setup_s"])
        if run["per_call_s"] is not None:
            for key, command in pairs:
                samples[key].append((run["per_call_s"][command], run["calls"][command]))
            measured[k] += sum(run["total_s"].values())
            if workers == 1:
                rss.append(run["peak_rss_mb"])
    if failures:
        return {}, attempted, failures, [], {}

    try:
        spec = checks.load_spec(config)
        rows = checks.read_rows(out / "verify" / "verify_ladder.csv")
        resolved = checks.resolved_rows(out / "verify")
    except Exception:  # outputs that cannot be read are one more failure
        return {}, attempted + 1, [traceback.format_exc()], [], {}
    results = guarded("workers", checks.same_outputs, out / "verify", out / "verify_w2", "workers", (1, 2))
    results += guarded("answered", checks.answered_rows, spec, rows, ANSWERED[workload])
    if workload == "block-crude":
        results += guarded("exact", checks.exact_block_rows, spec, rows)
    else:
        results += guarded("dominate", checks.dominating_points, spec, out / "calls" / "dominate.json")
    # A run has a few samples of a command, and on a machine with fast
    # and slow phases they fall into two groups; their median jumps
    # between the groups from run to run, while their mean follows the
    # share of slow time.  A sample counts by its number of calls, so a
    # short batch of dominate weighs less than a long one.  Set-up keeps
    # the median: its first sample in a fresh checkout also compiles the
    # bytecode.
    metrics = {key: statistics.fmean(*zip(*values)) for key, values in samples.items()}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(rss)
    metrics["resolved_rows"] = resolved
    detail = {"durations": durations, "samples": samples, "measured_s": measured,
              "setup_s": setups, "rss_mb": rss}
    return metrics, attempted, [], results, detail


def run_trace(config: Path, run_dir: Path, seed: int):
    import checks

    out = run_dir / "trace"
    trace = child("trace", config, run_dir / "trace.json", seed=seed, out=out)
    if trace["failures"]:
        return {}, trace["attempted"], trace["failures"], [], {}
    results = guarded("trace", checks.same_outputs, out / "untraced", out / "traced", "trace")
    return trace["metrics"], trace["attempted"], [], results, {"rung_s": trace["rung_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gaussmax benchmark workload.")
    parser.add_argument("--workload", required=True, choices=list(ANSWERED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gaussmax" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no gaussmax source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    # Before numpy is first imported (by environment() and checks.py).
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    config = HERE / "configs" / f"{args.workload}.yaml"
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    print(json.dumps({"environment": env}), flush=True)

    if args.trace:
        metrics, attempted, failures, results, detail = run_trace(config, run_dir, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failures, results, detail = run_e2e(
            args.workload, config, run_dir, args.seed, args.seconds
        )
        wanted = spec["end_to_end"]
    failed_checks = [(name, info) for name, ok, info in results if not ok]
    for text in failures:
        print(text, file=sys.stderr)
    for name, info in failed_checks:
        print(f"check failed: {name} {info}", file=sys.stderr)
    failed = len(failures) + len(failed_checks)
    result = {
        "correct": failed == 0,
        "attempted": attempted + len(results),
        "failed": failed,
        # A metric is missing only after a failed command; it then reads 0.
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0) if failures else metrics[m["name"]],
                        "unit": m["unit"]}
            for m in wanted
        },
    }
    record = dict(result, environment=env, detail=detail, checks=[[n, ok, i] for n, ok, i in results])
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
