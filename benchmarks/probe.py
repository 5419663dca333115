"""Child process of bench.py: one measurement in a fresh interpreter.

Modes (each writes one JSON object to ``--result``):

* ``run``: time the set-up (``import gaussmax`` + ``load_config`` +
  ``build_model`` + ``build_set``; only the standard library is imported
  before), then call the cli runners named in ``--command`` (a comma list
  of ``dominate``, ``estimate`` and ``verify`` with ``--workers``):
  verify once and first, the others interleaved until each one's calls
  add up to ``--batch`` seconds, at least once.  Reports the set-up
  time, the median and the total time per call of each command and the
  process's peak RSS.
* ``trace``: two untraced ``verify --workers 1`` (the first warms the
  process up), then install the span tracer and run it again; write the
  spans and the per-layer metrics.

The set-up and every call count as one operation each; one that raises
is recorded with its traceback as a failure, and the result is written
all the same.

bench.py starts this with PYTHONPATH pointing at the checkout's ``src``
and one BLAS thread.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

class Calls:
    """Times calls to the cli runners and keeps the tracebacks of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def time(self, fn, *args) -> float | None:
        """Wall time of ``fn(*args)``, or None if it raised."""
        timed = self.run(fn, *args)
        return None if timed is None else timed[0]

    def run(self, fn, *args) -> tuple[float, object] | None:
        """(wall time, result) of ``fn(*args)``, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = fn(*args)
        except Exception:  # a failed call is reported, and the run goes on
            self.failures.append(traceback.format_exc())
            return None
        return time.perf_counter() - t0, value


def setup(path: str):
    """The set-up a user pays before a command: import, parse, build."""
    import gaussmax

    config = gaussmax.load_config(path)
    config.build_model()
    config.build_set()
    return config


def run_command(args) -> dict:
    calls = Calls()
    timed = calls.run(setup, args.config)
    if timed is None:
        return {"setup_s": None, "per_call_s": None, "peak_rss_mb": None,
                "attempted": calls.attempted, "failures": calls.failures}
    setup_s, config = timed

    from gaussmax import cli

    out = Path(args.out)
    runners = {
        "dominate": lambda: cli.run_dominate(config, args.seed, out),
        "estimate": lambda: cli.run_estimate(config, args.seed, out, False),
        "verify": lambda: cli.run_verify(config, args.seed, out, args.workers),
    }
    times = {command: [] for command in args.command.split(",")}
    # verify runs once and first, so that it is the first command in the
    # process, as for a user of the CLI.  The other commands interleave:
    # the one with the least time so far goes next (ties in the order
    # given), so each sees the same share of the machine's fast and slow
    # phases, until each one's calls add up to the batch.
    if "verify" in times:
        elapsed = calls.time(runners["verify"])
        if elapsed is not None:
            times["verify"].append(elapsed)
    repeated = [c for c in times if c != "verify"]
    while not calls.failures and (
            pending := [c for c in repeated if not times[c] or sum(times[c]) < args.batch]):
        command = min(pending, key=lambda c: sum(times[c]))
        elapsed = calls.time(runners[command])
        if elapsed is not None:
            times[command].append(elapsed)
    # The median keeps a call that a stall of the host stretched (a
    # preempted millisecond call, a slow file write) out of the sample.
    per_call = ({command: statistics.median(values) for command, values in times.items()}
                if not calls.failures and all(times.values()) else None)
    return {
        "setup_s": setup_s,
        "per_call_s": per_call,
        "calls": {command: len(values) for command, values in times.items()},
        "total_s": {command: sum(values) for command, values in times.items()} if per_call else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": calls.attempted,
        "failures": calls.failures,
    }


def run_trace(args) -> dict:
    import tracer

    out = Path(args.out)
    calls = Calls()
    timed = calls.run(setup, args.config)
    if timed is None:
        return {"attempted": calls.attempted, "failures": calls.failures}
    config = timed[1]

    from gaussmax import cli

    # The first verify in a process pays one-time costs (allocator growth,
    # page faults), so the untraced baseline is the second call.
    calls.time(cli.run_verify, config, args.seed, out / "untraced", 1)
    untraced = calls.time(cli.run_verify, config, args.seed, out / "untraced", 1)

    rec = tracer.Tracer()

    def traced_verify() -> float:
        tracer.install(rec)
        config = cli.load_config(args.config)
        t0 = time.perf_counter()
        cli.run_verify(config, args.seed, out / "traced", 1)
        return time.perf_counter() - t0

    timed = calls.run(traced_verify)
    rec.write(out / "spans.json")
    result = {"attempted": calls.attempted, "failures": calls.failures}
    if untraced is None or timed is None:
        return result
    spans = rec.records()
    summary = tracer.summarize(spans)
    load_config_s = tracer.summarize(spans, root="config.load_config")["root_s"]
    result["rung_s"] = summary["rung_s"]
    result["metrics"] = tracer.layer_metrics(summary, load_config_s, timed[1] - untraced)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "trace"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--command", default="verify",
                        help="comma list of dominate, estimate and verify")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--batch", type=float, default=0.0)
    args = parser.parse_args()
    result = run_trace(args) if args.mode == "trace" else run_command(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
