"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around each layer's public functions and reports the
per-layer metrics instead.  ``--workload all`` runs every workload in turn,
each in a fresh process, and merges the results under ``<workload>.<metric>``.

Standard output ends with one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it is the full record: workload,
seed, host fingerprint with calibration score, and run notes.  A failed
correctness check prints ``"correct": false`` and exits 1.  Without the
program's sources (``src/repro`` next to this directory) the script prints
no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.resource_tracker
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _load():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        from benchlib import checks, hostinfo, metrics, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    return checks, hostinfo, metrics, workloads


def run_one(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Run workload ``name``; returns the printed result plus the record."""
    checks, hostinfo, metrics, workloads = _load()
    workload = workloads.workloads(small)[name]
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    started = time.time()
    error = None
    try:
        outcome = workload.run(seed, seconds, trace)
    except checks.CheckFailure as exc:
        outcome, error = None, str(exc)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "started": started,
        "host": hostinfo.fingerprint(),
    }
    if outcome is None:
        record["check_failed"] = error
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
        return {"result": result, "record": record}
    samples = outcome.notes.get("latency_samples")
    if samples is not None and not small and samples < 1000:
        # p99 must have at least ten samples beyond it.
        raise SystemExit(f"perfbench: {name} produced only {samples} "
                         "latency samples; at least 1000 are needed")
    tracer = outcome.notes.pop("tracer", None)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
        outcome.notes["spans_written"] = tracer.dump(path)
        outcome.notes["span_file"] = os.path.relpath(path, ROOT)
    record["notes"] = outcome.notes
    result = {"correct": True, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": metrics.emit(outcome.values, units)}
    return {"result": result, "record": record}


def stop_helpers() -> None:
    """Stop and reap multiprocessing's resource-tracker process.

    The columnar workload's shared-memory workers are joined when each
    simulation closes, but creating a shared-memory segment also starts
    the tracker, which otherwise outlives this script by design.  Closing
    its pipe stops it; ``_stop`` waits until it has exited.
    """
    stop = getattr(multiprocessing.resource_tracker._resource_tracker,
                   "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper-serial, overload-causal, columnar-1m, "
                             "udp-loopback, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _, _, _, workloads = _load()
    names = list(workloads.workloads())
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {names} or all")
    if args.workload != "all":
        try:
            out = run_one(args.workload, args.seed, args.seconds,
                          bool(args.trace))
        finally:
            stop_helpers()
        result = out["result"]
        print(json.dumps({"record": out["record"], "result": result}),
              flush=True)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    # Each workload runs in a process of its own, so none inherits another's
    # peak memory (peak_rss_mb is a high-water mark) or heap.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or len(lines) < 2:
            print(f"perfbench: workload {name} exited with code "
                  f"{child.returncode}", file=sys.stderr)
            return child.returncode or 2
        print(lines[-2], flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
