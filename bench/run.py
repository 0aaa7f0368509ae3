"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
src/, nothing is installed. Each run starts fresh interpreters (never a
pool): SETUP_ONLY of them only set up, to measure set-up time, and one
more sets up and then measures. With --trace 0 the last line carries
the end-to-end metrics, with --trace 1 the per-layer ones, by the names
and units BENCHMARK.json declares. --tiny shrinks every input, for the
benchmark's self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_ONLY = 6
CHILD_TIMEOUT_S = 150


def child(args, env, extra) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its last line."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quartets" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'quartets'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.pop("QUARTETS_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up is timed with cached bytecode
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_out" / "pycache")
    tiny = ["--tiny"] if args.tiny else []

    if args.trace:
        run = child(args, env, tiny)
        values = run["metrics"]
        declared = spec["per_layer"]
    else:
        # the first start compiles bytecode into the cache; it is not a sample
        child(args, env, ["--setup-only", *tiny])
        setups = [child(args, env, ["--setup-only", *tiny])["setup_s"]
                  for _ in range(SETUP_ONLY)]
        run = child(args, env, tiny)
        setups.append(run["setup_s"])
        print(f"{args.workload}: {run['op_samples']} op latency samples, "
              f"{len(setups)} set-up samples")
        values = dict(run["metrics"], setup_s=statistics.median(setups))
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
