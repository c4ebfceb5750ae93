"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Times set-up in SETUP_SAMPLES fresh interpreters, then starts one fresh
measuring process (worker.py) and relays its output: a detail line with
the fingerprint and every op's outcome, then, as the last line, the result
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  Exits
non-zero without a result when the package source is missing or the
measuring process fails.  See NOTES.md for the workloads and metrics.

This process imports neither the package nor numpy.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0


def _probe(workload, seed, timeout):
    """Seconds from starting a fresh interpreter until it is ready."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aahpump benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aahpump" / "cli.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_LIMIT_S
    try:
        setup = [_probe(args.workload, args.seed, 60)
                 for _ in range(SETUP_SAMPLES)]
        proc = subprocess.run(
            [sys.executable, str(WORKER), "measure",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--setup", ",".join(repr(s) for s in setup)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: measuring process exited {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    print(f"perfbench: setup_s median {median(setup):.3f} s "
          f"over {len(setup)} fresh interpreters", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
