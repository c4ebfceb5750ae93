"""The benchmark's measuring process; run.py starts it in a fresh interpreter.

    python3 perfbench/worker.py probe --workload W --seed N
        imports the package, builds the first op's config, prints "ready"
        and exits; run.py times it as one set-up sample.
    python3 perfbench/worker.py measure --workload W --seed N --seconds S
            --trace 0|1 --setup T1,T2,...
        runs passes over the workload's ops until S seconds have passed,
        timing the workload's calibration kernel (calibrate.py) in the
        same process before the first pass and after every pass, and
        prints a detail line and then the result line.

A traced run alternates untraced and traced passes (at least one of
each): the untraced ones give the op times and the tracing overhead, the
traced ones the per-layer numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

from calibrate import Calibration
from tracer import LAYERS, Tracer, summarize, write_spans
from workloads import LEAKAGE_GATE, NORM_DRIFT_GATE, STAGES, WORKLOADS, \
    pass_orders, verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

OUTCOMES = {0: "ok", 2: "config_error", 3: "numerical_failure",
            4: "check_mismatch"}

END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> span names whose summed duration it reports
SPAN_TIMES = {
    "ioutil.write_csv_s": ("ioutil.write_csv",),
    "ioutil.write_pgm_s": ("ioutil.write_pgm",),
    "model.bloch_grid_s": ("model.bloch_grid_hamiltonians",),
    "model.open_s": ("model.open_hamiltonian",),
    "spectral.band_grid_s": ("spectral.band_grid",),
    "spectral.gap_scan_s": ("spectral.gap_scan",),
    "spectral.eigh_s": ("spectral.eigh",),
    "topology.chern_numbers_s": ("topology.chern_numbers",),
    "topology.plaquette_s": ("topology.plaquette_phases",),
    "topology.phase_diagram_s": ("topology.phase_diagram",),
    "edges.spectral_flow_s": ("edges.spectral_flow",),
    "edges.gap_fiducials_s": ("edges.gap_fiducials",),
    "edges.winding_s": ("edges.winding_numbers",),
    "propagation.split_step_s": ("propagation.split_step_propagate",),
    "propagation.fft_s": ("propagation.fft", "propagation.ifft"),
    "extraction.extract_s": ("extraction.extract_parameters",
                             "extraction.extraction_report"),
}

# counters kept by the tracer's counting hooks; identical in every pass
COUNTS = (
    "ioutil.bytes_written",
    "ioutil.cells_formatted",
    "model.bloch_blocks",
    "spectral.eigh_matrices",
    "topology.cells",
    "edges.states_classified",
    "propagation.steps",
)
# metric -> span names whose call count it reports
CALLS = {
    "model.open_calls": ("model.open_hamiltonian",),
    "propagation.fft_calls": ("propagation.fft", "propagation.ifft"),
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in SPAN_TIMES},
    **{name: "B" if name == "ioutil.bytes_written" else "count"
       for name in (*COUNTS, *CALLS)},
    "topology.cells_defined_frac": "1",
    "propagation.us_per_step": "us",
    "propagation.nonfft_us_per_step": "us",
    "propagation.norm_drift": "1",
    "propagation.norm_drift_gate": "1",
    "propagation.leakage_max": "1",
    "propagation.leakage_gate": "1",
    **{f"op.{stage}_s": "s" for stage in STAGES},
    "pump_chern_dev": "1",
    "trace.wall_s": "s",
    "trace.overhead_frac": "1",
    "calib.kernel_s": "s",
}


def _import_cli():
    """Import the package from this checkout's src/, never an installed one."""
    if not (SRC / "aahpump" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    from aahpump import cli
    if Path(cli.__file__).resolve().parent != SRC / "aahpump":
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {SRC}")
    return cli


def probe(workload, seed):
    cli = _import_cli()
    op = next(pass_orders(workload, seed))[0]
    _, preset_overrides, _, _ = cli.PRESETS[op.preset]
    cli.build_config(op.command, preset_overrides, None, op.overrides())
    print("ready", flush=True)


def run_op(cli, op, outdir, tracer):
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        token = tracer.begin("cli.main") if tracer else None
        t0 = perf_counter_ns()
        try:
            code = cli.main(op.argv(outdir))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else \
                (0 if exc.code is None else 1)
        except Exception:
            code, crash = None, traceback.format_exc()
        finally:
            t1 = perf_counter_ns()
            if tracer:
                tracer.end(token)
    record = {"op": op.preset, "stage": op.stage, "exit": code,
              "outcome": OUTCOMES.get(code, "crash"),
              "seconds": (t1 - t0) / 1e9}
    values = {}
    if record["outcome"] == "ok":
        errors, values = verify(op, outdir, out.getvalue())
        if errors:
            record.update(outcome="wrong_output", errors=errors)
    else:
        record["stderr"] = err.getvalue()[-2000:]
        if crash:
            record["traceback"] = crash
    return record, values


def fingerprint():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "aahpump").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")
                       or k == "VECLIB_MAXIMUM_THREADS"},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _traced_pass(spans, counts, peaks):
    wall, by_name, calls, self_by_layer = summarize(spans)
    s = 1e-9
    row = {f"{layer}.self_s": self_by_layer.get(layer, 0) * s
           for layer in LAYERS}
    for metric, names in SPAN_TIMES.items():
        row[metric] = sum(by_name.get(n, 0) for n in names) * s
    for metric in COUNTS:
        row[metric] = counts.get(metric, 0)
    for metric, names in CALLS.items():
        row[metric] = sum(calls.get(n, 0) for n in names)
    cells, steps = row["topology.cells"], row["propagation.steps"]
    row["topology.cells_defined_frac"] = \
        counts.get("topology.cells_defined", 0) / cells if cells else 0.0
    split, fft = row["propagation.split_step_s"], row["propagation.fft_s"]
    row["propagation.us_per_step"] = split / steps * 1e6 if steps else 0.0
    row["propagation.nonfft_us_per_step"] = \
        (split - fft) / steps * 1e6 if steps else 0.0
    row["propagation.norm_drift"] = peaks.get("propagation.norm_drift", 0.0)
    row["propagation.leakage_max"] = peaks.get("propagation.leakage_max", 0.0)
    row["trace.wall_s"] = wall * s
    return row


def layer_metrics(passes, chern_dev, kernel):
    """Per-layer metrics from the traced passes' rows (medians of times)."""
    traced = [p["row"] for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for metric in traced[0]:
        if metric in COUNTS or metric in CALLS:
            out[metric] = traced[0][metric]
        elif metric in ("propagation.norm_drift", "propagation.leakage_max"):
            out[metric] = max(row[metric] for row in traced)
        else:
            out[metric] = median(row[metric] for row in traced)
    for stage in STAGES:
        out[f"op.{stage}_s"] = median(
            sum((op["seconds"] for op in p["ops"] if op["stage"] == stage),
                0.0)
            for p in untraced)
    out["propagation.norm_drift_gate"] = NORM_DRIFT_GATE
    out["propagation.leakage_gate"] = LEAKAGE_GATE
    out["pump_chern_dev"] = chern_dev
    out["trace.overhead_frac"] = out["trace.wall_s"] / median(
        p["wall_s"] for p in untraced) - 1.0
    out["calib.kernel_s"] = median(kernel)
    return out


def measure(workload, seed, seconds, trace, setup):
    cli = _import_cli()
    tracer = Tracer() if trace else None
    calibration = Calibration(workload)
    rundir = OUT / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    orders = pass_orders(workload, seed)
    passes, span_log, chern_dev = [], [], 0.0
    start = perf_counter()
    kernel = [calibration.sample()]
    try:
        while not passes or perf_counter() - start < seconds or \
                (trace and len(passes) < 2):
            index = len(passes)
            traced = trace and index % 2 == 1
            if traced:
                tracer.install()
            ops = []
            try:
                for op in next(orders):
                    outdir = str(rundir / f"{index}-{op.preset}")
                    record, values = run_op(cli, op, outdir,
                                            tracer if traced else None)
                    shutil.rmtree(outdir, ignore_errors=True)
                    chern_dev = max(chern_dev,
                                    values.get("chern_dev", 0.0))
                    ops.append(record)
            finally:
                if traced:
                    tracer.uninstall()
            kernel.append(calibration.sample())
            entry = {"index": index, "traced": traced, "ops": ops,
                     "wall_s": sum(op["seconds"] for op in ops),
                     "kernel_s": (kernel[-2] + kernel[-1]) / 2}
            if traced:
                spans, counts, peaks = tracer.reset()
                span_log.append((index, spans))
                entry["row"] = _traced_pass(spans, counts, peaks)
                entry["wall_s"] = entry["row"]["trace.wall_s"]
            passes.append(entry)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    all_ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["outcome"] != "ok" for op in all_ops)
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "fingerprint": fingerprint(),
              "setup_s_samples": setup,
              "kernel_s_samples": kernel,
              "outcomes": Counter(op["outcome"] for op in all_ops),
              "passes": [{k: v for k, v in p.items() if k != "row"}
                         for p in passes]}
    if trace:
        rows = [p["row"] for p in passes if p["traced"]]
        detail["counts_stable"] = all(
            row[m] == rows[0][m] for row in rows for m in (*COUNTS, *CALLS))
        trace_file = OUT / f"trace-{workload}.tsv"
        write_spans(trace_file, span_log)
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics, units = layer_metrics(passes, chern_dev, kernel), PER_LAYER
    else:
        detail["wall_s_median"] = median(p["wall_s"] for p in passes)
        metrics = {
            "setup_s": median(setup),
            "norm_wall_s": calibration.nominal
            * sum(p["wall_s"] for p in passes)
            / sum(p["kernel_s"] for p in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: "
                           f"{sorted(set(metrics) ^ set(units))}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(all_ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", default="",
                        help="comma-separated set-up samples in seconds")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        probe(args.workload, args.seed)
    else:
        setup = [float(s) for s in args.setup.split(",") if s]
        if not setup:
            parser.error("measure needs --setup samples")
        measure(args.workload, args.seed, args.seconds, bool(args.trace),
                setup)


if __name__ == "__main__":
    main()
