"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run short benchmark runs of the lattice and pump-index workloads
(about a minute in all); pump-spacing is left out because one pass of it
takes about 20 s.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SETUP_SAMPLES  # noqa: E402
from worker import CALLS, COUNTS, END_TO_END, PER_LAYER, run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACED_WORKLOADS = ("lattice", "pump-index")

# The metrics the benchmark is specified to report.
NAMED_METRICS = (
    "setup_s", "norm_wall_s", "peak_rss_mb",
    "op.bulk_s", "op.edges_s", "op.pump_s", "pump_chern_dev",
    "cli.self_s",
    "ioutil.write_csv_s", "ioutil.write_pgm_s", "ioutil.bytes_written",
    "ioutil.cells_formatted",
    "model.bloch_grid_s", "model.bloch_blocks", "model.open_s",
    "model.open_calls",
    "spectral.band_grid_s", "spectral.gap_scan_s", "spectral.eigh_s",
    "spectral.eigh_matrices",
    "topology.chern_numbers_s", "topology.plaquette_s",
    "topology.phase_diagram_s", "topology.cells",
    "topology.cells_defined_frac",
    "edges.spectral_flow_s", "edges.gap_fiducials_s", "edges.winding_s",
    "edges.states_classified",
    "propagation.split_step_s", "propagation.steps",
    "propagation.us_per_step", "propagation.fft_s", "propagation.fft_calls",
    "propagation.nonfft_us_per_step", "propagation.norm_drift",
    "propagation.leakage_max",
    "extraction.extract_s",
    "trace.overhead_frac",
)


def _run(workload, seed, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["detail"], json.loads(lines[-1])


def _pass_sums(trace_file):
    """Per pass: (root span names, summed self time in ns), from the file.

    Also checks that every span lies inside its parent and that siblings
    do not overlap, so that no self time is negative.
    """
    spans = defaultdict(dict)
    with open(ROOT / trace_file) as fh:
        next(fh)
        for line in fh:
            index, sid, parent, name, t0, t1 = line.rstrip("\n").split("\t")
            spans[int(index)][int(sid)] = (int(parent), name, int(t0),
                                           int(t1))
    sums = {}
    for index, rows in spans.items():
        children = defaultdict(list)
        for sid, (parent, name, t0, t1) in rows.items():
            assert t0 <= t1
            if parent:
                assert rows[parent][2] <= t0 and t1 <= rows[parent][3], name
            children[parent].append((t0, t1))
        for kids in children.values():
            kids.sort()
            assert all(a[1] <= b[0] for a, b in zip(kids, kids[1:]))
        self_total = sum(t1 - t0 - sum(b - a for a, b in children[sid])
                         for sid, (_, _, t0, t1) in rows.items())
        roots = [name for parent, name, _, _ in rows.values() if not parent]
        sums[index] = (roots, self_total)
    return sums


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload, with different seeds (op orders)."""
    runs = {}
    for workload in TRACED_WORKLOADS:
        runs[workload] = []
        for seed in (1, 2):
            detail, result = _result(_run(workload, seed, 1))
            runs[workload].append(
                (detail, result, _pass_sums(detail["trace_file"])))
    return runs


@pytest.fixture(scope="module")
def untraced():
    return _result(_run("lattice", 3, 0))


def test_traced_runs_are_correct(traced):
    for workload, runs in traced.items():
        for detail, result, _ in runs:
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] == \
                len(WORKLOADS[workload]) * len(detail["passes"])
            assert detail["counts_stable"]


def test_counts_identical_across_traced_runs(traced):
    for workload, (first, second) in traced.items():
        for name in (*COUNTS, *CALLS):
            assert first[1]["metrics"][name] == second[1]["metrics"][name], \
                (workload, name)


def test_counts_on_the_lattice_and_pump_layers(traced):
    lattice = traced["lattice"][0][1]["metrics"]
    pump = traced["pump-index"][0][1]["metrics"]
    assert lattice["topology.cells"]["value"] == 13 * 9
    assert lattice["edges.states_classified"]["value"] == 2 * 400 * 89
    assert lattice["model.open_calls"]["value"] == 2 * 400
    assert lattice["propagation.steps"]["value"] == 0
    assert pump["propagation.steps"]["value"] == 25000
    # one fft + one ifft per step, plus the first fft and one ifft per slice
    assert pump["propagation.fft_calls"]["value"] == 2 * 25000 + 1 + 200
    assert pump["model.open_calls"]["value"] == 0


def test_self_times_add_up_to_traced_wall(traced):
    for workload, runs in traced.items():
        for detail, _, sums in runs:
            passes = {p["index"]: p for p in detail["passes"] if p["traced"]}
            assert set(sums) == set(passes)
            for index, (roots, self_ns) in sums.items():
                assert roots == ["cli.main"] * len(WORKLOADS[workload])
                assert math.isclose(self_ns * 1e-9, passes[index]["wall_s"],
                                    rel_tol=1e-12)
                # the op timer runs inside each root span, independently
                # of the tracer
                timed = sum(op["seconds"] for op in passes[index]["ops"])
                assert 0 <= self_ns * 1e-9 - timed < 1e-3


def test_every_metric_printed_with_its_unit(traced, untraced):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == END_TO_END and layer == PER_LAYER
    assert set(NAMED_METRICS) <= set(e2e) | set(layer)
    printed = [untraced[1]] + [r for runs in traced.values()
                               for _, r, _ in runs]
    for result in printed:
        expected = e2e if set(result["metrics"]) == set(e2e) else layer
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
            assert math.isfinite(value["value"])


def test_untraced_end_to_end_metrics_are_positive(untraced):
    detail, result = untraced
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(detail["setup_s_samples"]) == SETUP_SAMPLES
    # the kernel is timed before the first pass and after every pass
    assert len(detail["kernel_s_samples"]) == len(detail["passes"]) + 1
    assert all(k > 0 for k in detail["kernel_s_samples"])
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "blas",
                "thread_env", "git_commit", "src_sha256"):
        assert key in detail["fingerprint"]


def test_seed_permutes_op_order_only(traced):
    first, second = (run[0] for run in traced["lattice"])
    order = [[op["op"] for op in p["ops"]] for p in first["passes"]]
    other = [[op["op"] for op in p["ops"]] for p in second["passes"]]
    assert sorted(order[0]) == sorted(other[0])
    assert order != other


def test_workloads_pin_every_config_key():
    sys.path.insert(0, str(ROOT / "src"))
    from aahpump.cli import SCHEMAS
    for ops in WORKLOADS.values():
        for op in ops:
            assert set(op.params) == set(SCHEMAS[op.command]), op.preset


def test_exit_codes_are_classified(tmp_path):
    op = WORKLOADS["pump-index"][1]

    def exits(code):
        return SimpleNamespace(main=lambda argv: code)

    def raises(argv):
        raise ValueError("escaped")

    outdir = str(tmp_path)
    outcomes = {code: run_op(exits(code), op, outdir, None)[0]["outcome"]
                for code in (2, 3, 4, 1)}
    assert outcomes == {2: "config_error", 3: "numerical_failure",
                        4: "check_mismatch", 1: "crash"}
    record, _ = run_op(SimpleNamespace(main=raises), op, outdir, None)
    assert record["outcome"] == "crash" and "escaped" in record["traceback"]
    # exit 0 without the op's outputs is a wrong output, not a success
    record, _ = run_op(exits(0), op, outdir, None)
    assert record["outcome"] == "wrong_output"


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("lattice", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
