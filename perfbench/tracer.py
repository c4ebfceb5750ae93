"""In-memory span tracer that wraps the package's functions from outside.

A span is (id, parent id, name, start ns, end ns); the root span of each
CLI op has parent 0.  Names are ``<layer>.<function>``, where the layer is
the package module that defines the function.  Spans are kept in memory
and written out when the run ends.

The tracer patches module attributes, so it sees every call that looks a
function up through a module namespace at call time:

* every import site: a public package function bound into another package
  module (``cli.split_step_propagate``, ``edges.band_grid``, ...);
* the intra-module calls listed in INTERNAL, which the layer metrics need;
* ``numpy.linalg.eigh`` (layer ``spectral``) and ``numpy.fft.fft`` /
  ``numpy.fft.ifft`` (layer ``propagation``), which the package looks up
  at call time.

Time the tracer spends on its own counting is recorded as ``trace.count``
spans, so the self times of all spans in a pass add up to the pass's
traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "model", "spectral", "topology", "edges", "propagation",
          "extraction", "ioutil")

# Calls that stay inside one module but are layer boundaries we time.
INTERNAL = (
    ("spectral", "band_grid"),          # gap_scan -> band_grid
    ("topology", "chern_numbers"),      # phase_diagram -> chern_numbers
    ("topology", "plaquette_phases"),   # chern_numbers -> plaquettes
    ("edges", "spectral_flow"),         # winding_numbers -> spectral_flow
    ("edges", "gap_fiducials"),         # winding_numbers -> gap_fiducials
)

NUMPY = (
    (np.linalg, "eigh", "spectral.eigh"),
    (np.fft, "fft", "propagation.fft"),
    (np.fft, "ifft", "propagation.ifft"),
)


# ------------------------------------------------------------ counters
# Each counter runs after its span ends, with the call's bound arguments
# and its result, and adds to the tracer's per-pass counts and peaks.

def _written(tracer, args, result):
    tracer.counts["ioutil.bytes_written"] += os.path.getsize(args["path"])


def _csv(tracer, args, result):
    _written(tracer, args, result)
    tracer.counts["ioutil.cells_formatted"] += len(args["header"]) + sum(
        len(row) for row in args["rows"])


def _pgm(tracer, args, result):
    _written(tracer, args, result)
    tracer.counts["ioutil.cells_formatted"] += np.asarray(
        args["values"]).size


def _bloch(tracer, args, result):
    tracer.counts["model.bloch_blocks"] += len(args["kxs"]) * len(args["kys"])


def _eigh(tracer, args, result):
    tracer.counts["spectral.eigh_matrices"] += int(
        np.prod(np.shape(args["a"])[:-2]))


def _phase_diagram(tracer, args, result):
    cells = [cv for row in result.cells for cv in row]
    tracer.counts["topology.cells"] += len(cells)
    tracer.counts["topology.cells_defined"] += sum(
        cv.all_defined for cv in cells)


def _spectral_flow(tracer, args, result):
    tracer.counts["edges.states_classified"] += result.labels.size


def _split_step(tracer, args, result):
    grid = args["grid"]
    tracer.counts["propagation.steps"] += int(
        round(float(grid.z_slices[-1]) / grid.dz))
    norms = np.asarray(result.norms)
    tracer.peak("propagation.norm_drift",
                float(np.abs(norms / norms[0] - 1.0).max()))
    tracer.peak("propagation.leakage_max", float(result.leakage_max))


COUNTERS = {
    "ioutil.write_csv": _csv,
    "ioutil.write_pgm": _pgm,
    "ioutil.write_json": _written,
    "model.bloch_grid_hamiltonians": _bloch,
    "spectral.eigh": _eigh,
    "topology.phase_diagram": _phase_diagram,
    "edges.spectral_flow": _spectral_flow,
    "propagation.split_step_propagate": _split_step,
}


class Tracer:
    """Records spans and counts for the calls it wraps."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.peaks = {}
        self._stack = [0]
        self._next_id = 1
        self._patches = []

    def begin(self, name):
        sid = self._next_id
        self._next_id += 1
        token = (sid, self._stack[-1], name, perf_counter_ns())
        self._stack.append(sid)
        return token

    def end(self, token):
        t1 = perf_counter_ns()
        self._stack.pop()
        sid, parent, name, t0 = token
        self.spans.append((sid, parent, name, t0, t1))

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def reset(self):
        """Start a new pass; returns the finished pass's records."""
        done = (self.spans, self.counts, self.peaks)
        self.spans, self.counts, self.peaks = [], Counter(), {}
        return done

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token)
            if counter is not None:
                token = tracer.begin("trace.count")
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, result)
                tracer.end(token)
            return result

        return traced

    def _patch(self, module, attr, name):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name))

    def install(self):
        """Wrap every traced call site; undo with uninstall()."""
        modules = {layer: importlib.import_module(f"aahpump.{layer}")
                   for layer in LAYERS}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__.startswith("aahpump.")
                        and value.__module__ != module.__name__):
                    home = value.__module__.rsplit(".", 1)[1]
                    self._patch(module, attr, f"{home}.{attr}")
        for layer, attr in INTERNAL:
            self._patch(modules[layer], attr, f"{layer}.{attr}")
        for module, attr, name in NUMPY:
            self._patch(module, attr, name)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def summarize(spans):
    """Per-pass totals from one pass's spans.

    Returns (wall_ns, by_name, calls, self_by_layer): the summed duration
    of the root spans, the summed duration and the call count of each span
    name, and the self time of each layer, where a span's self time is its
    duration minus its children's.
    """
    children = defaultdict(int)
    for sid, parent, name, t0, t1 in spans:
        children[parent] += t1 - t0
    by_name, calls, self_by_layer = defaultdict(int), Counter(), \
        defaultdict(int)
    for sid, parent, name, t0, t1 in spans:
        by_name[name] += t1 - t0
        calls[name] += 1
        self_by_layer[name.split(".", 1)[0]] += t1 - t0 - children[sid]
    return children[0], by_name, calls, self_by_layer


def write_spans(path, passes):
    """Write spans as tab-separated lines: pass, id, parent, name, t0, t1."""
    with open(path, "w") as fh:
        fh.write("pass\tid\tparent\tname\tt0_ns\tt1_ns\n")
        for index, spans in passes:
            for span in spans:
                fh.write(f"{index}\t" + "\t".join(map(str, span)) + "\n")
