"""Host-speed calibration: a fixed kernel timed around every pass.

The benchmark runs on a few cores of a shared host whose speed for this
kind of work drifts by tens of per cent, in phases that last from seconds
to minutes (see NOTES.md, *Calibration*).  The wall time of a pass follows
that drift, so most of the spread between runs of the same code is the
host's, and no statistic over one run's passes removes a phase that lasts
the whole run.

Each workload therefore has a calibration kernel: fixed work of the same
kind as its passes (FFT split steps for the pump workloads; dense and
batched eigh and float formatting for the lattice one), written here and
never touched by the package.  The measuring process times the kernel
before the first pass and after every pass.  The run's normalised pass
time is

    nominal * sum(pass wall times) / sum(mean of the two kernel times
                                          around each pass)

where ``nominal`` is the kernel's typical time on the machine the notes
come from, so the value reads in seconds at that machine's typical speed.
A change to the package moves the pass times and not the kernel, so it
shows in the normalised time in full.

The kernel runs in the measuring process itself, between passes.  The
host's contention is per core (two vCPUs read different speeds at the
same moment), and a kernel in another process may run on the other vCPU:
tried that way, it steadied the runs barely more than no calibration
at all.  The cost is that a package change which alters its process's state
(thread pools, say) reaches the kernel too; the traced run reports the
kernel's median time as ``calib.kernel_s`` so that such a change shows.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np


def _split_step(nx: int, guides: int, steps: int):
    """Strang split-step loop like the pump ops': FFT half-steps and a
    phase multiply, with the potential either a precomputed profile
    (guides == 0) or a sum over windowed super-Gaussians per step."""
    x = np.linspace(-0.5 * nx, 0.5 * nx, nx)
    kx = 2.0 * np.pi * np.fft.fftfreq(nx)
    half = np.exp(-1j * kx ** 2 * 0.05)
    profile = np.exp(-(np.sin(x / 7.0) * 3.0) ** 6)
    psi0 = np.exp(-(x / 20.0) ** 2).astype(complex)
    starts = np.linspace(0, nx - 64, max(guides, 1)).astype(int)

    def run():
        psi_k = np.fft.fft(psi0)
        for s in range(steps):
            psi = np.fft.ifft(psi_k * half)
            if guides:
                pot = np.zeros(nx)
                for j in range(guides):
                    a, b = starts[j], starts[j] + 64
                    c = x[a] + 32.0 + 8.0 * math.cos(0.01 * s + j)
                    pot[a:b] += np.exp(-((x[a:b] - c) / 3.0) ** 6)
            else:
                pot = profile * math.cos(0.01 * s)
            psi *= np.exp(1j * 0.01 * pot)
            psi_k = np.fft.fft(psi) * half
        return psi_k
    return run


def _lattice(blocks: int, size: int, repeats: int, cells: int):
    """Batched 3x3 eigh, dense eigh of a size x size symmetric matrix,
    and float-to-text formatting, like the lattice ops'."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((blocks, 3, 3)) \
        + 1j * rng.standard_normal((blocks, 3, 3))
    small = a + a.conj().transpose(0, 2, 1)
    b = rng.standard_normal((size, size))
    dense = b + b.T
    rows = rng.standard_normal((cells // 8, 8))

    def run():
        np.linalg.eigh(small)
        for _ in range(repeats):
            np.linalg.eigh(dense)
        return sum(len(",".join(f"{v:.10g}" for v in row.tolist()))
                   for row in rows)
    return run


# workload -> (kernel factory, its arguments, nominal seconds).  Each
# kernel takes about a tenth of one pass of its workload; the nominal time
# is its median on the machine NOTES.md comes from.
KERNELS = {
    "lattice": (_lattice, (9216, 267, 32, 160000), 0.40),
    "pump-index": (_split_step, (2048, 0, 3900), 0.50),
    "pump-spacing": (_split_step, (4096, 21, 5100), 2.00),
}


class Calibration:
    """Times one workload's kernel; makes one untimed warm-up call."""

    def __init__(self, workload: str):
        factory, args, self.nominal = KERNELS[workload]
        self._run = factory(*args)
        self._run()

    def sample(self) -> float:
        t0 = perf_counter()
        self._run()
        return perf_counter() - t0
