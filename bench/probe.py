"""A fixed numpy loop that measures how fast the machine is right now.

The benchmark's shared virtual machine changes speed by up to 1.8x within
minutes (neighbours on the same cores and caches), in CPU time as well as
wall time.  The worker runs the probe of its workload between ops, about
twice a second, and multiplies the run's CPU times by the probe's
reference time over the median probe time of the run: the result reads as
seconds at the machine's reference speed, and a change to ``speclp`` moves
it while a slow change of the machine's speed mostly does not.  Set-up CPU
time is scaled the same way, by the probes of the same process.

The probe never calls ``speclp``.  Each step is the node step of the
square-function and kernel loops (multiplier, product, inverse transform,
squared modulus accumulated) on a fixed array; each workload's probe uses the
array shapes its own ops transform, so that a slowdown that hits small and
large working sets differently hits the probe as it hits the ops.  The
kernel probe adds power steps over 8 MiB arrays, larger than a core's L2, as
the image sums of the fractional Laplacian make: those ops slow more than
the transforms when the shared cache and memory are busy.  The probe's
arrays stay allocated for the whole run and count in ``peak_rss_mb``: about
5 MiB for sqfun, 23 MiB for operators and 36 MiB for kernel.
"""

from __future__ import annotations

import time

import numpy as np

# (shape, steps) per workload; each probe takes 20-30 ms at reference speed
SHAPES = {
    "sqfun": (((1024,), 180), ((2048,), 90), ((256, 256), 5)),
    "kernel": (((8192,), 8), ((32768,), 3), ((131072,), 1)),
    "operators": (((1024,), 60), ((4096,), 16), ((256, 256), 2), ((64, 64, 64), 1)),
}

# (elements, steps) of the power steps per workload
STREAM = {"sqfun": (0, 0), "kernel": (1 << 20, 2), "operators": (0, 0)}

# typical median probe CPU seconds of a benchmark run on an Intel Xeon
# (2 vCPUs, 105 MiB L3) with numpy 2.4; the scale of the reported seconds
REFERENCE_S = {"sqfun": 0.026, "kernel": 0.026, "operators": 0.021}


class Probe:
    """The probe of one workload, with every array it touches allocated."""

    def __init__(self, workload: str):
        rng = np.random.default_rng(0)
        self.arrays = []
        for shape, steps in SHAPES[workload]:
            coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            base = -np.abs(rng.standard_normal(shape))
            # every buffer is allocated here: the allocator's state, which the
            # ops leave behind, must not change what the probe costs
            buffers = (np.empty(shape), np.empty(shape, complex), np.empty(shape, complex),
                       np.empty(shape))
            self.arrays.append((coeffs, base, buffers, steps))
        n, steps = STREAM[workload]
        self.stream = (rng.uniform(1.0, 2.0, n), np.empty(n), np.zeros(n), steps)
        self.reference_s = REFERENCE_S[workload]

    def run(self) -> float:
        """One probe; returns its CPU seconds."""
        c0 = time.process_time()
        for coeffs, base, (mult, prod, g, acc), steps in self.arrays:
            acc.fill(0.0)
            for k in range(steps):
                np.multiply(base, 0.1 + 0.01 * k, out=mult)
                np.exp(mult, out=mult)
                np.multiply(coeffs, mult, out=prod)
                np.fft.ifftn(prod, out=g)
                np.abs(g, out=mult)
                np.multiply(mult, mult, out=mult)
                acc += mult
        x, y, acc, steps = self.stream
        for k in range(steps):
            np.power(x, -(0.5 + 0.01 * k), out=y)
            acc += y
        return time.process_time() - c0
