"""Host-speed calibration: a fixed kernel timed beside the program.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass runs up to 1.6 times slower for seconds or minutes at a time,
with CPU time moving with wall time. A Calibrator times a fixed kernel of
the kinds of work spinmaps does: a 64x64 complex Hermitian eigh, small
complex Kronecker products and matmuls, elementwise numpy on short
vectors, and float formatting and sorting as in CSV writing. The harness
times it just before and just after every command and scales the
command's times by REFERENCE_S / (mean of the two): its seconds on a host
that runs the kernel in REFERENCE_S.

Why this kernel. In one process, over 4.5 minutes of disorder-mc and of
ed-steady passes, the median pass of each 20-second window spread
(quartile distance over median) 0.10 and 0.11 raw. Scaled by these four
parts it spread 0.02 on both. A plain interpreter loop or a sweep over
4 MB tracked the host worst (0.05-0.07 alone) and are left out. The
kernel before a command alone tracks the host less well than the pair
around it: on disorder-mc the pair took the command-to-command spread of
log time from 0.14 to 0.10 (raw: 0.19).

The kernel is benchmark code and calls numpy only, so a change to spinmaps
cannot make it faster or slower; a change that alters numpy's process-wide
state (its BLAS thread count, say) would affect both.
"""

from __future__ import annotations

import math
import time

# About the kernel's median seconds on the reference host: a 2-core Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6, BLAS pinned to one thread.
REFERENCE_S = 0.06


class Calibrator:
    """Times the kernel and keeps every sample."""

    def __init__(self):
        import numpy as np  # after the harness has pinned BLAS threads

        self._np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._hermitian = a + a.conj().T
        self._small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._short = rng.standard_normal(21)
        self.samples = []

    def _kernel(self):
        """Four parts of about equal time on the reference host."""
        np = self._np
        for _ in range(12):
            np.linalg.eigh(self._hermitian)
        for _ in range(220):
            np.trace(np.kron(self._small, self._small) @ np.kron(self._small, self._small))
        for _ in range(3700):
            np.exp(-self._short ** 2).sum()
        return sorted(f"{i * 0.1!r},{math.cos(i)!r},{i}" for i in range(7000))

    def sample(self) -> float:
        """Kernel seconds, timed now."""
        start = time.perf_counter()
        self._kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds
