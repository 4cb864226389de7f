"""Speed reference for the shared host the benchmark runs on.

The host's speed drifts by a third and more over minutes, for the
interpreter and for numpy alike, while the program stays the same.  A
fixed kernel that does not use ``repro`` -- interpreter arithmetic, small
numpy min-plus reductions and a sha256 digest, the kinds of work the
workloads do -- is timed beside the calls.  The end-to-end times are
scaled by ``REFERENCE_S`` over the kernel's median time in the same run:
they read as on a host where the kernel takes ``REFERENCE_S``, so drift
in the host's speed cancels, and a change to the program does not.  The
kernel allocates no object the cyclic garbage collector tracks, so the
program's heap does not move it.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

#: Median of :func:`seconds` on a 2-vCPU cloud VM (Python 3.11, numpy 2.4).
REFERENCE_S = 280e-6

_A = np.random.default_rng(0).random((16, 16))
_COLS, _ROWS = _A[:, :, None], _A[None, :, :]
_BYTES = bytes(range(256)) * 16


def _kernel() -> None:
    s = 0
    for k in range(600):
        s += k * k
    for _ in range(8):
        (_COLS + _ROWS).min(1)
    hashlib.sha256(_BYTES).digest()


def seconds() -> float:
    """Time of one kernel run, after one untimed run that re-warms the
    caches the preceding call evicted."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
