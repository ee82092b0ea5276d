"""Machine-speed calibration for the end-to-end timings.

On the shared machines this benchmark runs on, the CPU alternates between
speed regimes about 1.7x apart that last tens of seconds: the same 10,001-point
curve took 1.25 s in one minute and 2.15 s in the next, with nothing else
running in the container. A 20-second run's median then depends on which
regime it fell into more than on the program. So before every operation (every
1024 queries in point_queries) the run times a fixed kernel built only from
the standard library and numpy, and each operation's time is scaled by
REFERENCE_S / (mean time of the kernel passes just before and just after it). Nothing of paulimem runs in the kernel, so a
change to the program moves the scaled times by the same factor as the raw
ones. The raw medians are printed beside the scaled metrics.

Times of fresh processes (set-up and cli_cold) are scaled by a second
kernel of their own kind, a fresh `python3 -c "import numpy"`: start-up is
file reads, unmarshalling and module execution, and it follows the compute
kernel loosely. Over 30 cold `capacity` runs the compute kernel correlated
0.34 with their times and the import kernel 0.71; scaling by the compute
kernel raised their coefficient of variation from 0.08 to 0.22, scaling by
the import kernel lowered it to 0.065.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Scaled times read as times on a machine where one compute kernel pass takes
# 10 ms and one import kernel 200 ms; on the 2-vCPU Xeon VM the bounds were
# set on they took 10-18 ms and 0.15-0.3 s.
REFERENCE_S = 0.010
IMPORT_REFERENCE_S = 0.200

_BATCH = np.random.default_rng(0).random((2000, 4, 4))
_BATCH = _BATCH + _BATCH.transpose(0, 2, 1)


def kernel_seconds() -> float:
    """Wall time of interpreter arithmetic, small numpy calls and one batched eigvalsh.

    The mix mirrors the program's: scalar Python, per-call numpy overhead and
    LAPACK on batches of 4x4 matrices. Allocation-heavy work (building and
    encoding dicts) was tried and left out: its time did not follow the
    regime, and scaling by it made the curve timings noisier.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += math.sqrt(i) * 0.5
    for i in range(1500):
        acc += np.sort(np.array([1.0 + i, 2.0, 0.5, 3.0]))[::-1].sum()
    np.linalg.eigvalsh(_BATCH)
    return time.perf_counter() - t0


def import_kernel_seconds(env: dict, cwd) -> float:
    """Wall time from spawn to exit of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scale(seconds: float, kernel: float, reference: float = REFERENCE_S) -> float:
    """An operation's time scaled to the reference speed."""
    return seconds * reference / kernel


def bracketed(kernels) -> np.ndarray:
    """Per-operation kernel time: the mean of the pass before it and the next one.

    kernels holds, in time order, the pass each operation followed; runs of
    equal values are operations that followed the same pass. The last block has
    no next pass and keeps its own.
    """
    k = np.asarray(kernels, dtype=float)
    if k.size == 0:
        return k
    new = np.r_[True, k[1:] != k[:-1]]
    passes = k[new]
    block = np.cumsum(new) - 1
    return (passes[block] + np.r_[passes[1:], passes[-1:]][block]) / 2.0
