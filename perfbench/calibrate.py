"""Host-speed calibration: scale measured op times to one reference speed.

The benchmark's host is a share of a machine whose speed drifts: the same op
runs up to about 1.4x faster or slower for seconds up to tens of seconds,
and CPU time follows wall time, so the drift is in the vCPU itself, not in
scheduling.  A run that lands in a fast stretch would otherwise read as a
faster program.

Fixed kernels that do not touch gaussqt track that drift (`KERNELS`): small
batched linear algebra on 4x4 matrices held in cache, a loop that touches
freshly mapped pages so that the kernel zeroes them, and floats turned into
text in the interpreter, as the CSV and JSON writers do.  The worker
times them every SAMPLE_PERIOD_S while ops run; `speed` is how much slower
than their reference times they ran, as the geometric mean over the kernels
of each kernel's mean time over its reference time.  A time divided by
`speed` is the time the op would have taken at the reference speed.  The
reference times are those of the kernels on the host of README.md; on
another host the scaled times carry that host's constant factor, the same
for every commit.
"""

from __future__ import annotations

import math
import mmap
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.25
MIN_WINDOW_S = 2.0

_rng = np.random.default_rng(20191001)
_A = _rng.standard_normal((300, 4, 4))
_MATS = _A @ np.swapaxes(_A, -1, -2) + 4.0 * np.eye(4)
_FAULT_BYTES = 1 << 20
_PAGE = mmap.PAGESIZE
_FLOATS = _rng.standard_normal(400).tolist()


def _batched() -> None:
    np.linalg.eigvalsh(_MATS)
    (_MATS @ _MATS).sum()


def _fault() -> None:
    # fresh anonymous pages: every first touch is a page fault the kernel
    # serves by zeroing a page, as when a sweep's arrays grow
    m = mmap.mmap(-1, _FAULT_BYTES)
    for off in range(0, _FAULT_BYTES, _PAGE):
        m[off] = 1
    m.close()


def _format() -> None:
    ",".join([repr(x) for x in _FLOATS])


# (kernel, runs once untimed first, mean time on the host of README.md in s);
# a warmed kernel's timing does not depend on what the program left in the
# caches, and the page-fault kernel maps new pages every time.  A kernel
# that builds many Python objects (an argparse parser, say) was tried and left
# out: its allocations set off garbage collections that walk the program's
# heap, so during a sweep it timed the sweep's heap, not the host.
KERNELS = (
    (_batched, True, 0.7e-3),
    (_fault, False, 0.9e-3),
    (_format, True, 0.5e-3),
)


def sample(clock=time.perf_counter) -> tuple:
    """(start, end, then each kernel's time in s) of one timing of the kernels."""
    times = []
    start = clock()
    for kernel, warm, _ in KERNELS:
        if warm:
            kernel()
        t = clock()
        kernel()
        times.append(clock() - t)
    return (start, clock(), *times)


def _mean_time(times: list) -> float:
    # the host switches between a fast and a slow level many times a second,
    # so the mean (not the median) follows the share of time spent in each;
    # a sample stretched past three times the median was preempted, and is
    # capped there
    cap = 3.0 * statistics.median(times)
    return statistics.fmean(min(t, cap) for t in times)


def speed(samples) -> float:
    """Slowdown against the reference speed over these samples (>1: slower)."""
    logs = [math.log(_mean_time([s[2 + k] for s in samples]) / ref)
            for k, (_, _, ref) in enumerate(KERNELS)]
    return math.exp(statistics.fmean(logs))


def scaled(t0: float, t1: float, samples) -> float:
    """The span [t0, t1] at the reference speed, leaving out the time spent
    sampling inside it.  The speed is taken over the samples inside the span
    when it is at least MIN_WINDOW_S long, and otherwise over those within
    the MIN_WINDOW_S window centred on it (at least the nearest three).
    Samples from outside a long op tracked it worse: the spread of
    sweep-bs-json ops within a run grew from 3-7% to 5-11% when samples
    within 2 s of the op were added.  Short ops gain from the wider window:
    over ten oracle-crosscheck runs the spread of latency_p95_ms fell from
    0.165 to 0.135, and that of analyze-files latency_p50_ms from 0.062 to
    0.053."""
    pad = max(0.0, 0.5 * (MIN_WINDOW_S - (t1 - t0)))
    near = [s for s in samples if s[1] > t0 - pad and s[0] < t1 + pad]
    if len(near) < 3:
        near = sorted(samples, key=lambda s: abs(0.5 * (s[0] + s[1]) - 0.5 * (t0 + t1)))[:3]
    sampling = sum(min(s[1], t1) - max(s[0], t0) for s in samples if s[1] > t0 and s[0] < t1)
    return (t1 - t0 - sampling) / speed(near)
