"""Host-speed reference: a fixed workload timed next to every op.

The shared 2-vCPU machine this benchmark was built on changes speed by up
to 1.8x over tens of seconds, because of load from outside the process.  A
raw wall-time median then moves more between runs than any regression
bound allows.  So every host time the benchmark reports is scaled to one
reference speed::

    t_ref = t_wall * REFERENCE_PROBE_S / probe_s

where ``probe_s`` is the time of the reference workload measured next to
the op, and :data:`REFERENCE_PROBE_S` is its time on the build machine
in a fast phase.  A reported time therefore reads as "wall seconds on the
build machine at that speed".

The reference workload uses only Python and numpy, no simulator code, so
no change to the simulator can move it.  It is a loop of numpy operations
on small arrays (arithmetic, a square root, a masked select and a column
gather on 8 x 32 float64 arrays).  That is the same interpreter-bound kind
of work as the simulator's vectorised warp executor, so the probe slows
down with a step under outside load.  Over eight minutes of back-to-back
``step-ooc`` steps whose raw medians drifted by 1.55x, it held the scaled
medians within 1.09x.  An earlier probe that walked 100k Python objects and
gathered from a large array held them only within 1.20x.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Seconds one warm :meth:`Speed.probe` takes on the build machine in a
#: fast phase (its 5th percentile over eight minutes of probes was 11.7 ms,
#: its median 14.6 ms).  It is calibrated to the workload sizes below;
#: change them together.
REFERENCE_PROBE_S = 0.012
#: Shape of the probe's arrays: rows of 32 lanes, like a block of warps.
PROBE_SHAPE = (8, 32)
#: Iterations of the probe loop.
PROBE_ITERS = 1500
#: Seconds around an interval whose probes count for it.
SLACK_S = 1.0


class Speed:
    """Times the reference workload; scales wall times by its readings."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0x5EED)
        self._x = rng.random(PROBE_SHAPE)
        self._y = rng.random(PROBE_SHAPE)
        self._mask = rng.random(PROBE_SHAPE) > 0.3
        self._cols = rng.integers(0, PROBE_SHAPE[1], size=PROBE_SHAPE[1])
        self._times: list[float] = []  # probe midpoints, increasing
        self._secs: list[float] = []

    def batch(self, n: int) -> None:
        """One untimed warm-up run of the workload, then ``n`` recorded
        probes.  The warm-up brings the workload's data back into the
        caches, so what the op before it touched does not matter."""
        self._run()
        for _ in range(n):
            self.probe()

    def probe(self) -> float:
        """Run the reference workload once; record and return its time."""
        t0 = time.perf_counter()
        self._run()
        t1 = time.perf_counter()
        self._times.append((t0 + t1) / 2)
        self._secs.append(t1 - t0)
        return t1 - t0

    def _run(self) -> float:
        x, y, mask, cols = self._x, self._y, self._mask, self._cols
        for _ in range(PROBE_ITERS):
            z = np.sqrt(x * x + y * y + 1e-3)
            x = np.where(mask, z, x) * 0.5
            y = y[:, cols] + 1.0
        return float(x.sum())

    def recent_max(self) -> float:
        """The longest of the last five probes (the reference time before
        any probe ran)."""
        return max(self._secs[-5:], default=REFERENCE_PROBE_S)

    def probe_s(self, start: float, end: float) -> float:
        """Median probe time within :data:`SLACK_S` of ``[start, end]``;
        the probe nearest the interval when none is that close."""
        lo = bisect.bisect_left(self._times, start - SLACK_S)
        hi = bisect.bisect_right(self._times, end + SLACK_S)
        if hi > lo:
            return statistics.median(self._secs[lo:hi])
        mid = (start + end) / 2
        i = bisect.bisect_left(self._times, mid)
        near = [j for j in (i - 1, i) if 0 <= j < len(self._times)]
        return self._secs[min(near, key=lambda j: abs(self._times[j] - mid))]

    def scale(self, start: float, end: float) -> float:
        """The wall time ``end - start`` at reference speed."""
        return (end - start) * REFERENCE_PROBE_S / self.probe_s(start, end)

    def summary(self) -> str:
        if not self._secs:
            return "no speed probes"
        return (f"{len(self._secs)} speed probes: median "
                f"{statistics.median(self._secs) * 1e3:.1f} ms, range "
                f"{min(self._secs) * 1e3:.1f}-{max(self._secs) * 1e3:.1f} ms "
                f"(reference {REFERENCE_PROBE_S * 1e3:.1f} ms)")
