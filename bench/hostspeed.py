"""Host speed, sampled while the untraced run is timed.

The machines this benchmark runs on share their cores with other tenants.
From one second to the next the same code runs up to twice as slow, and a
slow spell can last for minutes, so raw times of two runs of the same code
can differ by more than any useful regression bound.

`HostSpeed` interrupts the run every ``every`` seconds (SIGALRM) and times a
fixed reference of about 1 ms in three parts, the mix of work quadcover does:
an interpreter loop, a broadcast boolean kernel and many small numpy calls.
The time spent in the reference is taken out of every timed interval.  A
phase of the run is then scaled by
``REF_S / harmonic mean of the reference times sampled during it``, which
gives its time on a host where the reference takes ``REF_S``.  The harmonic
mean is the time-weighted speed, so an interval half in a slow spell and half
out of it is scaled by the average speed over it.

The reference never calls quadcover, so a change to the program moves the
scaled times as it moves the raw ones.
"""

from __future__ import annotations

import signal
import time
from typing import Tuple

import numpy as np

# The reference's time on a quiet host: about the fastest it ran on the
# 2-vCPU 2.0 GHz Xeon the bounds were set on.  Scaled times read as times on
# such a host; the constant cancels when two commits are compared.
REF_S = 0.0008
CAPACITY = 100_000   # samples kept: over an hour at the default rate


class HostSpeed:
    """Samples the reference every ``every`` seconds inside a ``with`` block.
    Timestamps come from ``now``; ``scaled`` turns two of them into a
    host-scaled duration."""

    def __init__(self, every: float = 0.05):
        self.every = every
        # Samples go into arrays made here, and the reference reuses buffers
        # made here: a sample allocates nothing that outlives it, so that it
        # leaves the program's heap, and with it peak_rss_mb, as it found them.
        self._at = np.empty(CAPACITY)        # perf_counter of each sample
        self._ref = np.empty(CAPACITY)       # reference seconds of each sample
        self.n = 0
        self.paused = 0.0                    # seconds spent in the reference
        rng = np.random.default_rng(0)
        bits = rng.random((256, 256)) < 0.1
        self._left, self._right = bits[:96, None, :64], bits[None, :64, :64]
        self._and = np.empty((96, 64, 64), dtype=bool)
        self._counts = np.empty((96, 64), dtype=np.uint8)
        self._ints = rng.integers(0, 1 << 20, 1000)
        self._work = np.empty_like(self._ints)
        self._flags = np.empty(len(self._ints) - 1, dtype=bool)
        self._table: dict = {}
        self._saved = None
        self._running = False

    def reference(self) -> float:
        """Time one pass of the fixed reference work."""
        t0 = time.perf_counter()
        table, s = self._table, 0
        for i in range(2000):
            s += (i * 2654435761) & 1023
            table[i & 255] = s
        np.bitwise_and(self._left, self._right, out=self._and)
        np.add.reduce(self._and.view(np.uint8), axis=2, out=self._counts)
        # Many small calls: the steps of np.unique and a reversed sort.
        for k in range(14):
            np.bitwise_xor(self._ints, k, out=self._work)
            self._work.sort()
            np.not_equal(self._work[1:], self._work[:-1], out=self._flags)
            self._work[::-1] = self._ints
            self._work.sort()
        return time.perf_counter() - t0

    def _sample(self, *_):
        t0 = time.perf_counter()
        if self.n < len(self._at):
            self._at[self.n], self._ref[self.n] = t0, self.reference()
            self.n += 1
        self.paused += time.perf_counter() - t0
        if self._running:
            # One-shot timer re-armed here, so that a slow sample never nests.
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def __enter__(self) -> "HostSpeed":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved or signal.SIG_DFL)

    def now(self) -> Tuple[float, float]:
        """A timestamp: (perf_counter, perf_counter minus time in the reference)."""
        paused = self.paused
        t = time.perf_counter()
        return t, t - paused

    def samples(self) -> Tuple[np.ndarray, np.ndarray]:
        """(perf_counter, reference seconds) of the samples taken so far."""
        return self._at[:self.n], self._ref[:self.n]

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the harmonic mean of the samples taken in [t0, t1], or
        of the last sample before t1 when none was."""
        at, ref = self.samples()
        refs = ref[(at >= t0) & (at <= t1)]
        if not len(refs):
            refs = ref[at <= t1][-1:]
        return REF_S * float(np.mean(1 / refs))

    def scaled(self, a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
        """(raw, host-scaled) seconds from timestamp ``a`` to ``b``, both
        without the time spent in the reference."""
        raw = b[1] - a[1]
        return raw, raw * self.factor(a[0], b[0])
