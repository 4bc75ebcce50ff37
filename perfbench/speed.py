"""Machine-speed reference: a fixed probe timed between units of work.

The shared VM this benchmark was written on changes speed by up to about
1.8x, for seconds to minutes at a time, with no steal time to show for
it; thread CPU time follows wall time.  A run of 30 s therefore lands on
one speed or another, and medians over runs spread by more than any
useful bound.

``SpeedReference.probe`` runs a fixed piece of work shaped like the
program's own (a small Cholesky solve, matrix-vector products, masked
element-wise numpy, a Python float loop) and records how long it took.
The workloads call it right after every FTCND solve, every NFTSM torque
computation (once per 1 ms torque step of a closed loop) and every
set-up build, so probes sit every 2-30 ms along the whole run: closer
than the bursts of slowness, which last about 100 ms.
``scaled(a, b)`` turns a measured interval into its length at the
reference speed: each stretch between two probes is multiplied by
``PROBE_REF_S`` over the rolling median of the probe times around it,
and the probes' own time is left out.  The probe's code is the
benchmark's, so a change to the program moves the scaled times exactly
as it moves the raw ones; only the machine's drift cancels.  The raw
times stay in ``result.json``.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# The probe's time at the reference speed: about its time on the 2-vCPU
# Intel Xeon (2.1 GHz) VM the benchmark was written on, when that VM ran
# at its faster speed.
PROBE_REF_S = 1.0e-3
# Probes on each side of a stretch whose times are pooled by the median.
HALF_WINDOW = 7

_RNG = np.random.default_rng(20240711)
_A = _RNG.normal(size=(35, 35))
_S = _A @ _A.T + 35.0 * np.eye(35)
_H = _RNG.normal(size=(210, 35))
_W = _RNG.normal(size=210)
_EYE = np.eye(35)


def _probe_work() -> float:
    acc = 0.0
    for k in range(20):
        x = cho_solve(cho_factor(_S + k * _EYE), _H.T @ _W)
        r = _H @ x - _W
        r = np.where(r > 0.0, r, 0.1 * r)
        acc += float(r @ r)
        for i in range(30):
            acc += (i * 0.5) ** 0.5
    return acc


class SpeedReference:
    """Probe times along one run, and intervals scaled by them."""

    def __init__(self, half_window=HALF_WINDOW):
        self.half_window = half_window
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smoothed = None

    def probe(self):
        t0 = time.perf_counter()
        _probe_work()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._smoothed = None

    @contextlib.contextmanager
    def after_calls(self, targets, region):
        """Probe after every call of ``owner.attr``, for each ``(owner,
        attr)`` of ``targets``, inside the block; each probe runs inside
        ``region()`` (a tracer span, so that it counts as no layer's self
        time)."""
        def probing(fn):
            @functools.wraps(fn)
            def probed(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    with region():
                        self.probe()
            return probed

        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr in targets]
        for owner, attr, fn in saved:
            setattr(owner, attr, probing(fn))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def durations(self) -> np.ndarray:
        return np.subtract(self.ends, self.starts)

    def factors(self) -> np.ndarray:
        """PROBE_REF_S over the rolling median of probe times, one per
        probe."""
        if self._smoothed is None:
            d = self.durations()
            k = self.half_window
            med = np.array([np.median(d[max(0, i - k):i + k + 1])
                            for i in range(d.size)])
            self._smoothed = PROBE_REF_S / med
        return self._smoothed

    def scaled(self, a, b) -> float:
        """Length of [a, b] at the reference speed, probe time left out.

        The stretch before probe j (after probe j - 1) takes probe j's
        factor; the stretch after the last probe takes the last one's.
        """
        if not self.starts:
            raise RuntimeError("no probe was run")
        f = self.factors()
        total = 0.0
        j = bisect.bisect_right(self.ends, a)
        cur = a
        while cur < b:
            if j >= len(self.starts):
                total += (b - cur) * f[-1]
                break
            seg_end = min(b, self.starts[j])
            if seg_end > cur:
                total += (seg_end - cur) * f[j]
            cur = max(cur, self.ends[j])
            j += 1
        return total
