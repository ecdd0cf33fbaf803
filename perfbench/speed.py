"""Machine-speed probe that the benchmark's timings are scaled by.

On a shared host the speed of a process drifts by tens of percent over
seconds to minutes, in CPU time as much as in wall time, so raw times of
the same code spread by 10-35% from run to run.  A fixed mix of interpreter
work and a numpy exp over 0.5 MB, timed next to the measured work, drifts
with it.  Times are reported scaled by ``REFERENCE_S`` over the probe
times around them: seconds at the reference speed.  Their run-to-run
spread is several times smaller than that of the raw times, which the
results keep as well.

``REFERENCE_S`` is a fixed constant (about the probe's median on the host
the benchmark was written on), so scaled figures compare across commits.
The probe allocates nothing and takes the median of three repeats, so the
heap and cache state the program leaves behind do not change it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0012


class SpeedProbe:
    INTERVAL_S = 0.1  # ``maybe`` probes at most this often
    WINDOW_S = 1.0  # probes this close to a timed interval set its factor

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._phase = 1j * np.linspace(0.0, 1.0, 32768)
        self._out = np.empty_like(self._phase)
        self.samples: list[tuple[float, float]] = []  # (taken at, probe seconds)
        self.spent = 0.0  # wall time spent probing

    def _kernel(self) -> None:
        total = 0
        for i in range(4000):
            total += i * i
        self._np.exp(self._phase, out=self._out)

    def probe(self) -> None:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.spent += sum(times)
        self.samples.append((time.perf_counter(), statistics.median(times)))

    def median(self) -> float:
        return statistics.median(v for _, v in self.samples)

    def maybe(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.INTERVAL_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of [start, end]."""
        near = [v for t, v in self.samples
                if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if not near:  # no probe in reach: the nearest one on either side
            near = ([v for t, v in self.samples if t <= start][-1:]
                    + [v for t, v in self.samples if t >= end][:1])
        return REFERENCE_S / statistics.median(near)
