"""Wall times scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes with
its neighbours' load: the same call can take 1.0x or 1.8x its usual time
for tens of seconds at a stretch, with no steal time to show for it.  So
a short fixed probe loop (Python bytecode and small numpy calls, the mix
the library's hot paths are made of) runs just before and just after every
timed call.  A call that runs on this process's one thread is also probed
once a second while it runs, from a SIGALRM handler, and the probes' own
time is taken out of its wall time.  A call that runs threads or a child
process is not: a probe would compete with it for the cores.  The call's
wall time is scaled by REFERENCE_S over the mean probe time.  The
result is in seconds at the speed at which the probe takes REFERENCE_S.  The probe is the benchmark's own code, so a change to
the library moves the scaled time exactly as it moves the wall time; only
the host's speed at the moment of the call is taken out.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median

import numpy as np

# Probe wall time on an uncontended core of the machine the bounds were set
# on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.015
SAMPLE_EVERY_S = 1.0
_VECTOR = np.arange(3.0)


def probe() -> float:
    """Wall time of the fixed probe loop."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(80000):
        total += (i * 0.5) % 7.0
        table[i & 63] = total
    for _ in range(6000):
        total += float(np.dot(_VECTOR, _VECTOR))
    return time.perf_counter() - start


@dataclass
class Reading:
    start: float
    wall_s: float | None = None
    speed: float = 1.0  # REFERENCE_S over the mean probe time: below 1 on a slow host
    paused_s: float = 0.0  # time spent in probes during the call

    def stop(self) -> None:
        """End the timed part early; the block may go on, untimed, before the closing probe."""
        if self.wall_s is None:
            self.wall_s = time.perf_counter() - self.start - self.paused_s

    @property
    def seconds(self) -> float:
        return self.wall_s * self.speed


class HostClock:
    """Times blocks of work and keeps every (wall time, speed) reading."""

    def __init__(self):
        self.readings: list[Reading] = []
        self.probe_during_calls = True  # off in a traced run, whose spans must not hold probes

    @contextmanager
    def timing(self, probe_during: bool):
        """Time the block (on the main thread); the yielded Reading is filled in when it exits."""
        probes = [probe()]

        def sample(signum, frame):
            if reading.wall_s is None:
                start = time.perf_counter()
                probes.append(probe())
                reading.paused_s += time.perf_counter() - start

        probe_during = probe_during and self.probe_during_calls
        reading = Reading(start=time.perf_counter())
        if probe_during:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield reading
        finally:
            if probe_during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            reading.stop()
            probes.append(probe())
            reading.speed = REFERENCE_S / (sum(probes) / len(probes))
            self.readings.append(reading)

    def summary(self) -> dict:
        speeds = [reading.speed for reading in self.readings]
        return {
            "reference_s": REFERENCE_S,
            "timed_calls": len(speeds),
            "probes_during_calls_s": sum(reading.paused_s for reading in self.readings),
            "speed_median": median(speeds) if speeds else None,
            "speed_min": min(speeds, default=None),
            "speed_max": max(speeds, default=None),
            "wall_s": sum(reading.wall_s for reading in self.readings),
            "scaled_s": sum(reading.seconds for reading in self.readings),
        }
