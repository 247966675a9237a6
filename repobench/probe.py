"""Host-speed probes interleaved with the measured work.

The host this benchmark was built on runs the same code at two speeds
about 1.6-2x apart, switching every few seconds and drifting over
minutes (README.md, "Host noise"). A short pure-Python probe run on the
same CPU between the units of work slows down and speeds up with the
work, so a time divided by the mean probe time of the same repetition
reads the same whichever speed the host was at. Times are reported in
reference seconds: the measured time scaled by ``PROBE_REF_S / mean
probe``, i.e. the time the work would take on a host where the probe
takes ``PROBE_REF_S``.

The probe runs outside the timed calls; its time is subtracted from the
wall time it interrupts.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable

from spans import Patcher

#: Probe time that defines a reference second.
PROBE_REF_S = 0.010
PROBE_LOOPS = 50_000


def probe() -> float:
    """Seconds taken by a fixed dictionary-and-float loop."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(PROBE_LOOPS):
        table[i & 255] = i * 0.5
        acc += table.get((i >> 1) & 255, 0.0)
    return time.perf_counter() - start


class HostClock(Patcher):
    """Probe samples taken explicitly or before each call of patched
    functions."""

    def __init__(self) -> None:
        super().__init__()
        self.samples: list[float] = []

    def sample(self) -> float:
        took = probe()
        self.samples.append(took)
        return took

    def probe_before(self, owner: Any, attr: str) -> None:
        def wrap(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self.sample()
                return fn(*args, **kwargs)

            return wrapper

        self.patch(owner, attr, wrap)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> list[float]:
        return self.samples[mark:]


def reference_seconds(wall: float, probes: list[float]) -> float:
    """``wall`` (probe time already removed) in reference seconds."""
    return wall * PROBE_REF_S / statistics.fmean(probes)
