"""Host-speed probe for timings on a shared, noisy machine.

On a small shared host the speed of a core swings by up to 2x over seconds,
with other tenants' load, and every timing swings with it.  While the
benchmark runs, a SIGALRM handler times a small fixed pure-Python kernel,
which uses no hilcheck code, every INTERVAL_S of wall time.  A timed
interval is then reported as

    (wall time - probe time inside it) * REFERENCE_S / mean kernel time

where the mean is over the probes within WINDOW_S of the interval.  Reported
times are therefore seconds at the host speed where the kernel takes
REFERENCE_S.  A change to hilcheck moves the interval and not the kernel, so
it shows in full; a slow spell of the host moves both and cancels.  Raw,
unscaled medians are reported next to the scaled ones.

The handler runs between bytecodes of whatever is executing, so under
tracing its time (well under 1%) lands in the span it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL_S = 0.05
WINDOW_S = 0.5
# kernel time on a 2-core x86-64 VM under CPython 3.11 in its fast spells;
# it only fixes the unit of the scaled times
REFERENCE_S = 0.0002


@dataclass(frozen=True)
class _Key:
    name: str
    group: int


@dataclass(frozen=True)
class _Item:
    name: str
    group: int

    @property
    def key(self) -> _Key:
        return _Key(self.name, self.group)


_ITEMS = tuple(_Item(f"x{i}", i % 9) for i in range(54))


def kernel() -> int:
    """Work of the kind the checker's step does: per group, a filtered dict
    view keyed by names, then updates keyed by freshly built frozen keys.
    Of the kernels tried, this one tracked the checker's slow spells best."""
    values = {item.key: i for i, item in enumerate(_ITEMS)}
    for group in range(9):
        view = {item.name: values[item.key] for item in _ITEMS
                if item.group == group}
        for item in _ITEMS:
            if item.group == group:
                values[item.key] = (view[item.name] + 1) % 5
    return len(values)


class SpeedProbe:
    """Context manager that probes the host's speed until it exits."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._saved = None

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        kernel()
        self.kernel_s.append(time.perf_counter() - started)
        self.starts.append(started)

    def __enter__(self) -> "SpeedProbe":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def measure(self, intervals) -> tuple[float, float]:
        """(raw, scaled) seconds of a sample made of (start, end) intervals."""
        raw = scaled = 0.0
        for start, end in intervals:
            inside = self.kernel_s[bisect.bisect_left(self.starts, start):
                                   bisect.bisect_left(self.starts, end)]
            near = self.kernel_s[
                bisect.bisect_left(self.starts, start - WINDOW_S):
                bisect.bisect_left(self.starts, end + WINDOW_S)]
            seconds = end - start - sum(inside)
            raw += seconds
            scaled += seconds * REFERENCE_S / statistics.fmean(
                near or self.kernel_s)
        return raw, scaled
