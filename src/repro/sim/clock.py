"""Virtual clock for deterministic elapsed-time measurement.

All simulated devices advance a shared :class:`SimClock`; benchmark
results are reported in simulated seconds.  The clock also hands out
monotonically increasing logical timestamps used by the transaction
manager for commit times (the paper's time travel keys off transaction
start/commit times recorded in the status file).
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing virtual clock.

    The clock starts at ``origin`` (default 0.0) and only moves forward.
    Components charge time with :meth:`advance`; measurements bracket
    work with :meth:`now`.
    """

    def __init__(self, origin: float = 0.0) -> None:
        self._now = float(origin)
        self._ticks = 0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative).

        Returns the new time.
        """
        if seconds < 0:
            raise ValueError(f"cannot move time backwards ({seconds!r})")
        self._now += seconds
        return self._now

    def tick(self) -> int:
        """Return a unique, monotonically increasing logical tick.

        Used to break ties between events that occur at the same
        simulated instant (e.g. transaction ordering).
        """
        self._ticks += 1
        return self._ticks

    def reset(self, origin: float = 0.0) -> None:
        """Reset to ``origin``.  Only benchmarks should do this, between
        independent runs."""
        self._now = float(origin)
        self._ticks = 0


class Stopwatch:
    """Measures simulated elapsed time over a block of work.

    >>> clock = SimClock()
    >>> with Stopwatch(clock) as sw:
    ...     _ = clock.advance(1.5)
    >>> sw.elapsed
    1.5
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = self._clock.now()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = self._clock.now() - self._start
