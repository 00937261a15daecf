"""Wall-clock timing utilities.

The paper reports ABFT overhead as a ratio between a protected and an
unprotected execution of the same computation.  On the CPU-side reproduction
we measure both with :class:`Timer` / :class:`TimingRegistry`; the modelled
A100 numbers come from :mod:`repro.perfmodel` instead.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Timer", "TimingRegistry"]


@dataclass
class Timer:
    """A simple start/stop wall-clock timer accumulating elapsed seconds.

    The timer is its own context manager: ``with timer:`` (or the equivalent
    ``with timer.measure():``) starts it on entry and stops it on exit, also
    when the body raises.
    """

    elapsed: float = 0.0
    count: int = 0
    _start: Optional[float] = field(default=None, repr=False)

    def start(self) -> "Timer":
        if self._start is not None:
            raise RuntimeError("timer already running")
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("timer not running")
        delta = time.perf_counter() - self._start
        self._start = None
        self.elapsed += delta
        self.count += 1
        return delta

    def reset(self) -> None:
        self.elapsed = 0.0
        self.count = 0
        self._start = None

    @property
    def mean(self) -> float:
        """Mean elapsed time per start/stop pair (0.0 if never stopped)."""
        return self.elapsed / self.count if self.count else 0.0

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def measure(self) -> "Timer":
        """The timer itself, as the context manager measuring one interval."""
        return self


class TimingRegistry:
    """A named collection of timers with hierarchical keys.

    Keys are free-form strings; by convention the library uses
    ``"attention/forward"``, ``"abft/encode"``, ``"abft/detect"`` and so on,
    which lets overhead reports aggregate by prefix.

    The registry itself is thread-safe: the key-to-timer map is guarded by a
    lock so the data-parallel trainer's rank threads can record under their
    own keys (and :meth:`add` into shared ones) while the coordinator
    aggregates.  Looking up an existing key takes no lock (a single dict
    read); creating one does, because the checker's phase timers are looked
    up on every edge of every verified boundary.
    Individual :class:`Timer` objects are *not* locked — the library's
    convention is that each key is only ever measured from one thread.
    """

    def __init__(self) -> None:
        self._timers: Dict[str, Timer] = defaultdict(Timer)
        self._lock = threading.Lock()

    def timer(self, key: str) -> Timer:
        timer = self._timers.get(key)
        if timer is not None:
            return timer
        with self._lock:
            return self._timers[key]

    def measure(self, key: str) -> Timer:
        """``key``'s timer, as the context manager measuring one interval."""
        return self.timer(key)

    def elapsed(self, key: str) -> float:
        with self._lock:
            return self._timers[key].elapsed if key in self._timers else 0.0

    def add(self, key: str, seconds: float, count: int = 1) -> None:
        """Fold an externally measured duration into ``key``'s timer.

        Unlike :meth:`measure`, the accumulation happens under the registry
        lock, so many threads may feed the *same* key — this is how the
        data-parallel trainer folds per-rank ``comm/*`` durations measured
        inside worker threads into one shared registry.
        """
        with self._lock:
            timer = self._timers[key]
            timer.elapsed += float(seconds)
            timer.count += int(count)

    def total(self, prefix: str = "") -> float:
        """Sum of elapsed time over keys starting with ``prefix``."""
        with self._lock:
            return sum(
                t.elapsed for k, t in self._timers.items() if k.startswith(prefix)
            )

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._timers)

    def reset(self) -> None:
        with self._lock:
            self._timers.clear()

    def as_dict(self) -> Dict[str, float]:
        with self._lock:
            return {k: t.elapsed for k, t in sorted(self._timers.items())}

    def report(self) -> str:
        """Human-readable multi-line report, longest timers first."""
        with self._lock:
            rows = sorted(self._timers.items(), key=lambda kv: -kv[1].elapsed)
        lines = [f"{'key':<40} {'calls':>8} {'total (s)':>12} {'mean (ms)':>12}"]
        for key, t in rows:
            lines.append(f"{key:<40} {t.count:>8d} {t.elapsed:>12.6f} {t.mean * 1e3:>12.4f}")
        return "\n".join(lines)
