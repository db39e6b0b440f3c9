"""Spans, operation accounting, host-speed normalization and correctness
checks for one benchmark run.

Every call the benchmark makes into ``tailcorr`` goes through
:meth:`Tracer.call` (or :meth:`Tracer.span` around a block), so the run
counts each operation as attempted and each :class:`TailcorrError` (or
nonzero CLI exit) as failed, and carries on.  When tracing is enabled the
same boundary records a span named after the module that was called; the
spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import gc
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tailcorr.errors import TailcorrError


def _reference_work(count: int) -> float:
    total = 0.0
    values = np.arange(9.0)
    for i in range(count):
        total += math.sqrt(i + 1.0) * math.exp(-1e-3 * i)
        if i % 4 == 0:
            total += float(np.maximum(values, 3.0).sum())
    return total


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter arithmetic and small-array
    NumPy calls.  It uses no ``tailcorr`` code, so a change to the program
    cannot change it; only the speed of the host can.  A short untimed
    pass first brings its own code and data back into cache, so the time
    does not depend on what ran before it, and the cyclic garbage collector
    is held off, whose passes would cost more the more objects the
    workload keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work(300)
        start = time.perf_counter()
        _reference_work(1500)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Round time with the host's speed drift taken out.

    On a shared machine the speed of one core wanders by tens of percent
    over seconds, which swamps the differences a benchmark must resolve.
    The clock times :func:`reference_loop` (about 2 ms) at operation
    boundaries, at most every ``EVERY_S`` seconds, and divides each stretch
    of work by the mean loop time at its two ends.  The sum, times the
    loop's nominal time, is the round's time at nominal host speed.  A
    long stretch gets a steadier reading at its end: the median of more
    loops, about 4 % of the stretch.
    """

    NOMINAL_S = 0.002
    EVERY_S = 0.05

    def __init__(self) -> None:
        self.running = False

    def start(self) -> None:
        self.running = True
        self._units = 0.0
        self._loop = reference_loop()
        self._mark = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        stretch = now - self._mark if self.running else 0.0
        if not self.running or (stretch < self.EVERY_S and not force):
            return
        count = min(max(int(stretch / (25 * self.NOMINAL_S)), 1), 49)
        loop = float(np.median([reference_loop() for _ in range(count)]))
        self._units += stretch / (0.5 * (self._loop + loop))
        self._loop = loop
        self._mark = time.perf_counter()

    def stop(self) -> float:
        """Seconds of the round at nominal host speed."""
        self.tick(force=True)
        self.running = False
        return self._units * self.NOMINAL_S


class OpFailed(Exception):
    """An operation failed and was counted; the caller skips what depended
    on it and moves on to its next step."""


class Tracer:
    """Operation counts always; spans only while ``enabled``."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.clock = SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans: list[dict] = []
        self.round = -1
        self._stack: list[int] = []
        self._depth = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, module: str, op: str, *, metric: str | None = None,
             units: float = 1.0, **attrs):
        """Time one operation in ``module``.

        ``metric`` names the per-layer metric this span feeds, and
        ``units`` the amount of work it did for that metric (lags,
        field-sites, points, rows ...); the block may update ``units`` in
        the yielded record once it knows.
        """
        self.attempted += 1
        if self._depth == 0:
            self.clock.tick()
        self._depth += 1
        record = {"name": module, "op": op, "metric": metric, "units": units,
                  **attrs}
        start = time.perf_counter()
        if self.enabled:
            record.update(id=len(self.spans), trace=self.round,
                          parent=self._stack[-1] if self._stack else None)
            self.spans.append(record)
            self._stack.append(record["id"])
        try:
            yield record
        except TailcorrError as exc:
            self.failed += 1
            self.errors.append(f"{module}.{op}: {type(exc).__name__}: {exc}")
            raise OpFailed(str(exc)) from exc
        finally:
            end = time.perf_counter()
            if self.enabled:
                self._stack.pop()
                record["start"] = start - self._origin
                record["end"] = end - self._origin
            self._depth -= 1
            if self._depth == 0:
                self.clock.tick()

    def call(self, module: str, fn, *args, metric: str | None = None,
             units: float = 1.0, attrs: dict | None = None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; raises :class:`OpFailed`
        after counting a :class:`TailcorrError`."""
        with self.span(module, getattr(fn, "__name__", "call"), metric=metric,
                       units=units, **(attrs or {})):
            return fn(*args, **kwargs)

    def count_failure(self, what: str) -> None:
        """Record a failure that did not surface as an exception (a CLI
        command that exited nonzero)."""
        self.failed += 1
        self.errors.append(what)

    def self_times(self) -> dict[str, float]:
        """Seconds per module, minus the time covered by child spans."""
        totals: dict[str, float] = {}
        for s in self.spans:
            if "end" not in s:
                continue
            totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                totals[parent] = totals.get(parent, 0.0) - (s["end"] - s["start"])
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "self_s": self.self_times()}) + "\n",
                        encoding="utf-8")


class Checks:
    """Named pass/fail correctness checks."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def run(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results
                if not ok]
