"""Counters and wall-clock timers for the planning and replay layers.

A :class:`Metrics` registry is a plain bag of named counters and
accumulated timers.  The library increments a process-global registry
(:func:`get_metrics` in :mod:`repro.obs`) at a handful of coarse
checkpoints — replays run, Monte-Carlo samples drawn, planner calls,
combos covered, cache hits — cheap enough to be always on: one dict
increment per *call*, never per inner-loop element, and never anything
that feeds back into the numeric outputs.

Worker processes keep their own registries; nothing merges them back
automatically.  Every pool dispatcher (the experiments runner with
``--jobs``, ``run_backtest`` and the Monte-Carlo fan-out) ships a
:meth:`Metrics.snapshot` home with each result and folds it in with
:meth:`Metrics.merge_snapshot`.
Metrics are observability, not accounting; the cost ledgers (which *are*
accounting) travel inside the results themselves.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class _TimerStat:
    seconds: float = 0.0
    calls: int = 0


@dataclass
class Metrics:
    """Named counters and accumulated wall-clock timers."""

    counters: dict = field(default_factory=dict)
    timers: dict = field(default_factory=dict)

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def add_time(self, name: str, seconds: float) -> None:
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = _TimerStat()
        stat.seconds += seconds
        stat.calls += 1

    @contextmanager
    def timer(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def get(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def snapshot(self) -> dict:
        """JSON-friendly view (counters + per-timer seconds/calls)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {"seconds": stat.seconds, "calls": stat.calls}
                for name, stat in sorted(self.timers.items())
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, stat in snap.get("timers", {}).items():
            entry = self.timers.get(name)
            if entry is None:
                entry = self.timers[name] = _TimerStat()
            entry.seconds += stat["seconds"]
            entry.calls += stat["calls"]

    def format_block(self) -> str:
        """The human-readable metrics block (see EXPERIMENTS.md)."""
        lines = ["== metrics =="]
        if self.counters:
            lines.append("counters:")
            width = max(len(n) for n in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}}  {self.counters[name]:g}")
        if self.timers:
            lines.append("timers:")
            width = max(len(n) for n in self.timers)
            for name in sorted(self.timers):
                stat = self.timers[name]
                lines.append(
                    f"  {name:<{width}}  {stat.seconds:.3f}s over "
                    f"{stat.calls} call{'s' if stat.calls != 1 else ''}"
                )
        if len(lines) == 1:
            lines.append("(empty)")
        return "\n".join(lines)

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
