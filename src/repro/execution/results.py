"""Result containers for replayed and Monte-Carlo-evaluated executions.

A scalar replay returns one :class:`RunResult`; the batched replay
returns the same outcomes as arrays
(:class:`repro.execution.batch_replay.RunBatch`), which
:meth:`MonteCarloSummary.from_arrays` summarises without building a
per-sample object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..cloud.billing import CostLedger
from ..errors import ConfigurationError
from ..market.history import MarketKey

#: Completed-by codes (``RunBatch.completed_code``) besides a group's
#: decision index: finished by the on-demand recovery, or not finished
#: at all (only a hand-built :class:`RunResult` list can say the latter).
ONDEMAND = -1
UNFINISHED = -2


@dataclass(frozen=True)
class GroupRunRecord:
    """What one circle group did during a replay.

    ``productive`` is the productive work achieved (hours on the group's
    own time scale); ``saved`` is the checkpointed part of it that
    survives the group's death.
    """

    key: MarketKey
    bid: float
    interval: float
    launched: bool
    launch_time: Optional[float]
    end_time: float
    terminated: bool  # True = out-of-bid event; False = ran to horizon/completion
    completed: bool
    productive: float
    saved: float
    n_checkpoints: int
    spot_cost: float

    @property
    def wall_hours(self) -> float:
        return 0.0 if self.launch_time is None else self.end_time - self.launch_time


@dataclass
class RunResult:
    """Outcome of replaying one decision from one starting point."""

    start_time: float
    cost: float
    makespan: float  # hours from start to application completion
    completed_by: Optional[str]  # market key string, "ondemand", or None
    ondemand_hours: float
    group_records: Sequence[GroupRunRecord] = field(default_factory=tuple)
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def completed(self) -> bool:
        return self.completed_by is not None

    def met_deadline(self, deadline: float) -> bool:
        return self.completed and self.makespan <= deadline + 1e-9


@dataclass(frozen=True)
class MonteCarloSummary:
    """Statistics over many replays from random starting points."""

    n_samples: int
    mean_cost: float
    std_cost: float
    mean_time: float
    std_time: float
    p95_cost: float
    p95_time: float
    deadline_miss_rate: float
    spot_completion_rate: float  # finished on a circle group
    ondemand_fallback_rate: float  # finished on the on-demand recovery

    @classmethod
    def from_arrays(
        cls,
        cost: np.ndarray,
        makespan: np.ndarray,
        completed_code: np.ndarray,
        deadline: Optional[float],
    ) -> "MonteCarloSummary":
        """Summary of per-sample ``cost``/``makespan`` arrays;
        ``completed_code`` is a group index (finished on spot),
        :data:`ONDEMAND` or :data:`UNFINISHED` per sample."""
        costs = np.ascontiguousarray(cost, dtype=float)
        times = np.ascontiguousarray(makespan, dtype=float)
        code = np.asarray(completed_code)
        if costs.size == 0:
            # Without this, numpy would hand back NaN means and
            # np.percentile would crash with an opaque IndexError.
            raise ConfigurationError(
                "cannot summarise an empty result list; draw at least one "
                "Monte-Carlo sample"
            )
        misses = (
            float(np.mean(~((code != UNFINISHED) & (times <= deadline + 1e-9))))
            if deadline is not None
            else 0.0
        )
        return cls(
            n_samples=int(costs.size),
            mean_cost=float(costs.mean()),
            std_cost=float(costs.std()),
            mean_time=float(times.mean()),
            std_time=float(times.std()),
            p95_cost=float(np.percentile(costs, 95)),
            p95_time=float(np.percentile(times, 95)),
            deadline_miss_rate=misses,
            spot_completion_rate=float(np.mean(code >= 0)),
            ondemand_fallback_rate=float(np.mean(code == ONDEMAND)),
        )

    @classmethod
    def from_results(
        cls, results: Sequence[RunResult], deadline: Optional[float]
    ) -> "MonteCarloSummary":
        """:meth:`from_arrays` over a list of results."""
        code = [
            UNFINISHED if r.completed_by is None
            else ONDEMAND if r.completed_by == "ondemand"
            else 0
            for r in results
        ]
        return cls.from_arrays(
            np.array([r.cost for r in results], dtype=float),
            np.array([r.makespan for r in results], dtype=float),
            np.array(code, dtype=np.int64),
            deadline,
        )
