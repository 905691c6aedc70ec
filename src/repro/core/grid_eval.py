"""One-shot candidate-grid kernels for the planner.

The planner's per-group tables (the paper's §4.2.2 dimension reduction:
each group's checkpoint interval is ``phi(P)`` for every candidate bid) and
its subset bounds are candidate grids.  The scalar reference walks them
in Python: :func:`repro.core.interval.optimal_interval` builds one
:class:`~repro.core.cost_model.GroupOutcome` per interval candidate per
bid, and ``GroupOutcome.build`` then rebuilds the winner.  This module
evaluates each grid as **one** array program over the same float64
inputs: :func:`group_table_grid` builds a whole group table — every
bid's interval candidates in one :func:`outcome_grid` — and
:func:`subset_bounds` bounds every subset of a size at once.

The hard contract is the kernel layer's (DESIGN.md §8): **bit identity**
with the scalar code being replaced — same IEEE-754 operations applied
in the same order, elementwise.  Concretely:

* every elementwise formula below is copied operation-for-operation
  from its scalar oracle (broadcasting a column of interval candidates
  against a row of outcomes performs the identical multiply/divide per
  element that the scalar loop performs one candidate at a time);
* reductions that the scalar path runs as 1-D ``np.dot`` stay per-row
  1-D ``np.dot`` here (a matrix-vector product may associate
  differently in the last ulp);
* sequential accumulations (``sum``, ``*=``, ``max`` over groups in
  subset order) stay sequential per position, so the float operation
  order is unchanged;
* winner selection replicates the scalar incumbent loop — strict
  comparison against the running best, first winner kept.

``KERNEL_ORACLES`` declares the scalar reference of every public
function (reprolint R004) and ``tests/test_batch_parity.py`` pins exact
equality on representative and adversarial grids.  Validation runs once
per call, not once per outcome: :func:`group_table_grid` checks every
bid's pmf and :func:`outcome_grid` every interval and termination time,
as ``GroupOutcome.from_pmf`` and ``ratio_array`` do.  Everything here is a
pure function of its arguments: no caches, no config reads — gating by
``config.grid_eval`` happens at the call sites in :mod:`.two_level` and
:mod:`.subset`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import check_positive
from .cost_model import GroupOutcome
from .interval import _interval_candidates, young_interval
from .problem import CircleGroupSpec, OnDemandOption
from .ratio import _COMPLETE_ATOL, _validate

#: Scalar reference for every public kernel (reprolint R004): the
#: vectorized function must be bit-identical to the dotted scalar path,
#: verified by tests/test_batch_parity.py.
KERNEL_ORACLES = {
    "bid_matrix_rows": "repro.core.bid_search.log_bid_candidates",
    "outcome_grid": "repro.core.cost_model.GroupOutcome.from_pmf",
    "group_table_grid": "repro.core.interval.optimal_interval",
    "subset_bounds": "repro.core.two_level.TwoLevelOptimizer._subset_bound",
}


def bid_matrix_rows(
    max_prices: Sequence[float], levels: int, floor_prices: Sequence[float]
) -> List[np.ndarray]:
    """Per-market geometric bid candidates, whole grid in one program.

    Row ``i`` equals ``log_bid_candidates(max_prices[i], levels,
    floor_prices[i])`` exactly: the ``(markets, levels + 1)`` candidate
    matrix is one broadcast multiply (each element is the same single
    ``H * 2**(j - levels)`` product the scalar path computes), and the
    floor clip + dedup run per row on identical values.
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    maxima = np.asarray(max_prices, dtype=float)
    floors = np.asarray(floor_prices, dtype=float)
    if maxima.shape != floors.shape or maxima.ndim != 1:
        raise ConfigurationError(
            "max_prices and floor_prices must be 1-D of equal length"
        )
    for hi, lo in zip(maxima, floors):
        check_positive("max_price", float(hi))
        check_positive("floor_price", float(lo))
        if lo > hi:
            raise ConfigurationError(
                f"floor_price {lo} exceeds max_price {hi}"
            )
    steps = np.exp2(np.arange(levels + 1, dtype=float) - levels)
    grid = maxima[:, None] * steps[None, :]
    return [
        np.unique(np.maximum(row, lo)) for row, lo in zip(grid, floors)
    ]


def outcome_grid(
    spec: CircleGroupSpec,
    intervals: np.ndarray,
    n_steps: int,
    step_hours: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome tables for every interval candidate at once.

    Returns ``(productive, wall, ratios)`` where ``productive`` is the
    shared ``(n_steps + 1,)`` outcome row and ``wall`` / ``ratios`` are
    ``(candidates, n_steps + 1)``; row ``c`` is bit-identical to the
    ``wall`` / ``ratios`` arrays of ``GroupOutcome.from_pmf(spec, bid,
    intervals[c], pmf, price, step_hours)`` — every formula below is
    the scalar constructor's, broadcast over the candidate column.
    """
    F = np.asarray(intervals, dtype=float)
    if F.ndim != 1 or F.size == 0:
        raise ConfigurationError("intervals must be a non-empty 1-D array")
    if np.any(F <= 0):
        raise ConfigurationError("intervals must be > 0")
    T = spec.exec_time
    _validate(T, float(F.min()), spec.recovery_overhead)
    productive = np.minimum(step_hours * np.arange(n_steps + 1), T)
    productive[n_steps] = T
    if productive.min() < 0 or productive.max() > T + _COMPLETE_ATOL:
        raise ConfigurationError("termination times outside [0, T]")
    col = F[:, None]
    # Checkpoints land at k*F strictly before completion; one exactly at
    # the finish line is never taken (from_pmf's k_max cap, elementwise).
    k_max = np.ceil(T / col - 1e-12) - 1.0
    n_ckpts = np.minimum(
        np.floor(productive / col + 1e-12), np.maximum(0.0, k_max)
    )
    wall = productive + spec.checkpoint_overhead * n_ckpts
    # ratio_array's formula, broadcast: saved progress, capped restart.
    saved = np.floor(productive / col) * col
    ratios = np.minimum(
        1.0, (T - saved + spec.recovery_overhead) / T
    )
    ratios = np.where(productive < col, 1.0, ratios)
    ratios = np.where(productive >= T - _COMPLETE_ATOL, 0.0, ratios)
    ratios[:, n_steps] = 0.0  # completion, regardless of grid rounding
    return productive, wall, ratios


def group_table_grid(
    spec: CircleGroupSpec,
    bids: Sequence[float],
    failure_model,
    ondemand: OnDemandOption,
    step_hours: float = 1.0,
    refine: bool = True,
    checkpointing: bool = True,
) -> Tuple[np.ndarray, List[GroupOutcome], np.ndarray, np.ndarray, np.ndarray]:
    """One group's whole planner table — ``phi(P)`` and the outcome of
    every candidate bid — as one array program.

    Returns ``(intervals, outcomes, e_spot, e_wall, e_ratio)``.  Entry
    ``b`` is bit-identical to the scalar per-bid loop: the interval of
    :func:`repro.core.interval.optimal_interval` (``T`` when
    ``checkpointing`` is off), the ``GroupOutcome.build`` at that
    interval, its ``expected_spot_cost()``, ``dot(pmf, wall)`` and
    ``dot(pmf, ratios)``.

    Every bid's interval candidates share **one** :func:`outcome_grid`.
    Each bid's winner is picked by the scalar rule: per-row 1-D
    ``np.dot``, strict ``cost < best - 1e-12``, first winner kept.  Its
    row is copied out of the grid, not rebuilt, and its expectations
    are the winner's own loop dots.  Without refinement, or when no
    candidate's cost is finite, Young's interval is used, as in the
    scalar path.  The pmf and interval checks of
    ``GroupOutcome.from_pmf`` run once per call, over all bids.
    """
    T = spec.exec_time
    bid_list = np.asarray(bids, dtype=float).ravel().tolist()
    nb = len(bid_list)
    if nb == 0:
        raise ConfigurationError("bids must be non-empty")
    n = max(1, int(np.ceil(T / step_hours)))
    pmfs = [
        np.asarray(failure_model.failure_pmf(b, n), dtype=float)
        for b in bid_list
    ]
    if any(p.shape != (n + 1,) for p in pmfs):
        raise ConfigurationError("pmf must be 1-D with length n_steps + 1")
    stacked = np.stack(pmfs)
    if np.any(stacked < -1e-12) or np.any(
        np.abs(stacked.sum(axis=1) - 1.0) > 1e-9
    ):
        raise ConfigurationError("pmf must be non-negative and sum to 1")
    prices = [float(failure_model.expected_price(b)) for b in bid_list]
    n_instances = spec.n_instances

    if checkpointing:
        young = [
            young_interval(
                spec.checkpoint_overhead, failure_model.mttf_hours(b), T
            )
            for b in bid_list
        ]
        intervals = np.array(young)
    else:
        intervals = np.full(nb, T)  # w/o-CK ablation: no checkpoints
    e_wall = np.empty(nb)
    e_ratio = np.empty(nb)
    scored = np.zeros(nb, dtype=bool)
    wall = ratios = None
    if checkpointing and refine:
        cands = [_interval_candidates(spec, y, step_hours) for y in young]
        grid = np.concatenate(cands)
        productive, cand_wall, cand_ratios = outcome_grid(
            spec, grid, n, step_hours
        )
        full_run_cost = ondemand.full_run_cost
        pick = np.zeros(nb, dtype=np.intp)
        lo = 0
        for b, c_b in enumerate(cands):
            pmf = pmfs[b]
            scale = prices[b] * n_instances
            best_cost, best = math.inf, -1
            for c in range(lo, lo + c_b.size):
                w = float(np.dot(pmf, cand_wall[c]))
                r = float(np.dot(pmf, cand_ratios[c]))
                cost = scale * w + full_run_cost * r
                if cost < best_cost - 1e-12:
                    best_cost, best, best_w, best_r = cost, c, w, r
            if best >= 0:
                pick[b], e_wall[b], e_ratio[b] = best, best_w, best_r
                scored[b] = True
            lo += c_b.size
        intervals[scored] = grid[pick[scored]]
        wall, ratios = cand_wall[pick], cand_ratios[pick]
    direct = np.flatnonzero(~scored)
    if direct.size:
        productive, d_wall, d_ratios = outcome_grid(
            spec, intervals[direct], n, step_hours
        )
        if wall is None:
            wall, ratios = d_wall, d_ratios
        else:
            wall[direct], ratios[direct] = d_wall, d_ratios
        for b in direct:
            e_wall[b] = float(np.dot(pmfs[b], wall[b]))
            e_ratio[b] = float(np.dot(pmfs[b], ratios[b]))
    e_spot = np.array(prices) * n_instances * e_wall
    outcomes = [
        GroupOutcome(
            spec=spec,
            bid=bid_list[b],
            interval=float(intervals[b]),
            step_hours=step_hours,
            pmf=pmfs[b],
            expected_price=prices[b],
            productive=productive,
            wall=wall[b],
            ratios=ratios[b],
        )
        for b in range(nb)
    ]
    return intervals, outcomes, e_spot, e_wall, e_ratio


def subset_bounds(
    min_spot: np.ndarray,
    min_ratio: np.ndarray,
    min_wall: np.ndarray,
    subsets: np.ndarray,
    full_run_cost: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Admissible lower bounds for a whole ``(subsets, k)`` index matrix.

    ``min_spot`` / ``min_ratio`` / ``min_wall`` are the per-group floors
    (``e_spot.min()`` etc. of each group table); ``subsets`` holds group
    indices, one subset per row.  Returns ``(cost_bounds,
    time_bounds)``.  The accumulations run position by position in
    subset order — the identical float operation sequence as the scalar
    ``_subset_bound`` (``sum`` from zero, product from one, running
    ``max``) — so each bound equals its scalar counterpart bitwise and
    incumbent pruning decisions are unchanged.
    """
    idx = np.asarray(subsets, dtype=np.intp)
    if idx.ndim != 2 or idx.size == 0:
        raise ConfigurationError("subsets must be a non-empty (S, k) matrix")
    n_subsets, k = idx.shape
    spot = np.zeros(n_subsets)
    ratio = np.ones(n_subsets)
    wall = np.asarray(min_wall, dtype=float)[idx[:, 0]].astype(float, copy=True)
    for j in range(k):
        spot += np.asarray(min_spot, dtype=float)[idx[:, j]]
        ratio *= np.asarray(min_ratio, dtype=float)[idx[:, j]]
        if j > 0:
            np.maximum(wall, np.asarray(min_wall, dtype=float)[idx[:, j]], out=wall)
    return spot + ratio * full_run_cost, wall
