"""Vectorised trace replay over many starting points.

:func:`repro.execution.replay.replay_decision` drives one replay with
scalar trace scans (``first_at_or_below`` / ``first_exceedance`` walk a
boolean suffix per call).  Monte-Carlo evaluation replays the *same
decision* from hundreds of starting points, so here the per-(trace, bid)
next-launch / next-death segment indices are precomputed once (and
served from the shared cache in :mod:`.kernels`) and every start is
resolved with a ``searchsorted`` — all launches, deaths, progress
computations and the completion cut-back pass become array operations
over the whole batch.

Both spot semantics are batched: the single-shot kernel resolves each
group's one launch/death per start in a single array pass, and the
persistent kernel iterates relaunch *rounds* level by level — each round
advances every still-active sample one launch/death/progress step as
array operations, so the Python iteration count is the maximum number of
relaunches of any sample, not the number of samples.

:func:`replay_batch` returns a :class:`RunBatch`: per-sample
cost, makespan, completed-by code and on-demand hours, the per-group
record columns and the spot / on-demand / storage ledger columns, all
as arrays.  The on-demand recovery (Formula 7) and the checkpoint-storage
bill (:func:`~.kernels.checkpoint_storage_cost_batch`) are array
operations too, so a Monte-Carlo summary needs no per-sample Python
object; ``RunBatch.results()`` builds the :class:`~.results.RunResult`
objects for the consumers that read them, and in audit or tracing mode
:func:`replay_batch` builds them itself to hand every sample through
:func:`~.replay.observe_result`.

The arithmetic mirrors the scalar replay operation-for-operation (same
IEEE ops in the same order; every run window of a group — or of one
persistent relaunch round — is billed by one
:func:`~.kernels.billed_cost_batch` call, elementwise bit-identical to
:func:`repro.cloud.spot.billed_spot_cost`), so the results — including the
per-group records, hourly billing, checkpoint-storage accounting and the
cost ledger — are bit-identical to a sequential loop of
``replay_decision`` calls.  :func:`replay_window_batch` exposes the same
kernels over per-element windows and per-sample remaining work for the
adaptive executor.  See DESIGN.md §8 for the kernel-layer contract.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS, CostLedger
from ..core.ckpt_math import checkpoints_completed, total_wall
from ..core.problem import Decision, Problem
from ..errors import ConfigurationError, TraceError
from ..market.history import SpotPriceHistory
from .kernels import (
    billed_cost_batch,
    checkpoint_storage_cost_batch,
    checkpoints_completed_arr,
    progress_after_wall_arr,
    total_wall_arr,
    trace_tables,
)
from .replay import (
    SEMANTICS,
    WindowOutcome,
    decision_horizon,
    observe_result,
)
from .results import ONDEMAND, GroupRunRecord, MonteCarloSummary, RunResult

#: Scalar reference for every public kernel (reprolint R004); parity is
#: asserted bit-exactly in tests/test_batch_parity.py.
KERNEL_ORACLES = {
    "replay_window_batch": "repro.execution.replay.replay_window",
    "replay_batch": "repro.execution.replay.replay_decision",
}


@dataclass(eq=False)
class GroupColumns:
    """:class:`GroupRunRecord` fields as arrays.

    One group's replay over a batch of starts is 1-D (the kernels'
    output); :meth:`stack` lays every group of a decision out as
    ``(n_groups, n_samples)``, in decision order.  ``launch`` is
    meaningful only where ``launched``.
    """

    launched: np.ndarray  # bool
    launch: np.ndarray
    end: np.ndarray
    terminated: np.ndarray  # bool
    completed: np.ndarray  # bool
    productive: np.ndarray
    saved: np.ndarray
    n_ckpt: np.ndarray  # int64
    spot_cost: np.ndarray

    @classmethod
    def stack(cls, groups: Sequence["GroupColumns"]) -> "GroupColumns":
        return cls(*(
            np.stack([getattr(g, f.name) for g in groups]) for f in fields(cls)
        ))

    @classmethod
    def empty(cls, n: int) -> "GroupColumns":
        """Columns of a decision without spot groups."""
        dtypes = {"launched": bool, "terminated": bool, "completed": bool,
                  "n_ckpt": np.int64}
        return cls(*(
            np.zeros((0, n), dtype=dtypes.get(f.name, float))
            for f in fields(cls)
        ))

    @classmethod
    def concat(cls, parts: Sequence["GroupColumns"]) -> "GroupColumns":
        return cls(*(
            np.concatenate([getattr(p, f.name) for p in parts], axis=1)
            for f in fields(cls)
        ))

    def records(self, meta) -> list[tuple[GroupRunRecord, ...]]:
        """Every sample's records; ``meta`` holds each group's
        ``(key, bid, interval)`` in decision order."""
        n = self.launched.shape[1]
        per_group = []
        for g, (key, bid, interval) in enumerate(meta):
            cols = zip(*(getattr(self, f.name)[g].tolist() for f in fields(self)))
            per_group.append([
                GroupRunRecord(
                    key=key, bid=bid, interval=interval, launched=launched,
                    launch_time=launch if launched else None, end_time=end,
                    terminated=terminated, completed=completed,
                    productive=productive, saved=saved, n_checkpoints=n_ckpt,
                    spot_cost=spot_cost,
                )
                for (launched, launch, end, terminated, completed, productive,
                     saved, n_ckpt, spot_cost) in cols
            ])
        return list(zip(*per_group)) if per_group else [()] * n


@dataclass(eq=False)
class RunBatch:
    """Outcomes of replaying one decision from many starts, as arrays.

    Element ``i`` of every array describes start ``start[i]``; equal,
    field for field, to the :class:`RunResult` a scalar replay from that
    start returns (:meth:`results` builds those objects).  Costs are
    ``(spot + ondemand) + storage`` from the three ledger columns.
    ``completed_code`` is the decision index of the group that finished
    first, or :data:`ONDEMAND`; ``ondemand_ratio`` is the recovered
    fraction of Formula 7 (1.0 where no recovery ran).
    """

    problem: Problem
    decision: Decision
    start: np.ndarray
    cost: np.ndarray
    makespan: np.ndarray
    completed_code: np.ndarray  # int64
    ondemand_hours: np.ndarray
    ondemand_ratio: np.ndarray
    groups: GroupColumns
    spot: np.ndarray
    ondemand: np.ndarray
    storage: np.ndarray

    def __len__(self) -> int:
        return int(self.start.size)

    def summary(self, deadline: Optional[float]) -> MonteCarloSummary:
        return MonteCarloSummary.from_arrays(
            self.cost, self.makespan, self.completed_code, deadline
        )

    @classmethod
    def concat(cls, parts: Sequence["RunBatch"]) -> "RunBatch":
        """The batches' samples in order (chunks of one decision)."""
        first = parts[0]
        arrays = {
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)
            if f.name not in ("problem", "decision", "groups")
        }
        return cls(
            problem=first.problem, decision=first.decision,
            groups=GroupColumns.concat([p.groups for p in parts]), **arrays,
        )

    def results(self) -> list[RunResult]:
        """One :class:`RunResult` per start, ledger included, built on
        every call."""
        return self._materialise(None)

    def _materialise(self, observe: Optional[tuple]) -> list[RunResult]:
        """The objects behind :meth:`results`; ``observe`` is
        ``(history, billing, semantics, account_storage)`` when
        :func:`replay_batch` hands every result through
        :func:`~.replay.observe_result` (audit or tracing on)."""
        problem, decision = self.problem, self.decision
        meta = _group_meta(problem, decision)
        spot_labels = [f"{key} bid=${bid:.4f}" for key, bid, _ in meta]
        keys = [str(key) for key, _, _ in meta]
        od_name = problem.ondemand_options[decision.ondemand_index].itype.name
        out = []
        for records, start, cost, makespan, code, od_hours, ratio, od, storage in zip(
            self.groups.records(meta), self.start.tolist(), self.cost.tolist(),
            self.makespan.tolist(), self.completed_code.tolist(),
            self.ondemand_hours.tolist(), self.ondemand_ratio.tolist(),
            self.ondemand.tolist(), self.storage.tolist(),
        ):
            ledger = CostLedger()
            for label, rec in zip(spot_labels, records):
                ledger.add("spot", label, rec.spot_cost)
            if not meta:
                ledger.add("ondemand", f"full run on {od_name}", od)
            elif code == ONDEMAND:
                ledger.add("ondemand", f"recovery of {ratio:.2%} on {od_name}", od)
            if storage > 0:
                ledger.add("storage", "checkpoint images", storage)
            result = RunResult(
                start_time=start,
                cost=cost,
                makespan=makespan,
                completed_by="ondemand" if code == ONDEMAND else keys[code],
                ondemand_hours=od_hours,
                group_records=records,
                ledger=ledger,
            )
            if observe is not None:
                observe_result(result, problem, decision, *observe)
            out.append(result)
        return out


def _group_meta(problem: Problem, decision: Decision) -> list[tuple]:
    """``(key, bid, interval)`` of each group, in decision order."""
    return [
        (problem.groups[gd.group_index].key, gd.bid, gd.interval)
        for gd in decision.groups
    ]


@dataclass
class _GroupCtx:
    """Per-group constants plus the shared precomputed trace tables."""

    spec: object
    bid: float
    interval: float
    work: float
    eff_interval: float
    done_wall: float  # failure-free wall time for the full work
    k_done: int  # checkpoints of a completed run
    trace: object
    tables: object  # kernels.TraceBidTables


def _group_ctx(spec, gd, trace, cache: bool = True) -> _GroupCtx:
    work = spec.exec_time
    eff = min(gd.interval, work)
    return _GroupCtx(
        spec=spec,
        bid=gd.bid,
        interval=gd.interval,
        work=work,
        eff_interval=eff,
        done_wall=total_wall(work, eff, spec.checkpoint_overhead),
        k_done=checkpoints_completed(work, work, eff),
        trace=trace,
        tables=trace_tables(trace, gd.bid, cache=cache),
    )


def _run_group_batch(
    ctx: _GroupCtx,
    t0: np.ndarray,
    t1: np.ndarray,
    work: Optional[np.ndarray] = None,
    billing: BillingPolicy = CONTINUOUS,
) -> GroupColumns:
    """Array version of ``replay._run_group_in_window`` (single-shot)
    over per-element windows ``[t0, t1)``.

    ``work`` optionally carries per-element remaining work (all > 0, the
    adaptive path); without it every element owes the group's full work
    and the precomputed scalar timeline constants apply.
    """
    tb = ctx.tables
    times = tb.times
    n = tb.n_segments
    spec = ctx.spec
    if work is None:
        work_a = ctx.work
        eff = ctx.eff_interval
        done_wall = ctx.done_wall
        k_done: object = ctx.k_done
    else:
        work_a = np.asarray(work, dtype=float)
        if np.any(work_a <= 0.0):
            raise ConfigurationError("batched windows need work > 0 everywhere")
        eff = np.minimum(ctx.interval, work_a)
        done_wall = total_wall_arr(work_a, eff, spec.checkpoint_overhead)
        k_done = checkpoints_completed_arr(work_a, work_a, eff)

    k = np.searchsorted(times, t0, side="right") - 1
    below_k = tb.below[k]
    launch_seg = np.where(below_k, k, tb.nxt_below_ext[np.minimum(k + 1, n)])
    launch = np.where(below_k, t0, tb.times_ext[launch_seg])
    launched = launch < t1  # never-launch gives +inf, also excluded here

    death_seg = tb.nxt_above_ext[np.minimum(launch_seg + 1, n)]
    death = tb.times_ext[death_seg]
    # Unlaunched elements carry launch = +inf; pin them to the window
    # start so the arithmetic below stays finite (their outputs are
    # overwritten wholesale at the end).
    launch = np.where(launched, launch, t0)
    horizon = np.minimum(t1, launch + done_wall)
    terminated = death < horizon
    end = np.where(terminated, death, horizon)
    wall = np.maximum(end - launch, 0.0)

    productive, saved, n_ckpt = progress_after_wall_arr(
        wall, work_a, eff, spec.checkpoint_overhead, done_wall, k_done
    )
    completed = productive >= work_a - 1e-9
    bank = np.flatnonzero(launched & ~terminated & ~completed)
    if bank.size:
        boundary_wall = np.maximum(0.0, wall[bank] - spec.checkpoint_overhead)
        sel = lambda v: v if np.isscalar(v) else v[bank]  # noqa: E731
        banked, _s, _n = progress_after_wall_arr(
            boundary_wall, sel(work_a), sel(eff), spec.checkpoint_overhead,
            sel(done_wall), sel(k_done),
        )
        saved[bank] = np.maximum(saved[bank], banked)

    # Unlaunched: dead at the window boundary with nothing gained.
    end = np.where(launched, end, t1)
    terminated = np.where(launched, terminated, True)
    completed = np.where(launched, completed, False)
    productive = np.where(launched, productive, 0.0)
    saved = np.where(launched, saved, 0.0)
    n_ckpt = np.where(launched, n_ckpt, 0)

    cost = np.zeros(t0.size)
    run = np.flatnonzero(launched & (end > launch))
    cost[run] = billed_cost_batch(
        ctx.trace, launch[run], np.minimum(end[run], ctx.trace.end_time),
        terminated[run], billing,
    ) * spec.n_instances
    return GroupColumns(
        launched=launched, launch=launch, end=end, terminated=terminated,
        completed=completed, productive=productive, saved=saved,
        n_ckpt=n_ckpt, spot_cost=cost,
    )


def _run_group_persistent_batch(
    ctx: _GroupCtx,
    t0: np.ndarray,
    t1: np.ndarray,
    work: Optional[np.ndarray] = None,
    billing: BillingPolicy = CONTINUOUS,
) -> GroupColumns:
    """Array version of ``replay._run_group_persistent``.

    The scalar drives one sample through its relaunch rounds with a
    ``while`` loop; here each iteration advances *every* still-active
    sample one round — launch lookup, death lookup, progress and the
    died / survived-to-boundary / completed split all as array
    operations.  Samples leave the active set as they finish, so the
    Python-level iteration count is ``max_i rounds(i)``, typically a
    handful.  Per-round state updates replicate the scalar ordering
    exactly; each round's spot bills come from one
    ``billed_cost_batch`` call and accrue in round order per sample.
    """
    tb = ctx.tables
    times = tb.times
    n = tb.n_segments
    spec = ctx.spec
    trace = ctx.trace
    O = spec.checkpoint_overhead
    R = spec.recovery_overhead
    size = t0.size
    if work is None:
        work_a = np.full(size, ctx.work)
    else:
        work_a = np.asarray(work, dtype=float)
    if np.any(work_a <= 0.0):
        raise ConfigurationError("batched windows need work > 0 everywhere")
    eff_interval = np.minimum(ctx.interval, work_a)

    saved = np.zeros(size)
    productive_tot = np.zeros(size)
    ckpts_tot = np.zeros(size, dtype=np.int64)
    cost = np.zeros(size)
    first_launch = np.full(size, np.nan)
    now = np.array(t0, dtype=float, copy=True)
    end = np.array(t1, dtype=float, copy=True)
    dead = np.ones(size, dtype=bool)
    completed = np.zeros(size, dtype=bool)
    active = np.ones(size, dtype=bool)

    while True:
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        nw = now[idx]
        # Launch attempt: price <= bid now, else the next below-bid
        # segment (first_at_or_below); +inf when the trace ran out.
        can = nw < trace.end_time
        k = np.minimum(np.searchsorted(times, nw, side="right") - 1, n - 1)
        below_k = tb.below[k]
        seg = np.where(below_k, k, tb.nxt_below_ext[np.minimum(k + 1, n)])
        launch = np.where(below_k, nw, tb.times_ext[seg])
        launch = np.where(can, launch, np.inf)
        miss = launch >= t1[idx]
        if miss.any():
            j = idx[miss]
            end[j] = t1[j]
            dead[j] = True
            active[j] = False
        go = np.flatnonzero(~miss)
        if go.size == 0:
            continue
        j = idx[go]
        lj = launch[go]
        sj = seg[go]
        first_launch[j] = np.where(np.isnan(first_launch[j]), lj, first_launch[j])

        recovery = np.where(saved[j] > 0, R, 0.0)
        remaining = work_a[j] - saved[j]
        eff_r = np.minimum(eff_interval[j], remaining)
        done_wall = total_wall_arr(remaining, eff_r, O)
        need_wall = recovery + done_wall
        # Death: the next above-bid segment strictly after the launch
        # segment (the launch segment itself is at/below the bid, so the
        # scalar's death <= launch branch is unreachable).
        death = tb.times_ext[tb.nxt_above_ext[np.minimum(sj + 1, n)]]
        horizon = np.minimum(t1[j], lj + need_wall)
        died = death < horizon
        run_end = np.where(died, death, horizon)
        avail = np.maximum(0.0, (run_end - lj) - recovery)
        k_done = checkpoints_completed_arr(remaining, remaining, eff_r)
        productive, newly_saved, n_ckpt = progress_after_wall_arr(
            avail, remaining, eff_r, O, done_wall, k_done
        )
        b = np.flatnonzero(run_end > lj)
        cost[j[b]] += billed_cost_batch(
            trace, lj[b], np.minimum(run_end[b], trace.end_time), died[b],
            billing,
        ) * spec.n_instances
        productive_tot[j] += productive
        ckpts_tot[j] += n_ckpt
        comp = productive >= remaining - 1e-9

        cj = j[comp]
        saved[cj] = work_a[cj]
        end[cj] = run_end[comp]
        dead[cj] = False
        completed[cj] = True
        active[cj] = False

        dmask = died & ~comp  # relaunch next round from the death time
        dj = j[dmask]
        saved[dj] = saved[dj] + newly_saved[dmask]
        now[dj] = run_end[dmask]
        dead[dj] = True
        end[dj] = run_end[dmask]

        smask = ~died & ~comp  # survived to the window boundary: bank
        if smask.any():
            sjj = j[smask]
            boundary = np.maximum(0.0, avail[smask] - O)
            banked, _s, _n = progress_after_wall_arr(
                boundary, remaining[smask], eff_r[smask], O,
                done_wall[smask], k_done[smask],
            )
            saved[sjj] = saved[sjj] + np.maximum(newly_saved[smask], banked)
            end[sjj] = run_end[smask]
            dead[sjj] = False
            active[sjj] = False

    return GroupColumns(
        launched=~np.isnan(first_launch),
        launch=first_launch,
        end=end,
        terminated=dead,
        completed=completed,
        productive=productive_tot,
        saved=np.minimum(saved, work_a),
        n_ckpt=ckpts_tot,
        spot_cost=cost,
    )


@dataclass(eq=False)
class _Windows:
    """Every group of a decision over per-sample windows, after the
    completion cut-back; ``end`` is the window's horizon where a group
    never launched, as the scalar records it."""

    groups: GroupColumns  # (n_groups, n_samples)
    t_done: np.ndarray  # first completion instant (+inf: none)
    winner: np.ndarray  # decision index of the first group to complete
    any_comp: np.ndarray

    def spot_total(self) -> np.ndarray:
        """Per-sample spot dollars, ``c0 + c1 + ...`` in decision order."""
        total = np.zeros(self.t_done.size)
        for cost in self.groups.spot_cost:
            total = total + cost
        return total

    def all_dead(self) -> np.ndarray:
        return self.groups.terminated.all(axis=0)


def _replay_windows(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    t0: np.ndarray,
    t1: np.ndarray,
    works: Optional[np.ndarray],
    persistent: bool,
    billing: BillingPolicy,
    table_cache: bool,
) -> _Windows:
    """The array core of :func:`replay_window_batch` (decisions with at
    least one group)."""
    obs.get_metrics().inc("replay.window_batches")
    ctxs = []
    for g, gd in enumerate(decision.groups):
        spec = problem.groups[gd.group_index]
        trace = history.get(spec.key)
        if np.any(t1 > trace.end_time):
            i = int(np.flatnonzero(t1 > trace.end_time)[0])
            raise TraceError(
                f"trace for {spec.key} ends at {trace.end_time}, "
                f"window needs {t1[i]}"
            )
        if t0.size and t0.min() < trace.start_time:
            bad = t0[t0 < trace.start_time][0]
            raise TraceError(
                f"t0={bad} outside trace window "
                f"[{trace.start_time}, {trace.end_time})"
            )
        ctxs.append(_group_ctx(spec, gd, trace, cache=table_cache))

    runner = _run_group_persistent_batch if persistent else _run_group_batch
    runs = [
        runner(
            ctx, t0, t1,
            work=None if works is None else works[g],
            billing=billing,
        )
        for g, ctx in enumerate(ctxs)
    ]

    # Completion cut-back (replay_window's second pass): every other
    # group is clipped to the first completion instant and recomputed.
    comp_end = np.where(
        np.stack([r.completed for r in runs]),
        np.stack([r.end for r in runs]),
        np.inf,
    )
    t_done = comp_end.min(axis=0)
    winner = comp_end.argmin(axis=0)  # first index on ties, like min(tuples)
    any_comp = np.isfinite(t_done)
    rerun = np.flatnonzero(any_comp & (t_done > t0))
    if rerun.size:
        for g, ctx in enumerate(ctxs):
            # The winner completed *at* t_done — its first-pass record is
            # already clipped correctly, and recomputing against the
            # completion horizon can only degrade it at float edges, so
            # (like replay_window) only the losing groups are recomputed.
            idx = rerun[winner[rerun] != g]
            if idx.size == 0:
                continue
            sub = runner(
                ctx, t0[idx], t_done[idx],
                work=None if works is None else works[g][idx],
                billing=billing,
            )
            for f in fields(GroupColumns):
                getattr(runs[g], f.name)[idx] = getattr(sub, f.name)

    groups = GroupColumns.stack(runs)
    groups.end = np.where(
        groups.launched, groups.end, np.where(any_comp, t_done, t1)
    )
    return _Windows(groups, t_done, winner, any_comp)


def replay_window_batch(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    t0: np.ndarray,
    t1: np.ndarray,
    works: Optional[np.ndarray] = None,
    persistent: bool = False,
    billing: BillingPolicy = CONTINUOUS,
    table_cache: bool = True,
) -> list[WindowOutcome]:
    """Batched :func:`repro.execution.replay.replay_window` over
    per-element windows ``[t0_i, t1_i)``.

    ``works`` optionally carries per-sample remaining work, shaped
    ``(n_groups, n_samples)`` — the adaptive executor's batched step,
    where sample *i*'s scaled sub-problem owes ``works[g, i]`` hours of
    group *g* (``fraction_done`` is folded into ``works`` by the caller,
    so the outcome's ``gained_fraction`` is relative to ``works``).
    Outcomes are bit-identical to per-sample ``replay_window`` calls on
    the correspondingly scaled problems.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if np.any(t1 <= t0):
        i = int(np.flatnonzero(t1 <= t0)[0])
        raise ConfigurationError(f"empty window [{t0[i]}, {t1[i]})")
    if not decision.groups:
        return [
            WindowOutcome((), 0.0, False, None, None, 0.0, float(t))
            for t in t0
        ]
    w = _replay_windows(
        problem, decision, history, t0, t1, works, persistent, billing,
        table_cache,
    )
    gained = np.zeros(t0.size)
    for g, gd in enumerate(decision.groups):
        work = problem.groups[gd.group_index].exec_time if works is None else works[g]
        gained = np.maximum(gained, w.groups.saved[g] / work)
    meta = _group_meta(problem, decision)
    keys = [str(key) for key, _, _ in meta]
    outcomes = []
    for records, cost, done, t_done, winner, gain, dead, dead_at in zip(
        w.groups.records(meta),
        w.spot_total().tolist(), w.any_comp.tolist(), w.t_done.tolist(),
        w.winner.tolist(), gained.tolist(), w.all_dead().tolist(),
        w.groups.end.max(axis=0).tolist(),
    ):
        if done:
            outcomes.append(
                WindowOutcome(records, cost, True, keys[winner], t_done, 1.0, None)
            )
        else:
            outcomes.append(
                WindowOutcome(
                    records, cost, False, None, None, gain,
                    dead_at if dead else None,
                )
            )
    return outcomes


def replay_batch(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    starts: np.ndarray,
    horizon: Optional[float] = None,
    semantics: str = "single-shot",
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
    table_cache: bool = True,
) -> RunBatch:
    """Replay ``decision`` from every start in ``starts``.

    ``replay_batch(...).results()`` equals ``[replay_decision(problem,
    decision, history, t, horizon=horizon, semantics=semantics,
    billing=billing, account_storage=account_storage) for t in
    starts]``; the batch itself keeps the outcomes as arrays.  With
    audit or tracing on, every sample's result also goes through
    :func:`~.replay.observe_result`, as a scalar replay's does.
    """
    if semantics not in SEMANTICS:
        raise ConfigurationError(
            f"unknown semantics {semantics!r}; known: {SEMANTICS}"
        )
    starts = np.asarray(starts, dtype=float)
    obs.get_metrics().inc("replay.batch_starts", starts.size)
    n = starts.size
    ondemand = problem.ondemand_options[decision.ondemand_index]
    if not decision.groups:
        batch = RunBatch(
            problem=problem, decision=decision, start=starts,
            cost=np.full(n, ondemand.full_run_cost),
            makespan=np.full(n, ondemand.exec_time),
            completed_code=np.full(n, ONDEMAND, dtype=np.int64),
            ondemand_hours=np.full(n, ondemand.exec_time),
            ondemand_ratio=np.ones(n), groups=GroupColumns.empty(n),
            spot=np.zeros(n), ondemand=np.full(n, ondemand.full_run_cost),
            storage=np.zeros(n),
        )
    else:
        batch = _replay_decision_batch(
            problem, decision, history, starts, horizon, semantics, billing,
            account_storage, table_cache,
        )
    if obs.audit_enabled() or obs.trace_active():
        batch._materialise((history, billing, semantics, account_storage))
    return batch


def _replay_decision_batch(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    starts: np.ndarray,
    horizon: Optional[float],
    semantics: str,
    billing: BillingPolicy,
    account_storage: bool,
    table_cache: bool,
) -> RunBatch:
    """:func:`replay_batch` for a decision with spot groups."""
    if horizon is None:
        horizon = decision_horizon(problem, decision)
    t1 = starts + horizon
    for gd in decision.groups:
        spec = problem.groups[gd.group_index]
        trace = history.get(spec.key)
        if starts.size and (
            starts.min() < trace.start_time or starts.max() >= trace.end_time
        ):
            bad = starts[
                (starts < trace.start_time) | (starts >= trace.end_time)
            ][0]
            raise TraceError(
                f"t0={bad} outside trace window "
                f"[{trace.start_time}, {trace.end_time})"
            )
        t1 = np.minimum(t1, trace.end_time)
    if np.any(t1 <= starts):
        raise TraceError("no trace data at the requested start time")

    w = _replay_windows(
        problem, decision, history, starts, t1, None,
        semantics == "persistent", billing, table_cache,
    )
    groups = w.groups
    # On-demand recovery from the best checkpoint (Formula 7) where no
    # group completed; the scalar's per-group min() in decision order.
    ratio = np.ones(starts.size)
    for g, gd in enumerate(decision.groups):
        spec = problem.groups[gd.group_index]
        saved = groups.saved[g]
        r = (spec.exec_time - saved + spec.recovery_overhead) / spec.exec_time
        ratio = np.where(
            saved > 0, np.minimum(ratio, np.maximum(0.0, np.minimum(1.0, r))),
            ratio,
        )
    ondemand = problem.ondemand_options[decision.ondemand_index]
    done = w.any_comp
    od_start = np.where(w.all_dead(), groups.end.max(axis=0), t1)
    od_hours = np.where(done, 0.0, ratio * ondemand.exec_time)
    od_cost = od_hours * ondemand.fleet_rate
    finish = np.where(done, w.t_done, od_start + od_hours)
    makespan = np.where(done, w.t_done - starts, (od_start - starts) + od_hours)
    if account_storage:
        storage = checkpoint_storage_cost_batch(
            problem, decision, groups.launched, groups.launch, groups.n_ckpt,
            finish,
        )
    else:
        storage = np.zeros(starts.size)
    spot = w.spot_total()
    return RunBatch(
        problem=problem,
        decision=decision,
        start=starts,
        cost=(spot + od_cost) + storage,
        makespan=makespan,
        completed_code=np.where(done, w.winner, ONDEMAND).astype(np.int64),
        ondemand_hours=od_hours,
        ondemand_ratio=np.where(done, 1.0, ratio),
        groups=groups,
        spot=spot,
        ondemand=od_cost,
        storage=storage,
    )
