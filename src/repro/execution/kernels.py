"""Shared array kernels for batched trace replay.

Everything the batched replay paths (:mod:`.batch_replay`) need to turn
per-sample ``while`` loops into level-by-level array iteration lives
here:

* **Per-(trace, bid) index tables** — the ``searchsorted`` scaffolding
  (segment times with a ``+inf`` sentinel, the below-bid mask, and the
  next-launch / next-death segment indices) that resolves every
  ``first_at_or_below`` / ``first_exceedance`` query in O(log n) instead
  of an O(n) suffix scan.  The planner and the Monte-Carlo evaluator
  replay the *same* (trace, bid) pairs thousands of times, so the tables
  are promoted into a shared cache alongside the planner's group-table
  caches: gated by ``config.table_cache`` semantics (callers pass
  ``cache=False`` to opt out), cleared by
  :func:`repro.core.two_level.clear_shared_caches`, and evicted
  automatically when the trace is garbage collected.

* **Vectorised checkpoint-timeline arithmetic** — elementwise versions
  of :func:`repro.core.ckpt_math.checkpoints_completed`,
  :func:`~repro.core.ckpt_math.total_wall` and
  :func:`~repro.core.ckpt_math.progress_after_wall` with the identical
  branch structure and float operations, so batched results are
  bit-identical to the scalar loop they replace.

* **Batched spot billing** — :func:`billed_cost_batch` bills every run
  window of a replay batch (or of one persistent relaunch round) in one
  call: hourly policies level by level over the hour index, continuous
  billing with the window bounds resolved at once and the scalar's
  per-window ``np.dot`` kept.

* **Batched checkpoint storage** — :func:`checkpoint_storage_cost_batch`
  prices the stored checkpoint images of every sample of a replay batch,
  checkpoint by checkpoint across the batch in the scalar's order.

Bit-identity is the hard contract of the whole kernel layer (DESIGN.md
§8): same IEEE ops in the same order, verified by the parity tests and
the :mod:`repro.obs` audit layer.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from ..cloud.s3 import HOURS_PER_MONTH, PRICE_PER_GB_MONTH
from ..core.two_level import register_cache_clearer
from ..errors import TraceError
from ..units import BYTES_PER_GB

#: Scalar reference for every public kernel (reprolint R004): each entry
#: pairs a vectorized function with the dotted path of the scalar code
#: it must be bit-identical to, and the name must be exercised by
#: tests/test_batch_parity.py.
KERNEL_ORACLES = {
    "trace_tables": "repro.cloud.spot.first_at_or_below",
    "billed_cost_batch": "repro.cloud.spot.billed_spot_cost",
    "checkpoint_storage_cost_batch": (
        "repro.execution.replay.checkpoint_storage_cost"
    ),
    "checkpoints_completed_arr": "repro.core.ckpt_math.checkpoints_completed",
    "total_wall_arr": "repro.core.ckpt_math.total_wall",
    "progress_after_wall_arr": "repro.core.ckpt_math.progress_after_wall",
}


# ----------------------------------------------------------------------
# Per-(trace, bid) index tables
# ----------------------------------------------------------------------

@dataclass
class TraceBidTables:
    """Precomputed launch/death scaffolding for one (trace, bid) pair."""

    times: np.ndarray  # segment start times
    times_ext: np.ndarray  # times with +inf sentinel (index n = "never")
    below: np.ndarray  # prices <= bid per segment
    nxt_below_ext: np.ndarray  # smallest j >= i with prices[j] <= bid, else n
    nxt_above_ext: np.ndarray  # smallest j >= i with prices[j] >  bid, else n

    @property
    def n_segments(self) -> int:
        return int(self.below.size)


def _next_index(mask: np.ndarray) -> np.ndarray:
    """``out[i]`` = smallest ``j >= i`` with ``mask[j]``, else ``n``;
    length ``n + 1`` so a query one past the end is the sentinel."""
    n = mask.size
    pos = np.where(mask, np.arange(n), n)
    nxt = np.minimum.accumulate(pos[::-1])[::-1]
    return np.concatenate([nxt, [n]])


def _build_tables(trace, bid: float) -> TraceBidTables:
    below = trace.prices <= bid
    return TraceBidTables(
        times=trace.times,
        times_ext=np.concatenate([trace.times, [np.inf]]),
        below=below,
        nxt_below_ext=_next_index(below),
        nxt_above_ext=_next_index(~below),
    )


# The cache is keyed by (id(trace), bid): traces are immutable value
# objects but define __eq__ without __hash__, so identity is the right
# key — and a weakref finalizer evicts the entry the moment the trace
# dies, which means there are no invalidation rules to get wrong (a new
# trace is a new identity, exactly like the planner's per-model caches).
_TABLE_CACHE: dict[tuple[int, float], TraceBidTables] = {}
_TABLE_FINALIZERS: dict[int, object] = {}

#: Disk tier cutoff: below this many segments, rebuilding the tables is
#: cheaper than one ``.npz`` round-trip, so small traces never touch the
#: artifact store (the memory tier still serves repeats).
_STORE_MIN_SEGMENTS = 4096


def _artifact_io(trace, bid: float):
    """(store, key) for this pair, or ``(None, None)`` when the disk
    tier is off (no store configured, or the trace is too small to pay
    for a round-trip)."""
    if trace.prices.size < _STORE_MIN_SEGMENTS:
        return None, None
    from ..config import DEFAULT_CONFIG
    from .artifacts import engine_fingerprint, get_store

    store = get_store(DEFAULT_CONFIG)
    if store is None:
        return None, None
    from ..core.keys import hash_key

    return store, hash_key(
        trace.content_hash(), float(bid), engine_fingerprint()
    )


def _tables_from_store(trace, bid: float) -> TraceBidTables | None:
    """Reload the (trace, bid) tables from disk; ``None`` on any miss.

    Only the bid-dependent arrays are persisted — ``times`` /
    ``times_ext`` are rebuilt from the trace itself, which is exact
    because the artifact key embeds the trace *content* hash.
    """
    store, key = _artifact_io(trace, bid)
    if store is None:
        return None
    arrays = store.load("trace_bid", key)
    if arrays is None:
        return None
    n = trace.prices.size
    below = arrays.get("below")
    nxt_below = arrays.get("nxt_below_ext")
    nxt_above = arrays.get("nxt_above_ext")
    if (
        below is None or nxt_below is None or nxt_above is None
        or below.shape != (n,) or below.dtype != np.bool_
        or nxt_below.shape != (n + 1,) or nxt_above.shape != (n + 1,)
    ):
        return None
    return TraceBidTables(
        times=trace.times,
        times_ext=np.concatenate([trace.times, [np.inf]]),
        below=below,
        nxt_below_ext=nxt_below,
        nxt_above_ext=nxt_above,
    )


def _tables_to_store(trace, bid: float, tables: TraceBidTables) -> None:
    store, key = _artifact_io(trace, bid)
    if store is not None:
        store.save("trace_bid", key, {
            "below": tables.below,
            "nxt_below_ext": tables.nxt_below_ext,
            "nxt_above_ext": tables.nxt_above_ext,
        })


def _evict_trace(trace_id: int) -> None:
    _TABLE_FINALIZERS.pop(trace_id, None)
    for key in [k for k in _TABLE_CACHE if k[0] == trace_id]:
        del _TABLE_CACHE[key]


# reprolint: disable=R004 -- cache plumbing, not a vectorized kernel
def clear_table_cache() -> None:
    """Drop every cached (trace, bid) table (tests, memory pressure)."""
    _TABLE_CACHE.clear()
    for fin in _TABLE_FINALIZERS.values():
        fin.detach()
    _TABLE_FINALIZERS.clear()


register_cache_clearer(clear_table_cache)


# reprolint: disable=R004 -- cache introspection, not a vectorized kernel
def table_cache_size() -> int:
    return len(_TABLE_CACHE)


def trace_tables(trace, bid: float, cache: bool = True) -> TraceBidTables:
    """The (trace, bid) index tables, served from the shared cache.

    Two tiers: the in-process ``_TABLE_CACHE`` above, then (for traces
    with at least ``_STORE_MIN_SEGMENTS`` segments) the on-disk
    artifact store keyed by trace content + engine fingerprint, so a
    cold process skips the build for big markets.  ``cache=False``
    recomputes from scratch (the ``config.table_cache`` opt-out);
    results are identical on every tier.
    """
    if not cache:
        return _build_tables(trace, float(bid))
    key = (id(trace), float(bid))
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        tables = _tables_from_store(trace, float(bid))
        if tables is None:
            tables = _build_tables(trace, float(bid))
            _tables_to_store(trace, float(bid), tables)
        _TABLE_CACHE[key] = tables
        if key[0] not in _TABLE_FINALIZERS:
            _TABLE_FINALIZERS[key[0]] = weakref.finalize(
                trace, _evict_trace, key[0]
            )
    return tables


# ----------------------------------------------------------------------
# Spot billing and checkpoint storage (bit-identical to
# cloud.spot.billed_spot_cost and replay.checkpoint_storage_cost)
# ----------------------------------------------------------------------

def billed_cost_batch(trace, launch, end, interrupted, policy) -> np.ndarray:
    """Elementwise :func:`repro.cloud.spot.billed_spot_cost` over arrays
    of run windows ``[launch[i], end[i])`` with ``interrupted[i]``.

    Hourly policies walk the hour index ``k`` level by level, like the
    persistent relaunch rounds: each level prices, with one
    ``searchsorted``, every element that still owes hour ``k`` (its
    whole hours, then the partial hour unless refunded), so each
    element's ``price * g`` terms are added in the scalar's order.
    Continuous billing resolves every window's segment bounds at once
    and keeps the scalar's per-window ``np.dot`` over the same float64
    values: a batched reduction would round differently.  Raises
    :class:`TraceError` for the inputs the scalar rejects.
    """
    launch = np.asarray(launch, dtype=float)
    end = np.asarray(end, dtype=float)
    if np.any(end < launch):
        i = int(np.flatnonzero(end < launch)[0])
        raise TraceError(f"billing bounds reversed: [{launch[i]}, {end[i]}]")
    cost = np.zeros(launch.size)
    times = trace.times
    g = getattr(policy, "granularity_hours", 0.0)
    if not g:  # granularity 0 = continuous billing (BillingPolicy.is_continuous)
        run = np.flatnonzero(end > launch)
        t0, t1 = launch[run], end[run]
        if run.size and not (times[0] <= t0.min() and t1.max() <= trace.end_time):
            raise TraceError(
                f"slice [{t0.min()}, {t1.max()}) outside window "
                f"[{trace.start_time}, {trace.end_time})"
            )
        lo = np.searchsorted(times, t0, side="right") - 1
        hi = np.searchsorted(times, t1, side="left")
        # Window breakpoints: the segment edges over [lo, hi] with t0, t1
        # cut in; their differences are integrate_price's durations.
        edges = np.append(times, trace.end_time)
        for i, a, b, s, e in zip(run, lo.tolist(), hi.tolist(), t0, t1):
            w = edges[a : b + 1].copy()
            w[0], w[-1] = s, e
            cost[i] = float(np.dot(trace.prices[a:b], w[1:] - w[:-1]))
        return cost
    duration = end - launch
    n_full = np.floor(duration / g + 1e-12)
    refund = getattr(policy, "refund_interrupted_hour", False)
    free = np.asarray(interrupted, dtype=bool) & refund
    owe_partial = (duration - n_full * g > 1e-12) & ~free
    n_hours = n_full + owe_partial
    idx = np.flatnonzero(n_hours > 0)
    k = 0
    while idx.size:
        # A lookup past the trace end lands in the last segment, as the
        # scalar's clamp to nextafter(end_time, -inf) does.
        at = launch[idx] + k * g
        if not at.min() >= times[0]:  # price_at's window check (NaN too)
            raise TraceError(
                f"t={at.min()} outside trace window "
                f"[{trace.start_time}, {trace.end_time})"
            )
        seg = np.searchsorted(times, at, side="right") - 1
        cost[idx] += trace.prices[seg] * g
        k += 1
        idx = idx[n_hours[idx] > k]
    return cost


def checkpoint_storage_cost_batch(
    problem,
    decision,
    launched: np.ndarray,
    launch: np.ndarray,
    n_ckpt: np.ndarray,
    run_end: np.ndarray,
) -> np.ndarray:
    """Elementwise :func:`repro.execution.replay.checkpoint_storage_cost`
    over a replay batch.

    ``launched`` / ``launch`` / ``n_ckpt`` are ``(n_groups, n_samples)``
    record columns in decision order, ``run_end`` the per-sample instant
    the last image stops being stored.  Each sample accumulates its
    groups in decision order and each group's images in write order, as
    the scalar does; the ``k``-th image of every sample that wrote one is
    priced in one array step.
    """
    total = np.zeros(run_end.size)
    for g, gd in enumerate(decision.groups):
        spec = problem.groups[gd.group_index]
        if spec.image_bytes <= 0:
            continue
        work = spec.exec_time
        eff_interval = min(gd.interval, work) if work > 0 else gd.interval
        cycle = eff_interval + spec.checkpoint_overhead
        gb = spec.image_bytes / BYTES_PER_GB
        count = np.where(launched[g], n_ckpt[g], 0)
        idx = np.flatnonzero(count > 0)
        k = 0
        while idx.size:
            start = launch[g][idx]
            t_write = start + (k + 1) * cycle
            t_next = np.where(
                count[idx] > k + 1, start + (k + 2) * cycle, run_end[idx]
            )
            total[idx] += gb * np.maximum(0.0, t_next - t_write)
            k += 1
            idx = idx[count[idx] > k]
    return total * PRICE_PER_GB_MONTH / HOURS_PER_MONTH


# ----------------------------------------------------------------------
# Vectorised checkpoint-timeline arithmetic (bit-identical to ckpt_math)
# ----------------------------------------------------------------------

def checkpoints_completed_arr(
    productive: np.ndarray, exec_time: np.ndarray, interval: np.ndarray
) -> np.ndarray:
    """Elementwise :func:`repro.core.ckpt_math.checkpoints_completed`.

    Returns float counts (exact small integers); the scalar's ``while``
    decrement loop becomes a masked decrement iterated to fixpoint,
    which performs the identical comparisons in the identical order per
    element.
    """
    k = np.floor(productive / interval + 1e-12)
    while True:
        over = (k >= 1.0) & (k * interval >= exec_time - 1e-12)
        if not over.any():
            return k
        k = np.where(over, k - 1.0, k)


def total_wall_arr(
    exec_time: np.ndarray, interval: np.ndarray, overhead: float
) -> np.ndarray:
    """Elementwise :func:`repro.core.ckpt_math.total_wall`."""
    k = checkpoints_completed_arr(exec_time, exec_time, interval)
    return exec_time + overhead * k


def progress_after_wall_arr(
    wall: np.ndarray,
    exec_time: np.ndarray,
    interval: np.ndarray,
    overhead: float,
    done_wall: np.ndarray,
    k_done: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise :func:`repro.core.ckpt_math.progress_after_wall`.

    ``exec_time`` / ``interval`` may be scalars or per-element arrays
    (the persistent kernel re-enters with per-sample remaining work);
    ``done_wall`` / ``k_done`` are the matching precomputed completion
    wall time and checkpoint count.  Identical branch structure and
    float operations to the scalar, elementwise.
    """
    cycle = interval + overhead
    k_full = np.floor(wall / cycle + 1e-12)
    rem = wall - k_full * cycle
    productive = np.where(
        rem <= interval + 1e-12, k_full * interval + rem, (k_full + 1.0) * interval
    )
    productive = np.minimum(productive, exec_time)
    saved = np.minimum(k_full * interval, productive)
    done = wall >= done_wall - 1e-12
    productive = np.where(done, exec_time, productive)
    saved = np.where(done, exec_time, saved)
    n_ckpt = np.where(done, k_done, k_full).astype(np.int64)
    return productive, saved, n_ckpt
