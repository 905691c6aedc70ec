"""Bit-identity of the batched kernels against their scalar references.

The kernel layer's hard contract (DESIGN.md §8) is that every batched
path — single-shot and persistent spot semantics, hourly billing,
checkpoint-storage accounting, the adaptive executor's window batching,
and the event-level trace sampler — performs the identical IEEE
operations in the identical order as the scalar code it replaced.
These tests drive both sides on spiky generated markets and demand
*exact* float equality (no tolerances anywhere), across multiple seeds
and both billing policies, with the audit invariants switched on.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.cloud.billing import CONTINUOUS, HOURLY, BillingPolicy
from repro.cloud.instance_types import get_instance_type
from repro.core.bid_search import log_bid_candidates
from repro.core.cost_model import (
    Expectation,
    GroupOutcome,
    evaluate,
    expected_max,
    expected_min,
)
from repro.core.grid_eval import (
    bid_matrix_rows,
    group_table_grid,
    outcome_grid,
)
from repro.core.interval import (
    _interval_candidates,
    optimal_interval,
    young_interval,
)
from repro.core.problem import Decision, GroupDecision, OnDemandOption, Problem
from repro.core.two_level import clear_shared_caches
from repro.errors import TraceError
from repro.execution.adaptive import AdaptiveExecutor
from repro.execution.batch_replay import (
    RunBatch,
    replay_batch,
    replay_window_batch,
)
from repro.execution.kernels import table_cache_size
from repro.execution.montecarlo import sample_start_times
from repro.execution.replay import (
    checkpoint_storage_cost,
    replay_decision,
    replay_window,
)
from repro.execution.results import ONDEMAND, GroupRunRecord, MonteCarloSummary
from repro.market.failure import FailureModel
from repro.market.generator import (
    RegimeSwitchingGenerator,
    SpotMarketParams,
    _sample_grid_reference,
)
from repro.market.history import MarketKey, SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from repro.units import BYTES_PER_GB
from tests.conftest import make_group

SEEDS = (3, 17, 91)
BILLINGS = (
    CONTINUOUS,
    HOURLY,
    BillingPolicy(granularity_hours=1.0, refund_interrupted_hour=False),
)
BILLING_IDS = ("continuous", "hourly", "hourly-no-refund")

_SPIKY = SpotMarketParams(
    base_price=0.05,
    calm_volatility=0.08,
    calm_change_rate=1.5,
    spike_rate=0.12,
    spike_magnitude=8.0,
    spike_duration_mean=0.8,
)
_CALMER = SpotMarketParams(
    base_price=0.04,
    calm_change_rate=0.8,
    spike_rate=0.05,
    spike_duration_mean=1.5,
)


def spiky_setup(seed, image_gb=2.0):
    """Two groups on generated spiky markets (deaths + relaunches)."""
    g1 = make_group(exec_time=6.0, overhead=0.4, recovery=0.5, n_instances=2)
    g2 = dataclasses.replace(
        make_group(zone="us-east-1b", exec_time=6.0, overhead=0.3,
                   recovery=0.4, n_instances=2),
        image_bytes=image_gb * BYTES_PER_GB,
    )
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g1, g2), ondemand_options=(od,), deadline=40.0)
    h = SpotPriceHistory()
    for key, params, sub in ((g1.key, _SPIKY, 0), (g2.key, _CALMER, 1)):
        gen = RegimeSwitchingGenerator(
            params, np.random.default_rng(1000 * seed + sub)
        )
        h.add(key, gen.generate(400.0))
    decision = Decision(
        groups=(GroupDecision(0, 0.075, 2.0), GroupDecision(1, 0.06, 1.5)),
        ondemand_index=0,
    )
    return problem, decision, h


def assert_runs_equal(a, b, ctx=""):
    assert (a.start_time, a.cost, a.makespan, a.completed_by,
            a.ondemand_hours) == (
        b.start_time, b.cost, b.makespan, b.completed_by, b.ondemand_hours
    ), ctx
    assert tuple(a.group_records) == tuple(b.group_records), ctx
    assert a.ledger.items == b.ledger.items, ctx


def reference_summary(results, deadline):
    """The per-result statistics :meth:`MonteCarloSummary.from_results`
    computed before it became an adapter over ``from_arrays``."""
    costs = np.array([r.cost for r in results])
    times = np.array([r.makespan for r in results])
    misses = (
        float(np.mean([not r.met_deadline(deadline) for r in results]))
        if deadline is not None
        else 0.0
    )
    return MonteCarloSummary(
        n_samples=len(results),
        mean_cost=float(costs.mean()),
        std_cost=float(costs.std()),
        mean_time=float(times.mean()),
        std_time=float(times.std()),
        p95_cost=float(np.percentile(costs, 95)),
        p95_time=float(np.percentile(times, 95)),
        deadline_miss_rate=misses,
        spot_completion_rate=float(np.mean(
            [r.completed_by not in (None, "ondemand") for r in results]
        )),
        ondemand_fallback_rate=float(np.mean(
            [r.completed_by == "ondemand" for r in results]
        )),
    )


class TestReplayBatchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("billing", [CONTINUOUS, HOURLY],
                             ids=["continuous", "hourly"])
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    @pytest.mark.parametrize("account_storage", [False, True],
                             ids=["nostorage", "storage"])
    def test_batch_matches_scalar(self, seed, billing, semantics,
                                  account_storage):
        problem, decision, h = spiky_setup(seed)
        starts = sample_start_times(
            problem, decision, h, 12, np.random.default_rng(seed)
        )
        scalar = [
            replay_decision(
                problem, decision, h, float(t), semantics=semantics,
                billing=billing, account_storage=account_storage,
            )
            for t in starts
        ]
        batch = replay_batch(
            problem, decision, h, starts, semantics=semantics,
            billing=billing, account_storage=account_storage,
        ).results()
        assert len(batch) == len(scalar)
        for a, b in zip(scalar, batch):
            assert_runs_equal(a, b, f"{seed}/{billing}/{semantics}")

    @pytest.mark.parametrize("seed", SEEDS[:2])
    @pytest.mark.parametrize("billing", [CONTINUOUS, HOURLY],
                             ids=["continuous", "hourly"])
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    @pytest.mark.parametrize("account_storage", [False, True],
                             ids=["nostorage", "storage"])
    def test_summary_from_arrays_matches_from_results(
        self, seed, billing, semantics, account_storage
    ):
        problem, decision, h = spiky_setup(seed)
        starts = sample_start_times(
            problem, decision, h, 40, np.random.default_rng(seed)
        )
        batch = replay_batch(
            problem, decision, h, starts, semantics=semantics,
            billing=billing, account_storage=account_storage,
        )
        scalar = [
            replay_decision(
                problem, decision, h, float(t), semantics=semantics,
                billing=billing, account_storage=account_storage,
            )
            for t in starts
        ]
        for deadline in (None, 8.0, problem.deadline):
            got = MonteCarloSummary.from_arrays(
                batch.cost, batch.makespan, batch.completed_code, deadline
            )
            want = MonteCarloSummary.from_results(scalar, deadline)
            assert got == want
            assert repr(got) == repr(want)  # float reprs round-trip exactly
            assert repr(got) == repr(reference_summary(scalar, deadline))
            assert batch.summary(deadline) == got

    def test_from_results_keeps_unfinished_runs_as_misses(self):
        """A hand-built result that never finished counts as a deadline
        miss and as neither completion kind, as before."""
        problem, decision, h = spiky_setup(SEEDS[0])
        starts = sample_start_times(
            problem, decision, h, 6, np.random.default_rng(2)
        )
        results = replay_batch(problem, decision, h, starts).results()
        results[1] = dataclasses.replace(results[1], completed_by=None)
        for deadline in (None, 1.0, 100.0):
            got = MonteCarloSummary.from_results(results, deadline)
            assert repr(got) == repr(reference_summary(results, deadline))

    def test_batch_columns_match_results(self):
        """The ledger columns are the ledger's categories, per sample."""
        problem, decision, h = spiky_setup(SEEDS[0])
        starts = sample_start_times(
            problem, decision, h, 30, np.random.default_rng(5)
        )
        batch = replay_batch(problem, decision, h, starts, billing=HOURLY,
                             account_storage=True)
        assert len(batch) == 30
        codes = set(batch.completed_code.tolist())
        assert ONDEMAND in codes and codes - {ONDEMAND}  # both outcomes
        for i, r in enumerate(batch.results()):
            spot = sum(rec.spot_cost for rec in r.group_records)
            assert batch.spot[i] == spot
            assert batch.ondemand[i] == r.ledger.total("ondemand")
            assert batch.storage[i] == r.ledger.total("storage")
            assert batch.cost[i] == r.cost

    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    def test_ondemand_only_decision(self, semantics):
        problem, _, h = spiky_setup(SEEDS[0])
        decision = Decision(groups=(), ondemand_index=0)
        starts = np.array([1.0, 50.0, 120.5])
        batch = replay_batch(problem, decision, h, starts, semantics=semantics)
        for t, got in zip(starts, batch.results()):
            want = replay_decision(
                problem, decision, h, float(t), semantics=semantics
            )
            assert_runs_equal(want, got, semantics)
        assert batch.groups.launched.shape == (0, 3)

    def test_empty_batch(self):
        problem, decision, h = spiky_setup(SEEDS[0])
        batch = replay_batch(problem, decision, h, np.zeros(0))
        assert len(batch) == 0 and batch.results() == []

    def test_concat_matches_one_batch(self):
        problem, decision, h = spiky_setup(SEEDS[1])
        starts = sample_start_times(
            problem, decision, h, 11, np.random.default_rng(1)
        )
        whole = replay_batch(problem, decision, h, starts,
                             semantics="persistent", account_storage=True)
        parts = RunBatch.concat([
            replay_batch(problem, decision, h, chunk, semantics="persistent",
                         account_storage=True)
            for chunk in np.array_split(starts, 3)
        ])
        for name in ("start", "cost", "makespan", "completed_code",
                     "ondemand_hours", "spot", "ondemand", "storage"):
            assert getattr(parts, name).tobytes() == getattr(whole, name).tobytes()
        for name in ("launched", "launch", "end", "saved", "n_ckpt",
                     "spot_cost"):
            a, b = getattr(parts.groups, name), getattr(whole.groups, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert parts.results() == whole.results()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["single-shot", "persistent"])
    def test_window_batch_matches_scalar(self, seed, persistent):
        problem, decision, h = spiky_setup(seed)
        t0s = np.random.default_rng(seed).uniform(0.0, 350.0, 8)
        outcomes = replay_window_batch(
            problem, decision, h, t0s, t0s + 20.0, persistent=persistent
        )
        for t0, got in zip(t0s, outcomes):
            want = replay_window(
                problem, decision, h, float(t0), float(t0) + 20.0,
                persistent=persistent,
            )
            assert got == want

    def test_audit_invariants_hold_on_batch_paths(self):
        problem, decision, h = spiky_setup(SEEDS[0])
        starts = sample_start_times(
            problem, decision, h, 10, np.random.default_rng(0)
        )
        with obs.audited():
            for semantics in ("single-shot", "persistent"):
                for billing in (CONTINUOUS, HOURLY):
                    replay_batch(
                        problem, decision, h, starts, semantics=semantics,
                        billing=billing, account_storage=True,
                    )


class TestAdaptiveBatchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    def test_run_many_matches_fresh_executors(self, seed, semantics,
                                              small_env):
        problem, decision, h = spiky_setup(seed)
        cfg = small_env.config.with_(window_hours=8.0)
        starts = [80.0 + 7.0 * i for i in range(4)]
        batched = AdaptiveExecutor(
            problem, h, cfg, semantics=semantics, account_storage=True
        ).run_many(starts)
        for t0, got in zip(starts, batched):
            want = AdaptiveExecutor(
                problem, h, cfg, semantics=semantics, account_storage=True
            ).run(t0)
            assert (got.cost, got.makespan, got.completed,
                    got.fallback_used) == (
                want.cost, want.makespan, want.completed, want.fallback_used
            )
            assert got.windows == want.windows
            assert got.ledger.items == want.ledger.items

    def test_run_many_audited(self, small_env):
        problem, decision, h = spiky_setup(SEEDS[1])
        cfg = small_env.config.with_(window_hours=8.0)
        with obs.audited():
            results = AdaptiveExecutor(problem, h, cfg).run_many(
                [60.0, 120.0, 200.0]
            )
        assert len(results) == 3


class TestGeneratorParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("params", [
        _SPIKY,
        _CALMER,
        SpotMarketParams(base_price=0.07, spike_rate=0.0),
        SpotMarketParams(base_price=0.07, calm_change_rate=0.0),
        SpotMarketParams(base_price=0.05, spike_rate=2.0,
                         spike_duration_mean=0.05, calm_volatility=0.2),
    ], ids=["spiky", "calmer", "no-spikes", "no-changes", "dense-spikes"])
    def test_event_level_sampler_byte_identical(self, seed, params):
        for n in (1, 3, 500, 6000):
            vec = RegimeSwitchingGenerator(
                params, np.random.default_rng(seed)
            )._sample_grid(n)
            ref = _sample_grid_reference(
                params, np.random.default_rng(seed), n
            )
            assert vec.tobytes() == ref.tobytes()


class TestCorrelatedParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_surges_matches_scalar_reference(self, seed):
        from repro.market.correlated import RegionSurge, sample_surges

        def reference(duration_hours, rng):
            n = rng.poisson(0.05 * duration_hours)
            surges = []
            for _ in range(n):
                start = float(rng.uniform(0.0, duration_hours))
                dur = float(max(0.25, rng.exponential(3.0)))
                severity = float(8.0 * np.exp(0.5 * rng.standard_normal()))
                surges.append(
                    RegionSurge(start, min(dur, duration_hours - start),
                                severity)
                )
            surges.sort(key=lambda s: s.start)
            return surges

        got = sample_surges(
            600.0, np.random.default_rng(seed), rate_per_hour=0.05
        )
        want = reference(600.0, np.random.default_rng(seed))
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_overlay_floor_matches_scalar_reference(self, seed):
        from repro.market.correlated import overlay_price_floor

        r = np.random.default_rng(seed)
        t = np.sort(r.uniform(0.0, 100.0, 30))
        t[0] = 0.0
        trace = SpotPriceTrace(t, r.uniform(0.01, 1.0, 30), 100.0)
        for s, e, f in [(10.0, 25.0, 0.6), (-5.0, 4.0, 0.3),
                        (90.0, 150.0, 2.0), (0.0, 100.0, 0.5),
                        (float(t[4]), float(t[9]), 0.8)]:
            got = overlay_price_floor(trace, s, e, f)
            lo, hi = max(s, 0.0), min(e, 100.0)
            times = list(trace.times)
            prices = list(trace.prices)
            for cut in (lo, hi):
                if cut < trace.end_time and cut not in times:
                    idx = int(np.searchsorted(times, cut, side="right") - 1)
                    times.insert(idx + 1, cut)
                    prices.insert(idx + 1, prices[idx])
            want_p = [max(p, f) if lo <= tt < hi else p
                      for tt, p in zip(times, prices)]
            keep = [0] + [
                k for k in range(1, len(times)) if want_p[k] != want_p[k - 1]
            ]
            assert got.times.tolist() == [times[k] for k in keep]
            assert got.prices.tolist() == [want_p[k] for k in keep]
            assert got.end_time == trace.end_time


class TestTableCache:
    def test_cache_on_off_parity_and_clearing(self):
        problem, decision, h = spiky_setup(SEEDS[2])
        starts = sample_start_times(
            problem, decision, h, 8, np.random.default_rng(2)
        )
        clear_shared_caches()
        assert table_cache_size() == 0
        cached = replay_batch(
            problem, decision, h, starts, table_cache=True
        ).results()
        assert table_cache_size() > 0
        uncached = replay_batch(
            problem, decision, h, starts, table_cache=False
        ).results()
        for a, b in zip(cached, uncached):
            assert_runs_equal(a, b, "table_cache on/off")
        clear_shared_caches()
        assert table_cache_size() == 0

    def test_tables_evicted_when_trace_collected(self):
        clear_shared_caches()
        from repro.execution.kernels import trace_tables

        trace = SpotPriceTrace([0.0, 5.0], [0.05, 0.2], 50.0)
        trace_tables(trace, 0.1)
        assert table_cache_size() == 1
        del trace
        import gc

        gc.collect()
        assert table_cache_size() == 0


class TestKernelOracleParity:
    """Each KERNEL_ORACLES entry exercised directly against its scalar.

    These are the function-level parity checks reprolint R004 demands:
    every vectorized kernel is driven side by side with the scalar
    reference it declares, with exact float equality.
    """

    def _trace(self, seed, duration=120.0):
        return RegimeSwitchingGenerator(
            _SPIKY, np.random.default_rng(seed)
        ).generate(duration)

    def _assert_bills_match(self, trace, launch, end, interrupted, policy):
        from repro.cloud.spot import billed_spot_cost
        from repro.execution.kernels import billed_cost_batch

        launch = np.asarray(launch, dtype=float)
        end = np.asarray(end, dtype=float)
        interrupted = np.asarray(interrupted, dtype=bool)
        got = billed_cost_batch(trace, launch, end, interrupted, policy)
        assert got.shape == launch.shape
        for i in range(launch.size):
            want = billed_spot_cost(
                trace, float(launch[i]), float(end[i]), bool(interrupted[i]),
                policy,
            )
            assert got[i] == want, (i, launch[i], end[i], interrupted[i])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_billed_cost_batch_continuous_bitwise_equal(self, seed):
        trace = self._trace(seed)
        r = np.random.default_rng(seed + 1)
        bounds = np.sort(r.uniform(0.0, trace.end_time, (50, 2)), axis=1)
        launch = np.append(bounds[:, 0], 3.0)  # plus one zero-length run
        end = np.append(bounds[:, 1], 3.0)
        self._assert_bills_match(
            trace, launch, end, np.zeros(launch.size, bool), CONTINUOUS
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", BILLINGS, ids=BILLING_IDS)
    def test_billed_cost_batch_matches_billed_spot_cost(self, seed, policy):
        trace = self._trace(seed)
        r = np.random.default_rng(seed + 2)
        launch = r.uniform(0.0, trace.end_time, 60)
        end = launch + r.uniform(0.0, 1.0, 60) * (trace.end_time - launch)
        interrupted = r.uniform(size=60) < 0.5
        self._assert_bills_match(trace, launch, end, interrupted, policy)

    @pytest.mark.parametrize("policy", BILLINGS, ids=BILLING_IDS)
    def test_billed_cost_batch_edge_cases(self, policy):
        trace = self._trace(SEEDS[0])
        seg, t_end = trace.times, trace.end_time
        windows = [
            (seg[5], seg[5] + 3.7),  # launch on a segment boundary
            (seg[7] - 0.3, seg[12]),  # end on a segment boundary
            (10.0, 13.0),  # launch on an hour boundary, whole hours
            (10.0, 12.5),
            (t_end - 2.5, t_end),  # bill up to the trace's last instant
            (t_end - 2.0, t_end),
            (7.3, 7.3),  # zero-length runs
            (t_end, t_end),
            (-1.0, -1.0),
            (4.0, 6.0 + 5e-13),  # partial hour within 1e-12 of whole
            (4.0, 7.0 - 5e-13),
            (4.0, 6.0 + 2e-12),
            (seg[3], seg[4]),  # exactly one segment
        ]
        if not policy.is_continuous:
            # Hourly lookups past the trace end clamp to its last price.
            windows.append((t_end + 0.5, t_end + 2.25))
        launch, end = np.array(windows).T
        for flags in (np.arange(launch.size) % 2 == 0,
                      np.arange(launch.size) % 3 == 0):
            self._assert_bills_match(trace, launch, end, flags, policy)

    @pytest.mark.parametrize("policy", BILLINGS, ids=BILLING_IDS)
    def test_billed_cost_batch_empty_and_invalid(self, policy):
        from repro.cloud.spot import billed_spot_cost
        from repro.execution.kernels import billed_cost_batch

        trace = self._trace(SEEDS[0])
        empty = np.zeros(0)
        got = billed_cost_batch(trace, empty, empty, empty.astype(bool), policy)
        assert got.shape == (0,)
        for bad in ((5.0, 4.0), (-1.0, 3.0)):  # reversed; before the start
            with pytest.raises(TraceError):
                billed_spot_cost(trace, *bad, True, policy)
            with pytest.raises(TraceError):
                billed_cost_batch(
                    trace, np.array([2.0, bad[0]]), np.array([4.5, bad[1]]),
                    np.array([False, True]), policy,
                )

    @staticmethod
    def _storage_problem(image_gb=(2.0, 0.5)):
        g1 = dataclasses.replace(
            make_group(exec_time=6.0, overhead=0.4, recovery=0.5),
            image_bytes=image_gb[0] * BYTES_PER_GB,
        )
        g2 = dataclasses.replace(
            make_group(zone="us-east-1b", exec_time=3.0, overhead=0.3),
            image_bytes=image_gb[1] * BYTES_PER_GB,
        )
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        problem = Problem(groups=(g1, g2), ondemand_options=(od,),
                          deadline=40.0)
        # g2's interval exceeds its work: the timeline uses min(F, T).
        decision = Decision(
            groups=(GroupDecision(0, 0.075, 1.3), GroupDecision(1, 0.06, 4.0)),
            ondemand_index=0,
        )
        return problem, decision

    def _assert_storage_matches(self, problem, decision, launched, launch,
                                n_ckpt, run_end):
        from repro.execution.kernels import checkpoint_storage_cost_batch

        got = checkpoint_storage_cost_batch(
            problem, decision, launched, launch, n_ckpt, run_end
        )
        assert got.shape == run_end.shape
        for i in range(run_end.size):
            records = [
                GroupRunRecord(
                    key=problem.groups[gd.group_index].key, bid=gd.bid,
                    interval=gd.interval, launched=bool(launched[g, i]),
                    launch_time=float(launch[g, i]) if launched[g, i] else None,
                    end_time=float(run_end[i]), terminated=False,
                    completed=False, productive=0.0, saved=0.0,
                    n_checkpoints=int(n_ckpt[g, i]), spot_cost=0.0,
                )
                for g, gd in enumerate(decision.groups)
            ]
            want = checkpoint_storage_cost(
                problem, decision, records, float(run_end[i])
            )
            assert got[i] == want, i

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("image_gb", [(2.0, 0.5), (2.0, 0.0), (0.0, 0.0)],
                             ids=["both", "one-image-free", "no-images"])
    def test_checkpoint_storage_cost_batch_matches_scalar(self, seed,
                                                          image_gb):
        problem, decision = self._storage_problem(image_gb)
        r = np.random.default_rng(seed + 6)
        n = 80
        launched = r.uniform(size=(2, n)) < 0.8
        launch = np.where(launched, r.uniform(0.0, 50.0, (2, n)), np.nan)
        n_ckpt = r.integers(0, 9, (2, n))
        n_ckpt[:, ::5] = 0  # launched but never checkpointed
        # The last image persists to run_end: some well past the last
        # write, some before it (max(0, .) clamps the last interval).
        latest = np.where(launched, launch, 0.0).max(axis=0)
        run_end = latest + r.uniform(-5.0, 30.0, n)
        self._assert_storage_matches(problem, decision, launched, launch,
                                     n_ckpt, run_end)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    def test_checkpoint_storage_cost_batch_on_replays(self, seed, semantics):
        """Completed and on-demand-recovered samples: the last image is
        stored until each run's own finish (completion or recovery)."""
        problem, decision, h = spiky_setup(seed, image_gb=2.0)
        problem = dataclasses.replace(problem, groups=(
            dataclasses.replace(problem.groups[0],
                                image_bytes=0.7 * BYTES_PER_GB),
            problem.groups[1],
        ))
        starts = sample_start_times(
            problem, decision, h, 40, np.random.default_rng(seed)
        )
        # A 9 h horizon leaves late launches unfinished: both outcomes.
        batch = replay_batch(problem, decision, h, starts, horizon=9.0,
                             semantics=semantics, account_storage=True)
        codes = set(batch.completed_code.tolist())
        assert ONDEMAND in codes and codes - {ONDEMAND}
        assert batch.storage.max() > 0
        for i, t in enumerate(starts):
            want = replay_decision(
                problem, decision, h, float(t), horizon=9.0,
                semantics=semantics, account_storage=True,
            )
            assert batch.storage[i] == want.ledger.total("storage"), i

    def test_checkpoint_storage_cost_batch_edge_cases(self):
        problem, decision = self._storage_problem()
        launched = np.array([[False, True, True, True, True],
                             [False, False, True, True, True]])
        launch = np.array([[np.nan, 0.0, 3.25, 10.0, 10.0],
                           [np.nan, np.nan, 3.25, 10.0, 10.0]])
        n_ckpt = np.array([[5, 0, 1, 4, 4],  # count ignored when unlaunched
                           [3, 2, 0, 1, 1]])
        run_end = np.array([20.0, 7.5, 4.0, 10.0, 16.7])
        self._assert_storage_matches(problem, decision, launched, launch,
                                     n_ckpt, run_end)
        from repro.execution.kernels import checkpoint_storage_cost_batch

        empty = checkpoint_storage_cost_batch(
            problem, decision, launched[:, :0], launch[:, :0], n_ckpt[:, :0],
            run_end[:0],
        )
        assert empty.shape == (0,)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoints_completed_arr_elementwise(self, seed):
        from repro.core.ckpt_math import checkpoints_completed
        from repro.execution.kernels import checkpoints_completed_arr

        r = np.random.default_rng(seed + 3)
        exec_time = r.uniform(1.0, 12.0, 200)
        interval = r.uniform(0.2, 1.0, 200) * exec_time
        productive = r.uniform(0.0, 1.0, 200) * exec_time
        # Exact multiples stress the at-the-finish-line decrement loop.
        productive[::7] = exec_time[::7]
        interval[::11] = exec_time[::11]
        got = checkpoints_completed_arr(productive, exec_time, interval)
        for i in range(200):
            want = checkpoints_completed(
                float(productive[i]), float(exec_time[i]), float(interval[i])
            )
            assert got[i] == float(want), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_total_wall_arr_elementwise(self, seed):
        from repro.core.ckpt_math import total_wall
        from repro.execution.kernels import total_wall_arr

        r = np.random.default_rng(seed + 4)
        exec_time = r.uniform(1.0, 12.0, 100)
        interval = r.uniform(0.2, 1.2, 100) * exec_time
        overhead = 0.35
        got = total_wall_arr(exec_time, interval, overhead)
        for i in range(100):
            assert got[i] == total_wall(
                float(exec_time[i]), float(interval[i]), overhead
            ), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_progress_after_wall_arr_elementwise(self, seed):
        from repro.core.ckpt_math import (
            checkpoints_completed,
            progress_after_wall,
            total_wall,
        )
        from repro.execution.kernels import progress_after_wall_arr

        r = np.random.default_rng(seed + 5)
        n = 150
        exec_time = r.uniform(1.0, 10.0, n)
        interval = r.uniform(0.2, 1.0, n) * exec_time
        overhead = 0.25
        done_wall = np.array(
            [total_wall(float(T), float(F), overhead)
             for T, F in zip(exec_time, interval)]
        )
        k_done = np.array(
            [checkpoints_completed(float(T), float(T), float(F))
             for T, F in zip(exec_time, interval)],
            dtype=np.int64,
        )
        wall = r.uniform(0.0, 1.3, n) * done_wall  # spans past completion
        productive, saved, n_ckpt = progress_after_wall_arr(
            wall, exec_time, interval, overhead, done_wall, k_done
        )
        for i in range(n):
            p, s, k = progress_after_wall(
                float(wall[i]), float(exec_time[i]), float(interval[i]),
                overhead,
            )
            assert (productive[i], saved[i], n_ckpt[i]) == (p, s, k), i

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_build_correlated_history_matches_scalar_rederivation(self, seed):
        """Rebuild every market from the scalar generator + a pure-python
        scalar overlay under the same derived seeds; demand bit-equality."""
        from repro.cloud.instance_types import PAPER_TYPES
        from repro.cloud.zones import DEFAULT_ZONES
        from repro.market.correlated import build_correlated_history, sample_surges
        from repro.market.presets import market_params
        from repro.sim.rng import derive_seed

        def scalar_overlay(trace, start, end, floor):
            lo, hi = max(start, trace.start_time), min(end, trace.end_time)
            if hi <= lo:
                return trace
            times = list(trace.times)
            prices = list(trace.prices)
            for cut in (lo, hi):
                if cut < trace.end_time and cut not in times:
                    idx = int(np.searchsorted(times, cut, side="right") - 1)
                    times.insert(idx + 1, cut)
                    prices.insert(idx + 1, prices[idx])
            new_p = [max(p, floor) if lo <= t < hi else p
                     for t, p in zip(times, prices)]
            keep = [0] + [k for k in range(1, len(times))
                          if new_p[k] != new_p[k - 1]]
            return SpotPriceTrace(
                [times[k] for k in keep], [new_p[k] for k in keep],
                trace.end_time,
            )

        duration, rho = 240.0, 0.6
        got = build_correlated_history(duration, seed=seed, correlation=rho)
        surges = sample_surges(
            duration, np.random.default_rng(derive_seed(seed, "region-surges"))
        )
        for tname in PAPER_TYPES:
            for zone in DEFAULT_ZONES:
                key = MarketKey(tname, zone.name)
                params = market_params(tname, zone.name)
                trace = RegimeSwitchingGenerator(
                    params,
                    np.random.default_rng(derive_seed(seed, f"corr-market:{key}")),
                ).generate(duration)
                join = np.random.default_rng(
                    derive_seed(seed, f"corr-join:{key}")
                )
                for surge in surges:
                    if join.random() < rho:
                        trace = scalar_overlay(
                            trace, surge.start, surge.end,
                            surge.severity * params.base_price,
                        )
                have = got.get(key)
                assert have.times.tobytes() == trace.times.tobytes(), key
                assert have.prices.tobytes() == trace.prices.tobytes(), key
                assert have.end_time == trace.end_time, key


class TestGridEvalParity:
    """The planner's one-shot grid kernels (repro.core.grid_eval) against
    their scalar oracles, exact float equality throughout."""

    @staticmethod
    def _model(seed, params=_SPIKY, sub=0):
        gen = RegimeSwitchingGenerator(
            params, np.random.default_rng(7000 * seed + sub)
        )
        return FailureModel(gen.generate(300.0), step_hours=1.0)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("levels", (1, 4, 9))
    def test_bid_matrix_rows_matches_log_bid_candidates(self, seed, levels):
        rng = np.random.default_rng(seed)
        maxima = rng.uniform(0.05, 2.0, size=7)
        floors = maxima * rng.uniform(0.05, 0.95, size=7)
        rows = bid_matrix_rows(maxima, levels, floors)
        assert len(rows) == maxima.size
        for hi, lo, row in zip(maxima, floors, rows):
            ref = log_bid_candidates(float(hi), levels, float(lo))
            assert row.shape == ref.shape
            assert row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_outcome_grid_matches_from_pmf(self, seed):
        spec = make_group(exec_time=6.0, overhead=0.4, recovery=0.5)
        fm = self._model(seed)
        bid = float(
            log_bid_candidates(fm.max_price(), 4, fm.min_price())[2]
        )
        n = max(1, int(np.ceil(spec.exec_time / fm.step_hours)))
        pmf = fm.failure_pmf(bid, n)
        price = fm.expected_price(bid)
        young = young_interval(
            spec.checkpoint_overhead, fm.mttf_hours(bid), spec.exec_time
        )
        candidates = _interval_candidates(spec, young, fm.step_hours)
        productive, wall, ratios = outcome_grid(
            spec, candidates, pmf.size - 1, fm.step_hours
        )
        for c in range(candidates.size):
            o = GroupOutcome.from_pmf(
                spec, bid, float(candidates[c]), pmf, price, fm.step_hours
            )
            assert productive.tobytes() == o.productive.tobytes()
            assert wall[c].tobytes() == o.wall.tobytes()
            assert ratios[c].tobytes() == o.ratios.tobytes()

    @staticmethod
    def _assert_table_matches(spec, bids, fm, od, refine=True,
                              checkpointing=True):
        """group_table_grid against the scalar per-bid loop it replaces:
        optimal_interval (T without checkpointing), GroupOutcome.build,
        expected_spot_cost and the two dots — byte for byte."""
        step = fm.step_hours
        intervals, outcomes, e_spot, e_wall, e_ratio = group_table_grid(
            spec, bids, fm, od, step, refine=refine,
            checkpointing=checkpointing,
        )
        ref = []
        for bid in bids:
            f = (
                optimal_interval(spec, float(bid), fm, od, step, refine=refine)
                if checkpointing
                else spec.exec_time
            )
            ref.append(GroupOutcome.build(spec, float(bid), f, fm, step))
        assert len(outcomes) == len(ref)
        assert intervals.tobytes() == np.array(
            [o.interval for o in ref]
        ).tobytes()
        for got, o in zip(outcomes, ref):
            assert (got.bid, got.interval, got.step_hours) == (
                o.bid, o.interval, o.step_hours
            )
            assert got.expected_price == o.expected_price
            for name in ("pmf", "productive", "wall", "ratios"):
                assert getattr(got, name).tobytes() == getattr(
                    o, name
                ).tobytes(), name
        assert e_spot.tobytes() == np.array(
            [o.expected_spot_cost() for o in ref]
        ).tobytes()
        assert e_wall.tobytes() == np.array(
            [float(np.dot(o.pmf, o.wall)) for o in ref]
        ).tobytes()
        assert e_ratio.tobytes() == np.array(
            [float(np.dot(o.pmf, o.ratios)) for o in ref]
        ).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("refine", (False, True))
    @pytest.mark.parametrize("checkpointing", (False, True))
    def test_group_table_grid_bitwise_equal(self, seed, refine,
                                            checkpointing):
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        for overhead, recovery in ((0.4, 0.5), (0.05, 0.1)):
            spec = make_group(
                exec_time=6.0, overhead=overhead, recovery=recovery
            )
            fm = self._model(seed, sub=int(overhead * 100))
            bids = log_bid_candidates(fm.max_price(), 4, fm.min_price())
            self._assert_table_matches(
                spec, bids, fm, od, refine, checkpointing
            )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("refine", (False, True))
    def test_group_table_grid_edge_cases(self, seed, refine):
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        fm = self._model(seed, _CALMER, sub=5)
        below = float(fm.step_start.min()) * 0.5  # never launches
        above = fm.max_price() * 2.0  # never fails: mttf = inf
        assert fm.failure_pmf(below, 7)[0] == 1.0
        assert fm.mttf_hours(above) == float("inf")
        bids = np.concatenate([
            [below],
            log_bid_candidates(fm.max_price(), 5, fm.min_price()),
            [above],
        ])
        for spec in (
            make_group(exec_time=6.5, overhead=0.3, recovery=0.4),
            make_group(exec_time=6.0, overhead=0.0, recovery=0.2),
            make_group(exec_time=0.7, overhead=0.1, recovery=0.0,
                       n_instances=1),
        ):
            self._assert_table_matches(spec, bids, fm, od, refine)

    def test_group_table_grid_falls_back_to_young(self):
        """A bid whose every candidate cost is non-finite keeps Young's
        interval, mixed with refined bids in one call."""

        class InfPrice:
            def __init__(self, fm, bad):
                self.fm, self.bad, self.step_hours = fm, bad, fm.step_hours

            def __getattr__(self, name):
                return getattr(self.fm, name)

            def expected_price(self, bid):
                if bid == self.bad:
                    return float("inf")
                return self.fm.expected_price(bid)

        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        fm = self._model(3)
        bids = log_bid_candidates(fm.max_price(), 4, fm.min_price())
        stub = InfPrice(fm, float(bids[-1]))
        spec = make_group(exec_time=6.0, overhead=0.4, recovery=0.5)
        self._assert_table_matches(spec, bids, stub, od)
        young = young_interval(
            spec.checkpoint_overhead, fm.mttf_hours(float(bids[-1])),
            spec.exec_time,
        )
        intervals = group_table_grid(spec, bids, stub, od)[0]
        assert intervals[-1] == young

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subset_bounds_matches_scalar_subset_bound(self, seed, tmp_path):
        from itertools import combinations

        from repro.config import DEFAULT_CONFIG
        from repro.core import grid_eval
        from repro.core.two_level import TwoLevelOptimizer

        clear_shared_caches()
        g1 = make_group(exec_time=6.0, overhead=0.4, recovery=0.5)
        g2 = dataclasses.replace(
            make_group(zone="us-east-1b", exec_time=6.0, overhead=0.3,
                       recovery=0.4),
        )
        g3 = make_group(key_type="c3.xlarge", exec_time=4.0, overhead=0.2,
                        recovery=0.3, n_instances=2)
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        problem = Problem(
            groups=(g1, g2, g3), ondemand_options=(od,), deadline=40.0
        )
        models = {}
        for sub, spec in enumerate(problem.groups):
            gen = RegimeSwitchingGenerator(
                _SPIKY if sub % 2 == 0 else _CALMER,
                np.random.default_rng(9000 * seed + sub),
            )
            models[spec.key] = FailureModel(
                gen.generate(300.0), step_hours=1.0
            )
        config = DEFAULT_CONFIG.with_(artifact_dir=str(tmp_path))
        opt = TwoLevelOptimizer(problem, models, od, config)
        tables = [opt.group_table(i) for i in range(3)]
        min_spot = np.array([t.e_spot.min() for t in tables])
        min_ratio = np.array([t.e_ratio.min() for t in tables])
        min_wall = np.array([t.e_wall.min() for t in tables])
        for size in (1, 2, 3):
            subsets = list(combinations(range(3), size))
            cost_b, time_b = grid_eval.subset_bounds(
                min_spot, min_ratio, min_wall,
                np.array(subsets, dtype=np.intp), od.full_run_cost,
            )
            for row, subset in enumerate(subsets):
                chosen = [tables[i] for i in subset]
                assert float(cost_b[row]) == opt._subset_bound(chosen, "cost")
                assert float(time_b[row]) == opt._subset_bound(chosen, "time")
        clear_shared_caches()


# ----------------------------------------------------------------------
# Exact evaluation on cached sorted marginals
# ----------------------------------------------------------------------
def _ref_survival_at(values, pmf, grid):
    """The per-call-sort survival function evaluate() used before the
    sorted marginals were cached on GroupOutcome."""
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ps = pmf[order]
    tail = np.cumsum(ps[::-1])[::-1]
    idx = np.searchsorted(vs, grid, side="left")
    out = np.zeros(grid.size)
    inside = idx < vs.size
    out[inside] = tail[idx[inside]]
    return out


def _ref_expected_min(values_list, pmf_list):
    grid = np.unique(np.concatenate([np.asarray(v, float) for v in values_list]))
    grid = grid[grid > 0]
    if grid.size == 0:
        return 0.0
    surv = np.ones(grid.size)
    for values, pmf in zip(values_list, pmf_list):
        surv *= _ref_survival_at(
            np.asarray(values, float), np.asarray(pmf, float), grid
        )
    deltas = np.diff(np.concatenate([[0.0], grid]))
    return float(np.dot(deltas, surv))


def _ref_expected_max(values_list, pmf_list):
    grid = np.unique(np.concatenate([np.asarray(v, float) for v in values_list]))
    grid = grid[grid > 0]
    if grid.size == 0:
        return 0.0
    prod_below = np.ones(grid.size)
    for values, pmf in zip(values_list, pmf_list):
        prod_below *= 1.0 - _ref_survival_at(
            np.asarray(values, float), np.asarray(pmf, float), grid
        )
    deltas = np.diff(np.concatenate([[0.0], grid]))
    return float(np.dot(deltas, 1.0 - prod_below))


def _ref_evaluate(outcomes, ondemand):
    spot_cost = sum(o.expected_spot_cost() for o in outcomes)
    pmfs = [o.pmf for o in outcomes]
    e_min_ratio = _ref_expected_min([o.ratios for o in outcomes], pmfs)
    e_max_wall = _ref_expected_max([o.wall for o in outcomes], pmfs)
    od_cost = e_min_ratio * ondemand.full_run_cost
    time = e_max_wall + e_min_ratio * ondemand.exec_time
    completion = 1.0 - float(
        np.prod([1.0 - o.completion_probability for o in outcomes])
    )
    return Expectation(
        cost=spot_cost + od_cost,
        time=time,
        spot_cost=spot_cost,
        ondemand_cost=od_cost,
        expected_min_ratio=e_min_ratio,
        expected_max_wall=e_max_wall,
        completion_probability=completion,
    )


def _random_outcome(rng, zone):
    exec_time = float(rng.choice([3.0, 5.5, 8.0, 12.25]))
    step = float(rng.choice([0.5, 1.0]))
    spec = make_group(
        zone=zone,
        exec_time=exec_time,
        overhead=float(rng.choice([0.0, 0.1, 0.45])),
        recovery=float(rng.choice([0.0, 0.2, 0.6])),
        n_instances=int(rng.integers(1, 9)),
    )
    n = max(1, int(np.ceil(exec_time / step)))
    pmf = rng.dirichlet(np.full(n + 1, 0.3))
    pmf[rng.random(n + 1) < 0.3] = 0.0  # exact zeros: flat tail runs
    if pmf.sum() == 0.0:
        pmf[-1] = 1.0
    pmf /= pmf.sum()
    interval = float(rng.uniform(0.3, 1.2) * exec_time)
    return GroupOutcome.from_pmf(
        spec, float(rng.uniform(0.01, 1.0)), interval, pmf,
        float(rng.uniform(0.01, 0.5)), step,
    )


class TestSortedMarginalParity:
    """evaluate / expected_min / expected_max on marginals sorted once per
    outcome, against the per-call-sort implementation, byte for byte."""

    @pytest.mark.parametrize("seed", range(8))
    def test_evaluate_matches_per_call_sort(self, seed):
        rng = np.random.default_rng(4000 + seed)
        od = OnDemandOption(
            get_instance_type("c3.xlarge"), 8, float(rng.uniform(2.0, 9.0))
        )
        for _ in range(25):
            k = int(rng.integers(1, 5))
            outcomes = [
                _random_outcome(rng, f"us-east-1{'abcd'[j]}")
                for j in range(k)
            ]
            ref = np.array(dataclasses.astuple(_ref_evaluate(outcomes, od)))
            # Twice: the second call reads the cached marginals.
            for _ in range(2):
                got = np.array(dataclasses.astuple(evaluate(outcomes, od)))
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_expected_min_max_match_per_call_sort(self, seed):
        rng = np.random.default_rng(5000 + seed)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            values, pmfs = [], []
            for _ in range(k):
                size = int(rng.integers(1, 30))
                # Few distinct values: ties exercise the stable sort.
                values.append(rng.choice([0.0, 0.25, 0.5, 1.0, 2.5], size))
                pmfs.append(rng.dirichlet(np.ones(size)))
            for got, ref in (
                (expected_min(values, pmfs), _ref_expected_min(values, pmfs)),
                (expected_max(values, pmfs), _ref_expected_max(values, pmfs)),
            ):
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()
