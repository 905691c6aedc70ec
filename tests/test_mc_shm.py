"""Shared-memory Monte-Carlo fan-out tests.

The contract (montecarlo docstring): chunked parallel replay is
byte-identical to the serial path for the same rng — now with the
history shipped through one shared-memory block per trace instead of
re-pickled per chunk — and :func:`resolve_jobs` is the single authority
for the worker-count decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cloud.billing import CONTINUOUS, HOURLY
from repro.cloud.instance_types import get_instance_type
from repro.core.problem import Decision, GroupDecision, OnDemandOption, Problem
from repro.errors import ConfigurationError
from repro.execution import montecarlo
from repro.execution.montecarlo import replay_many, resolve_jobs
from repro.execution.shm_pool import SharedTracePool, attach_history
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group


#: Replay counters that must not depend on how the starts were chunked.
_REPLAY_COUNTERS = ("replay.batch_runs", "replay.batch_starts")


@pytest.fixture
def spiky_problem():
    g = make_group(exec_time=6.0, overhead=0.5, recovery=0.5, n_instances=2)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g,), ondemand_options=(od,), deadline=20.0)
    times, prices = [], []
    for k in range(60):
        times += [12.0 * k, 12.0 * k + 9.0]
        prices += [0.05, 0.90]
    h = SpotPriceHistory()
    h.add(g.key, SpotPriceTrace(times, prices, 732.0))
    return problem, h


class TestResolveJobs:
    def test_none_means_serial(self):
        assert resolve_jobs(None, 100) == 1

    @pytest.mark.parametrize("jobs", [0, -1, -7])
    def test_nonpositive_is_a_configuration_error(self, jobs):
        with pytest.raises(ConfigurationError):
            resolve_jobs(jobs, 100)

    def test_single_start_stays_serial(self):
        assert resolve_jobs(8, 1) == 1
        assert resolve_jobs(8, 0) == 1

    def test_capped_by_start_count(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(3, 100) == 3


class TestSharedTracePool:
    def test_attach_is_byte_identical(self, spiky_problem):
        _, h = spiky_problem
        pool = SharedTracePool(h)
        try:
            attached = attach_history(pool.handle)
            for key, trace in h.items():
                got = attached.get(key)
                assert got.times.tobytes() == trace.times.tobytes()
                assert got.prices.tobytes() == trace.prices.tobytes()
                assert got.end_time == trace.end_time
        finally:
            pool.close()

    def test_close_is_idempotent(self, spiky_problem):
        _, h = spiky_problem
        pool = SharedTracePool(h)
        pool.close()
        pool.close()


class TestParallelByteIdentity:
    def _decision(self):
        return Decision(groups=(GroupDecision(0, 0.10, 2.0),), ondemand_index=0)

    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_results_match_serial_exactly(self, spiky_problem, jobs):
        problem, h = spiky_problem
        d = self._decision()
        serial = replay_many(problem, d, h, 12, np.random.default_rng(7))
        parallel = replay_many(
            problem, d, h, 12, np.random.default_rng(7), jobs=jobs
        )
        assert serial == parallel

    @pytest.mark.parametrize("billing", [CONTINUOUS, HOURLY])
    def test_worker_metrics_merge_into_parent(self, spiky_problem, billing):
        problem, h = spiky_problem
        d = self._decision()
        metrics = obs.get_metrics()
        seen = {}
        for jobs in (1, 2):
            before = [metrics.get(n) for n in _REPLAY_COUNTERS]
            results = replay_many(
                problem, d, h, 12, np.random.default_rng(7), jobs=jobs,
                billing=billing,
            )
            after = [metrics.get(n) for n in _REPLAY_COUNTERS]
            seen[jobs] = (results, [b - a for a, b in zip(before, after)])
        assert seen[1] == seen[2]
        assert seen[2][1] == [1, 12]

    @pytest.mark.parametrize("path", ["shm", "pickling"])
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    def test_batch_path_matches_serial(
        self, spiky_problem, monkeypatch, path, semantics
    ):
        """Chunked RunBatch returns concatenate to the serial batch:
        summaries, raw results and replay counters all agree."""
        from repro.execution import shm_pool

        problem, h = spiky_problem
        d = self._decision()
        if path == "pickling":
            def boom(history):
                raise OSError("no /dev/shm here")

            shm_pool.close_trace_pools()
            monkeypatch.setattr(shm_pool, "SharedTracePool", boom)
        metrics = obs.get_metrics()
        seen = {}
        for jobs in (1, 2):
            before = [metrics.get(n) for n in _REPLAY_COUNTERS]
            summary = montecarlo.evaluate_decision_mc(
                problem, d, h, 16, np.random.default_rng(11), jobs=jobs,
                semantics=semantics, billing=HOURLY,
            )
            results = replay_many(
                problem, d, h, 16, np.random.default_rng(11), jobs=jobs,
                semantics=semantics, billing=HOURLY,
            )
            after = [metrics.get(n) for n in _REPLAY_COUNTERS]
            seen[jobs] = (
                repr(summary), results, [b - a for a, b in zip(before, after)]
            )
        assert seen[1] == seen[2]
        assert seen[2][2] == [2, 32]

    def test_pickling_fallback_matches_and_is_counted(
        self, spiky_problem, monkeypatch
    ):
        problem, h = spiky_problem
        d = self._decision()
        serial = replay_many(problem, d, h, 8, np.random.default_rng(3))

        def boom(history):
            raise OSError("no /dev/shm here")

        from repro.execution import shm_pool

        # Drop any registered pool for this content first — the registry
        # would otherwise serve a cached handle and never call the
        # patched factory.
        shm_pool.close_trace_pools()
        monkeypatch.setattr(shm_pool, "SharedTracePool", boom)
        before = obs.get_metrics().get("mc.shm_pool_unavailable")
        fallback = replay_many(
            problem, d, h, 8, np.random.default_rng(3), jobs=2
        )
        assert obs.get_metrics().get("mc.shm_pool_unavailable") == before + 1
        assert serial == fallback


class TestWorkerPoolEviction:
    """Superseded pool mappings are closed, not leaked (two sequential
    evaluations must leave exactly one pool attached)."""

    def _cleanup(self):
        from repro.execution import shm_pool

        shm_pool._evict_superseded("__cleanup__")

    def test_second_attach_closes_the_first_pool(self, spiky_problem):
        from repro.execution import shm_pool

        _, h = spiky_problem
        pool_a = SharedTracePool(h)
        pool_b = None
        try:
            attach_history(pool_a.handle)
            id_a = pool_a.handle.pool_id
            blocks_a = list(shm_pool._ATTACHED_BLOCKS[id_a])
            assert blocks_a  # one block per trace was mapped

            pool_b = SharedTracePool(h)
            attach_history(pool_b.handle)
            # Only the current pool is tracked ...
            assert set(shm_pool._ATTACHED) == {pool_b.handle.pool_id}
            assert set(shm_pool._ATTACHED_BLOCKS) == {pool_b.handle.pool_id}
            # ... and the superseded pool's mappings were closed.
            for shm in blocks_a:
                assert shm.buf is None
        finally:
            pool_a.close()
            if pool_b is not None:
                pool_b.close()
            self._cleanup()

    def test_reattach_same_pool_is_cached_and_kept(self, spiky_problem):
        from repro.execution import shm_pool

        _, h = spiky_problem
        pool = SharedTracePool(h)
        try:
            first = attach_history(pool.handle)
            assert attach_history(pool.handle) is first
            assert set(shm_pool._ATTACHED) == {pool.handle.pool_id}
        finally:
            pool.close()
            self._cleanup()

    def test_live_view_survives_eviction(self, spiky_problem):
        _, h = spiky_problem
        key, trace = next(iter(h.items()))
        pool_a = SharedTracePool(h)
        pool_b = None
        try:
            hist_a = attach_history(pool_a.handle)
            times_view = hist_a.get(key).times  # simulate an in-flight chunk
            del hist_a
            pool_b = SharedTracePool(h)
            attach_history(pool_b.handle)
            # The mapping under the live view was not yanked: the numpy
            # view still reads the original bytes (BufferError path).
            assert times_view.tobytes() == trace.times.tobytes()
        finally:
            pool_a.close()
            if pool_b is not None:
                pool_b.close()
            self._cleanup()
