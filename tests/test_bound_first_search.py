"""Bound-first subset search (DESIGN.md §6 "Pruning bound").

``optimize_subset`` prunes a subset when every combination's separable
floor already fails to beat the incumbent, stops its exact loop once the
remaining candidates' floors cannot beat it, and builds its score
products on the subset's (k-1)-prefix.  These tests hold down the three
claims that make that safe:

* every per-combination floor is admissible — never above the exact
  cost (cost objective) or time (time objective) of its combination;
* the exhaustive and greedy traversals return the same ``SubsetResult``
  with pruning active as with the incumbent withheld;
* the prefix-shared ``cost``/``time`` vectors are byte-equal to the
  products accumulated from ``np.ones``, for any subset order.
"""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.cost_model import evaluate
from repro.core.ondemand_select import select_ondemand, select_ondemand_relaxed
from repro.core.problem import OnDemandOption, Problem
from repro.core.subset import (
    enumerate_subsets,
    exhaustive_subset_search,
    greedy_subset_search,
)
from repro.core.two_level import (
    _PRUNE_MARGIN,
    TwoLevelOptimizer,
    clear_shared_caches,
)
from repro.market.failure import FailureModel
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group

_HOURS = 240.0


def _alternating(cheap, dear, period):
    times, prices = [], []
    k = 0
    while k * period < _HOURS:
        times += [k * period, k * period + period / 2]
        prices += [cheap, dear]
        k += 1
    return SpotPriceTrace(times, prices, _HOURS + period)


def _random_walk(rng, base, spread, step):
    times = np.arange(0.0, _HOURS, step)
    prices = base * np.exp(spread * rng.standard_normal(times.size))
    return SpotPriceTrace(times.tolist(), prices.tolist(), _HOURS)


def _setup(seed, checkpointing=True, deadline=14.0, **cfg):
    """Five groups on deliberately unlike markets: a flat price (one bid
    candidate, deterministic wall time, the floor's tight case), fast
    and slow price cycles, and two random walks."""
    rng = np.random.default_rng(seed)
    zones = ("us-east-1a", "us-east-1b", "us-east-1c", "us-east-1d", "us-east-1e")
    groups = tuple(
        make_group(zone=z, exec_time=8.0, overhead=0.1, recovery=0.1)
        for z in zones
    )
    traces = (
        SpotPriceTrace([0.0], [0.04], _HOURS),
        _alternating(0.05, 0.8, 6.0),
        _alternating(0.03, 1.2, 1.5),
        _random_walk(rng, 0.06, 0.9, 0.5),
        _random_walk(rng, 0.02, 1.6, 2.0),
    )
    problem = Problem(
        groups=groups,
        ondemand_options=(
            OnDemandOption(get_instance_type("c3.xlarge"), 8, 7.0),
        ),
        deadline=deadline,
    )
    models = {g.key: FailureModel(t) for g, t in zip(groups, traces)}
    _, od = select_ondemand(problem.ondemand_options, problem.deadline, 0.2)
    config = SompiConfig(
        kappa=4, bid_levels=5, checkpointing=checkpointing, **cfg
    )
    return problem, models, od, config


def _env_setup(env, app, factor, **cfg):
    """A reduced-paper-environment problem: real markets, where the
    subset search is contested enough for every skip path to fire."""
    problem = env.problem(app, factor)
    _, od = select_ondemand_relaxed(
        problem.ondemand_options, problem.deadline, env.config.slack
    )
    config = env.config.with_(kappa=4, **cfg)
    return problem, env.failure_models(problem), od, config


def _optimizer(setup):
    problem, models, od, config = setup
    return TwoLevelOptimizer(problem, models, od, config)


def _within(floor, exact):
    return floor <= exact * (1.0 + _PRUNE_MARGIN) + 1e-12


class TestFloorAdmissible:
    @pytest.mark.parametrize("seed,checkpointing", [
        (1, True), (2, True), (3, False),
    ])
    def test_floor_never_exceeds_exact_score(self, seed, checkpointing):
        """Adversarial cases ride in the fixture: the flat market makes
        the time floor tight (deterministic wall time), the fast cycle
        fails almost every run, and ``checkpointing=False`` makes every
        recovery ratio 0 or 1, where ``E[min R] == prod E[R]`` and the
        cost floor is tight too."""
        clear_shared_caches()
        self._check(_optimizer(_setup(seed, checkpointing)), min_checked=500)

    @pytest.mark.parametrize("app,factor", [("BT", 1.05), ("FT", 2.0)])
    def test_floor_admissible_on_real_markets(self, small_env, app, factor):
        clear_shared_caches()
        self._check(_optimizer(_env_setup(small_env, app, factor)), 100)

    @staticmethod
    def _check(opt, min_checked):
        n = opt.problem.n_groups
        sizes = [opt.group_table(i).n_bids for i in range(n)]
        assert len(set(sizes)) > 1  # mixed bid counts per group
        D = opt.ondemand.full_run_cost
        checked = 0
        for subset in enumerate_subsets(n, 3):
            tables = [opt.group_table(i) for i in subset]
            node = opt._prefix_node(subset)
            cost_floor = node.floor("cost", D)
            time_floor = node.floor("time", D)
            combos = itertools.product(*(range(t.n_bids) for t in tables))
            for row, combo in enumerate(combos):
                exact = evaluate(
                    [t.outcomes[b] for t, b in zip(tables, combo)],
                    opt.ondemand,
                )
                assert _within(cost_floor[row], exact.cost), (subset, combo)
                assert _within(time_floor[row], exact.time), (subset, combo)
                checked += 1
            assert row + 1 == cost_floor.size == time_floor.size
        assert checked > min_checked


def _unpruned(monkeypatch):
    """Withhold the incumbent from every ``optimize_subset`` call."""
    plain = TwoLevelOptimizer.optimize_subset

    def no_incumbent(self, group_indices, objective="cost", budget=None,
                     prune_above=None, bound=None):
        return plain(self, group_indices, objective, budget)

    monkeypatch.setattr(TwoLevelOptimizer, "optimize_subset", no_incumbent)


_SEARCHES = {
    "exhaustive": lambda opt, **kw: exhaustive_subset_search(opt, 3, **kw),
    "greedy": lambda opt, **kw: greedy_subset_search(opt, 3, **kw),
}


_CASES = {
    "synthetic": lambda env: _setup(4, max_miss_probability=0.6),
    "BT-tight": lambda env: _env_setup(
        env, "BT", 1.05, max_miss_probability=0.6
    ),
    "FT-loose": lambda env: _env_setup(
        env, "FT", 1.5, max_miss_probability=0.6
    ),
}


class TestSearchIdentity:
    @pytest.mark.parametrize("search", sorted(_SEARCHES))
    @pytest.mark.parametrize("case", sorted(_CASES))
    @pytest.mark.parametrize("objective", ["cost", "time"])
    def test_pruned_matches_unpruned(
        self, monkeypatch, small_env, search, case, objective
    ):
        setup = _CASES[case](small_env)
        kwargs = {"objective": objective}
        if objective == "time":
            clear_shared_caches()
            cheapest = exhaustive_subset_search(_optimizer(setup), 3)
            assert cheapest is not None
            kwargs["budget"] = cheapest.expectation.cost * 1.3
        run = _SEARCHES[search]

        clear_shared_caches()
        metrics = obs.get_metrics()
        before = dict(metrics.counters)
        pruned_opt = _optimizer(setup)
        pruned = run(pruned_opt, **kwargs)
        fired = {
            name: metrics.get(name) - before.get(name, 0)
            for name in (
                "plan.subsets_pruned.bound",
                "plan.subsets_pruned.combo",
                "plan.exact_cutoffs",
            )
        }

        _unpruned(monkeypatch)
        clear_shared_caches()
        plain_opt = _optimizer(setup)
        plain = run(plain_opt, **kwargs)

        assert pruned is not None
        assert pruned == plain
        assert pruned_opt.combos_evaluated == plain_opt.combos_evaluated
        assert plain_opt.subsets_pruned == 0
        assert pruned_opt.subsets_pruned == (
            fired["plan.subsets_pruned.bound"]
            + fired["plan.subsets_pruned.combo"]
        )
        if search == "exhaustive" and objective == "cost":
            assert pruned_opt.subsets_pruned > 0

    def test_every_skip_path_fires_on_the_fixtures(self, small_env):
        """The identity above is only meaningful if the per-combination
        prune and the exact-loop cut-off both actually happen."""
        metrics = obs.get_metrics()
        before = dict(metrics.counters)
        for case in sorted(_CASES):
            clear_shared_caches()
            exhaustive_subset_search(_optimizer(_CASES[case](small_env)), 3)
        for name in ("plan.subsets_pruned.combo", "plan.exact_cutoffs"):
            assert metrics.get(name) > before.get(name, 0), name


def _from_ones(opt, subset):
    """Reference score vectors: every product accumulated from
    ``np.ones`` (and the spot sum from zeros) over gathered rows."""
    tables = [opt.group_table(i) for i in subset]
    sizes = [t.n_bids for t in tables]
    batch = np.indices(sizes).reshape(len(sizes), -1).T
    spot = np.zeros(batch.shape[0])
    surv_r = np.ones((batch.shape[0], tables[0].surv_ratio.shape[1]))
    below_w = np.ones((batch.shape[0], tables[0].surv_wall.shape[1]))
    for g, table in enumerate(tables):
        rows = batch[:, g]
        spot += table.e_spot[rows]
        surv_r *= table.surv_ratio[rows]
        below_w *= 1.0 - table.surv_wall[rows]
    e_min_ratio = opt._ratio_delta * surv_r.sum(axis=1)
    e_max_wall = opt._wall_delta * (1.0 - below_w).sum(axis=1)
    return (
        spot + e_min_ratio * opt.ondemand.full_run_cost,
        e_max_wall + e_min_ratio * opt.ondemand.exec_time,
    )


class TestPrefixProductsBitIdentical:
    def test_prefix_vectors_equal_from_ones_products(self):
        clear_shared_caches()
        setup = _setup(5)
        problem, models, od, config = setup
        opt = TwoLevelOptimizer(
            problem, models, od, config.with_(table_cache=False)
        )
        n = problem.n_groups
        # Lexicographic sizes 1..4 (the exhaustive order), then greedy's
        # rounds: a fixed unsorted prefix extended by every other group.
        order = list(enumerate_subsets(n, 4))
        chosen = []
        for pick in (3, 0, 4):
            order += [
                tuple(chosen + [g]) for g in range(n) if g not in chosen
            ]
            chosen.append(pick)
        assert {len(s) for s in order} == {1, 2, 3, 4}
        assert any(list(s) != sorted(s) for s in order)
        for subset in order:
            tables = [opt.group_table(i) for i in subset]
            sizes = [t.n_bids for t in tables]
            node = opt._prefix_node(subset)
            ((lo, _batch, cost, time),) = opt._scored_batches(
                tables, node, sizes, int(np.prod(sizes)), "cost", None
            )
            ref_cost, ref_time = _from_ones(opt, subset)
            assert lo == 0
            assert cost.tobytes() == ref_cost.tobytes(), subset
            assert time.tobytes() == ref_time.tobytes(), subset
            assert len(opt._chain) <= 3
