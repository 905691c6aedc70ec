"""The four benchmark workloads.

Each workload is closed-loop with a single client: the next call into
the program starts only when the previous one returned.  A workload
has a set-up (building its inputs, timed on its own and repeated) and a
pass (the work a user waits for), and every pass starts from a
fresh-process view: in-memory caches cleared and the worker pool closed.

Inputs come from the workload seed through ``key_for_seed``.  The
market is always the one the runner builds for its default seed 7: the
quick sweep takes 20-29 s depending on the market seed, a spread that
would swamp any bound.  The seed varies what does not change the amount
of planning: the Monte-Carlo streams of the backtest and the replays
(8 stream seeds, 7..14, each with a golden).

A pass times each of its operations in calibrated seconds (see
``calib.py``).  A run makes passes until its time is up and reports the
median whole pass: the sum of one pass's operations, so the figure is
one the program ran, and its expected value does not depend on how
many passes fit.

Every pass also returns a digest per checked output; ``run.py``
compares them with ``goldens.json``.  Digests are sha256 of canonical
JSON, so a float that changes in its last bit is a mismatch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path

from perfbench import spans
from perfbench.calib import Clock

#: Market seed of every workload (the runner's default).
MARKET_SEED = 7
#: Stream seeds with goldens for the backtest and replay workloads.
STREAM_SEEDS = tuple(range(7, 15))


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    return repr(obj)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _failed(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclasses.dataclass
class PassResult:
    outputs: list  # (golden op key, digest or None when it raised)
    windows: dict  # timed operation -> (start, end) in perf_counter time
    extra: dict = dataclasses.field(default_factory=dict)  # non-time figures
    layer: dict = dataclasses.field(default_factory=dict)  # per-layer extras
    times: dict = dataclasses.field(default_factory=dict)  # op -> calibrated s
    raw: dict = dataclasses.field(default_factory=dict)  # op -> wall s


def median_pass(passes, ops=None, field: str = "times") -> float:
    """Median over the passes of a pass's total time (of ``ops`` only,
    when given)."""
    return statistics.median(
        sum(t for op, t in getattr(p, field).items() if ops is None or op in ops)
        for p in passes
    )


class Workload:
    name = ""
    uses_store = False
    uses_pool = False

    def golden_keys(self, size: str) -> list:
        return list(STREAM_SEEDS)

    def key_for_seed(self, seed: int):
        return STREAM_SEEDS[seed % len(STREAM_SEEDS)]

    def setup(self, key, seed: int, size: str, ctx):
        raise NotImplementedError

    def run_pass(self, state, ctx) -> PassResult:
        raise NotImplementedError

    def figures(self, state, passes) -> dict:
        """``pass_s``, ``ops_per_s`` and the per-workload named figures."""
        raise NotImplementedError


class SweepQuick(Workload):
    """``repro.experiments.runner --quick``, serial, artifact store off.

    A pass is one runner call, as a user makes it; each experiment's
    tables are checked on their own, so an operation is an experiment.
    Its input is fixed (the runner's default seed), so the workload seed
    selects nothing.
    """

    name = "sweep-quick"
    EXPERIMENTS = (
        "fig1", "fig2", "fig4", "fig5", "tab2", "fig6", "fig7", "fig8",
        "params", "accuracy", "reduction", "ext-sem", "ext-corr",
        "ext-backtest",
    )
    SMOKE = ("fig1", "fig2", "fig4", "tab2")
    #: Wall-clock columns, the only non-deterministic table cells.
    TIMING_COLUMNS = ("wall s",)

    def golden_keys(self, size):
        return [MARKET_SEED, 11]

    def key_for_seed(self, seed):
        return MARKET_SEED

    def setup(self, key, seed, size, ctx):
        from repro.experiments import runner  # noqa: F401  (the pass's imports)
        from repro.experiments.env import ExperimentEnv

        ExperimentEnv.paper_default(seed=key)
        return {"key": key, "ids": self.EXPERIMENTS if size == "full" else self.SMOKE}

    def _table(self, table: dict) -> dict:
        keep = [
            i for i, col in enumerate(table["columns"])
            if col not in self.TIMING_COLUMNS
        ]
        return {
            "experiment_id": table["experiment_id"],
            "title": table["title"],
            "columns": [table["columns"][i] for i in keep],
            "rows": [[row[i] for i in keep] for row in table["rows"]],
            "notes": table["notes"],
        }

    def _by_experiment(self, log: str, path: Path) -> dict:
        """Each experiment's tables: the log prints every table's
        ``== <id>: <title> ==`` header and then ``[<exp> completed in``,
        and the JSON holds the same tables in the same order."""
        tables = [self._table(t) for t in json.loads(path.read_text())["tables"]]
        out, headers = {}, []
        for line in log.splitlines():
            if line.startswith("== "):
                headers.append(line[3:].split(":", 1)[0])
            elif line.startswith("[") and " completed in " in line:
                exp = line[1:].split(" completed in ", 1)[0]
                mine, tables = tables[:len(headers)], tables[len(headers):]
                if [t["experiment_id"] for t in mine] != headers:
                    raise ValueError(f"{exp}: log and JSON tables disagree")
                out[exp], headers = mine, []
        return out

    def run_pass(self, state, ctx):
        from repro.experiments import runner

        out_path = ctx.tmp / "sweep.json"
        out_path.unlink(missing_ok=True)
        argv = ["--quick", "--seed", str(state["key"]), "--json", str(out_path)]
        if state["ids"] != self.EXPERIMENTS:
            argv += ["--only", *state["ids"]]
        log, windows, tables = io.StringIO(), {}, {}
        with ctx.clock.timed("sweep", windows):
            try:
                with contextlib.redirect_stdout(log):
                    status = runner.main(argv)
                if status == 0:
                    tables = self._by_experiment(log.getvalue(), out_path)
            except Exception:  # a failed operation, never retried
                _failed("sweep")
        outputs = [
            (exp, digest(tables[exp]) if exp in tables else None)
            for exp in state["ids"]
        ]
        return PassResult(outputs=outputs, windows=windows)

    def figures(self, state, passes):
        seconds = median_pass(passes)
        return {
            "pass_s": seconds,
            "ops_per_s": len(state["ids"]) / seconds,
            "named": {"sweep_s": seconds},
        }


class BacktestStore(Workload):
    """``run_backtest`` on an empty private store, then on the filled
    store as a fresh process sees it (caches cleared, pool closed)."""

    name = "backtest-store"
    uses_store = True
    uses_pool = True
    KINDS = ("trace_bid", "group_tables", "surv_grids", "search_sidecar")

    def setup(self, key, seed, size, ctx):
        from repro.apps import PAPER_APPS
        from repro.backtest import build_manifest
        from repro.experiments import ext_backtest  # noqa: F401  (the pass's imports)
        from repro.experiments.env import (
            LOOSE_DEADLINE_FACTOR,
            TIGHT_DEADLINE_FACTOR,
            ExperimentEnv,
        )

        base = ExperimentEnv.paper_default(seed=MARKET_SEED)
        # Same market, Monte-Carlo streams from the stream seed.
        env = dataclasses.replace(base, seed=key)
        if size == "full":
            shape = dict(
                n_windows=3, plan_hours=14 * 24.0, holdout_hours=7 * 24.0,
                apps=PAPER_APPS[:5], n_samples=150,
                deadline_factors=[("loose", LOOSE_DEADLINE_FACTOR),
                                  ("tight", TIGHT_DEADLINE_FACTOR)],
            )
        else:
            shape = dict(
                n_windows=2, plan_hours=10 * 24.0, holdout_hours=5 * 24.0,
                apps=("BT",), n_samples=40,
                deadline_factors=[("loose", LOOSE_DEADLINE_FACTOR)],
            )
        manifest = build_manifest(env, **shape)
        cells = [
            f"{w.index}:{app}:{dl}"
            for w in manifest.windows
            for app in manifest.apps
            for dl, _factor in manifest.deadline_factors
        ]
        return {"env": env, "manifest": manifest, "cells": cells}

    def _one(self, state, ctx, jobs, label, run):
        """One timed ``run_backtest``; ``run`` collects its digests
        (``outputs``) and its window (``windows``) under ``label``."""
        from repro import backtest
        from repro.experiments.ext_backtest import report_tables

        keys = [f"cell:{c}" for c in state["cells"]]
        keys += ["table:EXT-BT-CAL", "table:EXT-BT-TRG"]
        outputs = run["outputs"]
        with ctx.clock.timed(label, run["windows"]):
            try:
                report = backtest.run_backtest(
                    state["env"], state["manifest"], jobs=jobs
                )
            except Exception:
                _failed(f"{label} backtest")
                report = None
        if report is None:
            outputs.extend((key, None) for key in keys)
            return
        for key, result in zip(keys, report.results):
            outputs.append((key, digest(dataclasses.asdict(result))))
        tables = {t.experiment_id: t for t in report_tables(report)}
        for key in keys[len(report.results):]:
            table = tables.get(key.split(":", 1)[1])
            outputs.append((key, None if table is None else digest(
                [table.columns, table.rows, table.notes]
            )))

    def _fresh_store(self, ctx) -> None:
        shutil.rmtree(ctx.store, ignore_errors=True)
        ctx.store.mkdir(parents=True)

    def run_pass(self, state, ctx):
        from repro.core.two_level import clear_shared_caches

        self._fresh_store(ctx)
        run = {"outputs": [], "windows": {}}
        self._one(state, ctx, ctx.jobs, "cold", run)
        clear_shared_caches()  # a fresh process over the filled store
        self._one(state, ctx, ctx.jobs, "warm", run)
        clear_shared_caches()
        root = ctx.store / "v1"
        kind_mb = {kind: _tree_bytes(root / kind) / 1e6 for kind in self.KINDS}
        store_mb = _tree_bytes(ctx.store) / 1e6
        shutil.rmtree(ctx.store, ignore_errors=True)
        return PassResult(
            outputs=run["outputs"],
            windows=run["windows"],
            extra={"store_mb": store_mb},
            layer={f"artifacts.store_mb.{k}": v for k, v in kind_mb.items()},
        )

    def figures(self, state, passes):
        cold = median_pass(passes, {"cold"})
        warm = median_pass(passes, {"warm"})
        return {
            "pass_s": cold,
            "ops_per_s": len(state["cells"]) / warm,
            "named": {
                "backtest_cold_s": cold,
                "backtest_warm_s": warm,
                "store_mb": statistics.median(p.extra["store_mb"] for p in passes),
            },
        }

    def serial_speedup(self, state, ctx) -> float:
        """Warm pass at ``jobs=nproc`` against ``jobs=1`` (traced runs)."""
        from repro.core.two_level import clear_shared_caches

        self._fresh_store(ctx)
        run = {"outputs": [], "windows": {}}
        self._one(state, ctx, ctx.jobs, "fill", run)
        clear_shared_caches()
        self._one(state, ctx, ctx.jobs, "parallel", run)
        clear_shared_caches()
        self._one(state, ctx, 1, "serial", run)
        clear_shared_caches()
        shutil.rmtree(ctx.store, ignore_errors=True)
        serial, parallel = (
            ctx.clock.calibrated(run["windows"][k]) for k in ("serial", "parallel")
        )
        return serial / parallel


class ReplayRisky(Workload):
    """Monte-Carlo replays of fig8's risky market.

    Set-up plans SOMPI and the checkpoint-only / replication-only
    ablations for each (app, deadline); a pass replays every decision
    under {single-shot, persistent} x {continuous, hourly billing with
    checkpoint-storage accounting}, serially.
    """

    name = "replay-risky"
    VARIANTS = ("sompi", "wo-rp", "wo-ck")

    def setup(self, key, seed, size, ctx):
        from repro.apps import PAPER_APPS
        from repro.baselines.ablations import ablation_plan
        from repro.execution import montecarlo  # noqa: F401  (the pass's imports)
        from repro.experiments.env import (
            LOOSE_DEADLINE_FACTOR,
            TIGHT_DEADLINE_FACTOR,
            ExperimentEnv,
        )
        from repro.experiments.fig8_fault_tolerance import risky_env

        risky = risky_env(ExperimentEnv.paper_default(seed=MARKET_SEED))
        if size == "full":
            apps, variants, n = PAPER_APPS[:5], self.VARIANTS, 1000
            deadlines = (("loose", LOOSE_DEADLINE_FACTOR),
                         ("tight", TIGHT_DEADLINE_FACTOR))
        else:
            apps, variants, n = ("BT",), ("sompi",), 100
            deadlines = (("loose", LOOSE_DEADLINE_FACTOR),)
        decisions = []
        for app in apps:
            for dl_name, factor in deadlines:
                problem = risky.problem(app, factor)
                models = risky.failure_models(problem)
                for variant in variants:
                    plan = ablation_plan(variant, problem, models, risky.config)
                    decisions.append(
                        (f"{app}:{dl_name}:{variant}", problem, plan.decision)
                    )
        return {"env": risky, "decisions": decisions, "n": n, "key": key}

    def run_pass(self, state, ctx):
        import numpy as np

        from repro.cloud.billing import CONTINUOUS, HOURLY
        from repro.execution import montecarlo
        from repro.sim.rng import derive_seed

        configs = (
            ("single-shot", "continuous", CONTINUOUS, False),
            ("single-shot", "hourly", HOURLY, True),
            ("persistent", "continuous", CONTINUOUS, False),
            ("persistent", "hourly", HOURLY, True),
        )
        env, n = state["env"], state["n"]
        outputs, windows = [], {}
        for label, problem, decision in state["decisions"]:
            for semantics, bill_name, billing, storage in configs:
                op = f"{label}:{semantics}:{bill_name}"
                rng = np.random.default_rng(
                    derive_seed(state["key"], f"perfbench:{op}")
                )
                with ctx.clock.timed(op, windows):
                    try:
                        summary = montecarlo.evaluate_decision_mc(
                            problem, decision, env.history, n, rng,
                            t_min=env.train_end, semantics=semantics,
                            billing=billing, account_storage=storage,
                        )
                        result = digest(dataclasses.asdict(summary))
                    except Exception:
                        _failed(f"evaluation {op}")
                        result = None
                outputs.append((op, result))
        return PassResult(outputs=outputs, windows=windows)

    def figures(self, state, passes):
        seconds = median_pass(passes)
        rate = len(passes[0].outputs) * state["n"] / seconds
        return {
            "pass_s": seconds,
            "ops_per_s": rate,
            "named": {"replays_per_s": rate},
        }


class LintTree(Workload):
    """A cold, cache-off reprolint of ``src benchmarks``, with the
    engine's default parse threads, as ``python -m repro.analysis`` runs.

    The input is the checkout's own source tree, so the seed selects
    nothing here.
    """

    name = "lint-tree"
    FULL = ("src", "benchmarks")
    SMOKE = ("src/repro/obs",)

    def golden_keys(self, size):
        return ["tree"]

    def key_for_seed(self, seed):
        return "tree"

    def setup(self, key, seed, size, ctx):
        from repro.analysis import engine
        from repro.analysis.baseline import Baseline

        paths = [ctx.root / p for p in (self.FULL if size == "full" else self.SMOKE)]
        files = engine.discover(paths)
        lines = sum(f.read_bytes().count(b"\n") for f in files)
        Baseline.load(ctx.root / "reprolint_baseline.json")  # fail early
        return {"paths": paths, "kloc": lines / 1000.0}

    def run_pass(self, state, ctx):
        from repro.analysis import engine
        from repro.analysis.baseline import Baseline

        # A run consumes the baseline's entries, so each pass loads it.
        baseline = Baseline.load(ctx.root / "reprolint_baseline.json")
        layer = {"lint.kloc": state["kloc"]}
        windows = {}
        with ctx.clock.timed("lint", windows):
            try:
                result = engine.run_lint(
                    state["paths"], root=ctx.root, baseline=baseline,
                    cache_path=None,
                )
            except Exception:
                _failed("lint")
                result = None
        if result is None or result.exit_code() != 0:
            out = None
        else:
            out = digest([
                sorted((f.rule, f.path, f.message, f.code) for f in group)
                for group in (result.findings, result.baselined)
            ])
            stats = result.summary_stats or {}
            layer.update({
                "lint.files": result.files_checked,
                "lint.fixpoint.s": stats.get("fixpoint_s", 0.0),
                "lint.sccs": stats.get("sccs", 0),
            })
        return PassResult(
            outputs=[("lint", out)], windows=windows, layer=layer
        )

    def figures(self, state, passes):
        seconds = median_pass(passes)
        rate = state["kloc"] / seconds
        return {
            "pass_s": seconds,
            "ops_per_s": rate,
            "named": {"lint_kloc_per_s": rate},
        }


WORKLOADS = {
    w.name: w for w in (SweepQuick(), BacktestStore(), ReplayRisky(), LintTree())
}


@dataclasses.dataclass
class Context:
    """Where a run may write, and how wide it may fan out."""

    root: Path  # the checkout
    tmp: Path  # private scratch, removed at exit
    clock: Clock
    jobs: int = dataclasses.field(default_factory=lambda: os.cpu_count() or 1)

    @property
    def store(self) -> Path:
        return self.tmp / "store"
