"""Spans recorded around calls into the program's layers.

Tracing is installed only for traced units of a ``--trace 1`` run: it
replaces a fixed list of layer entry points with wrappers that record a
span (name, start, end, parent) per call, and is removed again before
every untraced unit.  An untraced run never installs anything, so its
end-to-end numbers are those of the unmodified program.

Where a call runs decides where its span goes:

* the benchmark's process: a span on the tracer's stack, so self
  times can be taken (a span's duration minus its children's);
* another thread of the benchmark's process (the lint's parse
  threads): inclusive seconds and calls in the tracer's thread timers,
  under a lock, so the span stack stays the main thread's alone;
* a pool worker (another pid): an obs timer ``perfbench.<name>`` in the
  worker's registry.  ``run_backtest`` already merges each cell's
  worker snapshot into the parent, which is how these come home.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

# (module, attribute path, span name).  Functions are patched in every
# loaded ``repro`` module that holds a reference to them, so call sites
# that imported the name directly see the wrapper too.
TARGETS = (
    ("repro.market.presets", "build_history", "market.history"),
    ("repro.experiments.fig8_fault_tolerance", "risky_env", "market.history"),
    ("repro.core.optimizer", "build_failure_models", "market.failure_models"),
    ("repro.core.optimizer", "SompiOptimizer.plan", "plan"),
    ("repro.core.ondemand_select", "select_ondemand_relaxed",
     "plan.ondemand_select"),
    ("repro.core.subset", "exhaustive_subset_search", "plan.subset_search"),
    ("repro.core.subset", "greedy_subset_search", "plan.subset_search"),
    ("repro.core.two_level", "TwoLevelOptimizer.optimize_subset",
     "plan.optimize_subset"),
    ("repro.core.cost_model", "evaluate", "plan.exact_eval"),
    ("repro.core.two_level", "TwoLevelOptimizer.save_search_sidecar",
     "plan.sidecar_save"),
    ("repro.execution.montecarlo", "evaluate_decision_mc", "mc"),
    ("repro.execution.batch_replay", "replay_batch", "replay.batch"),
    ("repro.execution.adaptive", "AdaptiveExecutor.run", "adaptive"),
    ("repro.execution.adaptive", "AdaptiveExecutor.run_many", "adaptive"),
    ("repro.execution.pool", "WorkerPool.run_ordered", "pool.run_ordered"),
    ("repro.execution.shm_pool", "shared_trace_handle", "shm.handle"),
    ("repro.execution.artifacts", "ArtifactStore.load", "artifacts.load"),
    ("repro.execution.artifacts", "ArtifactStore.save", "artifacts.save"),
    ("repro.backtest.harness", "run_backtest", "backtest.run"),
    ("repro.backtest.harness", "_run_cell_task", "backtest.cell"),
    ("repro.experiments.runner", "_all_experiments", "exp"),
    ("repro.analysis.engine", "run_lint", "lint"),
    ("repro.analysis.engine", "load_unit", "lint.parse"),
)

#: Layer of each span name, by prefix (longest first), for self times.
LAYERS = (
    ("market.", "market"),
    ("plan", "core"),
    ("mc", "execution"),
    ("replay.", "execution"),
    ("adaptive", "execution"),
    ("pool.", "pool"),
    ("shm.", "pool"),
    ("artifacts.", "artifacts"),
    ("backtest.", "backtest"),
    ("exp.", "experiments"),
    ("lint", "analysis"),
)
LAYER_NAMES = (
    "market", "core", "execution", "pool", "artifacts", "backtest",
    "experiments", "analysis", "bench",
)

#: Obs-registry prefix for spans recorded inside pool workers.
WORKER_PREFIX = "perfbench."


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "bench"


class Tracer:
    """Spans and counters of the benchmark's process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.spans = []  # [name, start, end, parent index, nested]
        self.stack = []
        self.counters = {}  # name -> value
        self.thread_timers = {}  # name -> [seconds, calls], other threads
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        nested = any(self.spans[i][0] == name for i in self.stack)
        self.spans.append([name, time.perf_counter(), None, parent, nested])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def add_thread_time(self, name: str, seconds: float) -> None:
        with self._lock:
            into = self.thread_timers.setdefault(name, [0.0, 0])
            into[0] += seconds
            into[1] += 1


_ACTIVE = None  # the installed Tracer, or None
_PATCHES = []  # (owner, attribute, original)
_WARMUPS_PENDING = 0  # worker side: warm-ups not yet reported home


def _count(name: str, value: float) -> None:
    tracer = _ACTIVE
    if tracer is None:
        return
    if os.getpid() != tracer.pid:
        from repro import obs

        obs.get_metrics().inc(WORKER_PREFIX + name, value)
    else:
        tracer.count(name, value)


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        if os.getpid() != tracer.pid:
            from repro import obs

            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                obs.get_metrics().add_time(
                    WORKER_PREFIX + name, time.perf_counter() - t0
                )
        if threading.get_ident() != tracer.thread:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_thread_time(name, time.perf_counter() - t0)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _file_bytes(store, kind: str, key: str) -> int:
    try:
        return store.path_for(kind, key).stat().st_size
    except OSError:
        return 0


def _wrap_store_io(fn, name: str):
    """Span plus bytes moved for ``ArtifactStore.load`` / ``save``."""
    timed = _wrap(fn, name)

    @functools.wraps(fn)
    def wrapper(store, kind, key, *args, **kwargs):
        out = timed(store, kind, key, *args, **kwargs)
        if out is not None and out is not False:
            _count(name + ".bytes", _file_bytes(store, kind, key))
        return out

    return wrapper


def _wrap_cell_task(fn, name: str):
    """The backtest worker entry point: adds the cell's wall time and
    the worker's pending warm-up count to the snapshot it ships home
    (the task resets the worker registry on entry, which would
    otherwise drop both)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _WARMUPS_PENDING
        t0 = time.perf_counter()
        result, snapshot = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        if _ACTIVE is not None and os.getpid() != _ACTIVE.pid:
            timers = snapshot.setdefault("timers", {})
            timers[WORKER_PREFIX + name] = {"seconds": seconds, "calls": 1}
            counters = snapshot.setdefault("counters", {})
            counters[WORKER_PREFIX + "pool.worker_warmups"] = _WARMUPS_PENDING
            _WARMUPS_PENDING = 0
        return result, snapshot

    return wrapper


def _wrap_experiments(fn):
    """The runner's experiment table: each experiment callable runs in
    a span ``exp.<id>``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        table = fn(*args, **kwargs)
        return {
            exp: _wrap(call, f"exp.{exp}") for exp, call in table.items()
        }

    return wrapper


def _wrap_warm_worker(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _WARMUPS_PENDING
        out = fn(*args, **kwargs)
        _WARMUPS_PENDING += 1
        return out

    return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch(owner, attr: str, new) -> None:
    _PATCHES.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def install(tracer: Tracer) -> list:
    """Wrap every target and make ``tracer`` the active one.

    Returns the targets that could not be found (renamed or removed by
    a later change); their metrics then read 0 and the run records why.
    """
    global _ACTIVE
    missing = []
    for module, path, name in TARGETS:
        try:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}:{path}")
            continue
        if name in ("artifacts.load", "artifacts.save"):
            wrapped = _wrap_store_io(original, name)
        elif name == "backtest.cell":
            wrapped = _wrap_cell_task(original, name)
        elif name == "exp":
            wrapped = _wrap_experiments(original)
        else:
            wrapped = _wrap(original, name)
        _patch(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        # Rebind direct imports (``from .x import f``) in loaded modules.
        for mod in list(sys.modules.values()):
            if mod is owner or not getattr(mod, "__name__", "").startswith(
                "repro."
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    _patch(mod, key, wrapped)
    try:
        pool_mod = importlib.import_module("repro.execution.pool")
        _patch(pool_mod, "_warm_worker", _wrap_warm_worker(pool_mod._warm_worker))
    except (ImportError, AttributeError, KeyError):
        missing.append("repro.execution.pool:_warm_worker")
    _ACTIVE = tracer
    return missing


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)


class span:
    """A span opened by the benchmark itself (set-up and pass)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.idx = None

    def __enter__(self):
        if _ACTIVE is not None:
            self.idx = _ACTIVE.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.idx is not None:
            _ACTIVE.close(self.idx)


def aggregate(tracer: Tracer) -> dict:
    """Inclusive seconds, calls, self seconds and durations per name.

    Inclusive totals count only the outermost span of a name, so a
    recursive or re-entrant call is not counted twice.
    """
    child = [0.0] * len(tracer.spans)
    for name, t0, t1, parent, _nested in tracer.spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _parent, nested) in enumerate(tracer.spans):
        entry = out.setdefault(
            name, {"s": 0.0, "calls": 0, "self_s": 0.0, "durations": []}
        )
        entry["self_s"] += (t1 - t0) - child[i]
        entry["calls"] += 1
        entry["durations"].append(t1 - t0)
        if not nested:
            entry["s"] += t1 - t0
    return out
