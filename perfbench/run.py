#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run one workload::

    python3 perfbench/run.py --workload sweep-quick --seed 3 --seconds 12 --trace 0

Run every workload untraced and print the end-to-end metrics by name::

    python3 perfbench/run.py --all

Check or regenerate the output goldens (``perfbench/goldens.json``)::

    python3 perfbench/run.py --check-goldens
    python3 perfbench/run.py --make-goldens

The last line of a single-workload run is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run stamp (machine, versions, load, per-pass figures, isolation).
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
GOLDENS = ROOT / "perfbench" / "goldens.json"

#: Set-ups are repeated at least this often, and until this much time
#: has passed (capped), so the reported median is steady.
MIN_SETUPS, MIN_SETUP_SECONDS, MAX_SETUPS = 3, 2.0, 50


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Isolation: decided before the program is imported
# ----------------------------------------------------------------------
def _isolate(uses_store: bool) -> Path:
    """Private scratch, the store pinned inside it (or off), and the
    program imported from this checkout only.

    The environment is set before any ``repro`` import or pool spawn:
    the replay kernels and pool warm-up open the store through the
    process-wide default config, so ``config.artifact_cache=False``
    alone would not keep a run out of the user's cache.
    """
    tmp = TMP_ROOT / f"{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    os.environ["REPRO_ARTIFACT_DIR"] = str(tmp / "store") if uses_store else ""
    os.environ["XDG_CACHE_HOME"] = str(tmp / "xdg")
    for name in ("REPRO_ARTIFACT_MAX_BYTES", "REPRO_AUDIT"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(_fail(f"imported repro from {repro.__file__}, not {src}"))
    return tmp


def _isolation_ok(wl, ctx) -> list:
    """Problems with where the run put artifacts (empty when clean)."""
    from repro.execution import artifacts

    problems = []
    expected = ctx.store if wl.uses_store else None
    resolved = artifacts.default_artifact_dir()
    if resolved != expected:
        problems.append(f"store resolved to {resolved}, expected {expected}")
    strays = [p for p in ctx.tmp.rglob("*.npz")]
    if not wl.uses_store and strays:
        problems.append(f"store-off workload left {len(strays)} artifact files")
    xdg = ctx.tmp / "xdg"
    if xdg.exists() and any(p.is_file() for p in xdg.rglob("*")):
        problems.append("files written under the default cache directory")
    return problems


def _clear() -> None:
    from repro.core.two_level import clear_shared_caches

    clear_shared_caches()


def _stop_children() -> None:
    """End every process this run started and wait for each.

    Pool workers are joined by ``_clear()``.  What remains is the
    multiprocessing resource tracker that shared-memory segments start:
    it would otherwise outlive this process until it notices the closed
    pipe, so it is stopped and reaped here, after the segments it
    tracks have been unlinked.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool
    workers are reaped when the pool closes), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _setups(wl, key, seed, size, ctx):
    """Set-up windows (at least ``MIN_SETUPS``) and the last state."""
    windows, state = [], None
    while len(windows) < MIN_SETUPS or (
        sum(t1 - t0 for t0, t1 in windows) < MIN_SETUP_SECONDS
        and len(windows) < MAX_SETUPS
    ):
        _clear()
        timed = {}
        with ctx.clock.timed("setup", timed):
            state = wl.setup(key, seed, size, ctx)
        windows.append(timed["setup"])
    return windows, state


def _calibrate(passes, ctx) -> None:
    """Stop sampling; fill each pass's calibrated and wall times."""
    ctx.clock.close()
    for p in passes:
        p.times = {op: ctx.clock.calibrated(w) for op, w in p.windows.items()}
        p.raw = {op: t1 - t0 for op, (t0, t1) in p.windows.items()}


def _run_untraced(wl, key, seed, size, seconds, ctx):
    """Set up several times, then pass after pass until ``seconds``
    have passed (at least one pass)."""
    from perfbench.workloads import median_pass

    setup_windows, state = _setups(wl, key, seed, size, ctx)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        _clear()
        passes.append(wl.run_pass(state, ctx))
    _clear()
    _calibrate(passes, ctx)
    setup_times = [ctx.clock.calibrated(w) for w in setup_windows]
    figures = wl.figures(state, passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": figures["pass_s"],
        "ops_per_s": figures["ops_per_s"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    stamp = {
        "named": figures["named"],
        "setup_seconds": setup_times,
        "wall": {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in setup_windows),
            "median_pass_s": median_pass(passes, field="raw"),
        },
    }
    return metrics, passes, stamp


def _unit(wl, key, seed, size, ctx, tracer):
    """One set-up plus one pass; traced when ``tracer`` is given."""
    from perfbench import spans
    from repro import obs

    _clear()
    obs.reset_metrics()
    missing = spans.install(tracer) if tracer is not None else []
    try:
        t0 = time.perf_counter()
        with spans.span("setup"):
            state = wl.setup(key, seed, size, ctx)
        t1 = time.perf_counter()
        _clear()
        t2 = time.perf_counter()
        with spans.span("pass"):
            result = wl.run_pass(state, ctx)
        t3 = time.perf_counter()
        _clear()
    finally:
        spans.uninstall()
    return {
        "seconds": (t1 - t0) + (t3 - t2),
        "state": state,
        "pass": result,
        "snapshot": obs.get_metrics().snapshot(),
        "missing": missing,
    }


def _run_traced(wl, key, seed, size, seconds, ctx):
    """Alternate untraced and traced units until ``seconds`` are up."""
    from perfbench import spans

    # A warm-up set-up pays first-use imports outside every unit, so the
    # first (untraced) unit is not charged for them.
    _clear()
    wl.setup(key, seed, size, ctx)
    plain, traced, tracers = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        if len(plain) <= len(traced):
            plain.append(_unit(wl, key, seed, size, ctx, None))
        else:
            tracers.append(spans.Tracer())
            traced.append(_unit(wl, key, seed, size, ctx, tracers[-1]))
    extras = {}
    if hasattr(wl, "serial_speedup"):
        extras["pool.speedup_vs_serial"] = wl.serial_speedup(
            traced[-1]["state"], ctx
        )
    metrics = _layer_metrics(tracers, traced, ctx, extras)
    untraced_s = statistics.fmean(u["seconds"] for u in plain)
    traced_s = statistics.fmean(u["seconds"] for u in traced)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.e2e_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    passes = [u["pass"] for u in plain + traced]
    _calibrate(passes, ctx)
    stamp = {
        "units": {"untraced": len(plain), "traced": len(traced)},
        "trace_overhead_s": traced_s - untraced_s,
        "unmeasured_targets": traced[0]["missing"],
    }
    return metrics, passes, stamp


def _layer_metrics(tracers, units, ctx, extras) -> dict:
    """Per-layer metrics, per traced unit (one set-up plus one pass)."""
    from perfbench import spans
    from perfbench.workloads import BacktestStore, SweepQuick

    n = len(units)
    agg = {}
    counters, timers = {}, {}  # timers: other threads and pool workers
    worker = spans.WORKER_PREFIX
    for tracer, unit in zip(tracers, units):
        for name, entry in spans.aggregate(tracer).items():
            into = agg.setdefault(
                name, {"s": 0.0, "calls": 0, "self_s": 0.0, "durations": []}
            )
            for field in ("s", "calls", "self_s"):
                into[field] += entry[field]
            into["durations"] += entry["durations"]
        for name, value in tracer.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, (seconds, n_calls) in tracer.thread_timers.items():
            into = timers.setdefault(worker + name, [0.0, 0])
            into[0] += seconds
            into[1] += n_calls
        for name, value in unit["snapshot"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, stat in unit["snapshot"]["timers"].items():
            into = timers.setdefault(name, [0.0, 0])
            into[0] += stat["seconds"]
            into[1] += stat["calls"]

    def incl(name):  # inclusive seconds, main thread plus the others
        return (agg.get(name, {}).get("s", 0.0)
                + timers.get(worker + name, [0.0, 0])[0]) / n

    def calls(name):
        return (agg.get(name, {}).get("calls", 0)
                + timers.get(worker + name, [0.0, 0])[1]) / n

    def count(name):
        return counters.get(name, 0) / n

    def ratio(hits, misses):
        h, m = counters.get(hits, 0), counters.get(misses, 0)
        return h / (h + m) if h + m else 0.0

    def pct(name, q):
        durations = sorted(agg.get(name, {}).get("durations", []))
        if not durations:
            return 0.0
        return 1000.0 * durations[min(len(durations) - 1, int(q * len(durations)))]

    m = {
        "market.history.s": incl("market.history"),
        "market.failure_models.s": incl("market.failure_models"),
        "market.failure_models.calls": calls("market.failure_models"),
        "plan.calls": calls("plan"),
        "plan.s": incl("plan"),
        "plan.p50_ms": pct("plan", 0.50),
        "plan.p95_ms": pct("plan", 0.95),
        "plan.ondemand_select.s": incl("plan.ondemand_select"),
        "plan.subset_search.s": incl("plan.subset_search"),
        "plan.optimize_subset.calls": calls("plan.optimize_subset"),
        "plan.optimize_subset.s": incl("plan.optimize_subset"),
        "plan.exact_eval.calls": calls("plan.exact_eval"),
        "plan.exact_eval.s": incl("plan.exact_eval"),
        "plan.sidecar_save.s": incl("plan.sidecar_save"),
        "plan.combos_evaluated": count("plan.combos_evaluated"),
        "cache.table_hit_ratio": ratio("cache.table_hits", "cache.table_misses"),
        "cache.subset_hit_ratio": ratio("cache.subset_hits", "cache.subset_misses"),
        "cache.exact_hit_ratio": ratio("cache.exact_hits", "cache.exact_misses"),
        "mc.calls": calls("mc"),
        "mc.s": incl("mc"),
        "mc.replays": count("mc.samples"),
        "replay.batch.s": incl("replay.batch"),
        "replay.batch_share": ratio("replay.batch_starts", "replay.scalar_runs"),
        "adaptive.s": incl("adaptive"),
        "adaptive.windows": count("adaptive.windows"),
        "pool.run_ordered.s": incl("pool.run_ordered"),
        "pool.spawns": count("pool.spawns"),
        "pool.tasks": count("pool.tasks"),
        "pool.worker_warmups": count(worker + "pool.worker_warmups"),
        "pool.respawns": count("pool.respawns"),
        "shm.handle.s": incl("shm.handle"),
        "shm.hits": count("cache.shm_pool_hits"),
        "shm.misses": count("cache.shm_pool_misses"),
        "backtest.cells": count("backtest.cells"),
        "backtest.plan.s": timers.get("backtest.plan", [0.0, 0])[0] / n,
        "backtest.replay.s": timers.get("backtest.replay", [0.0, 0])[0] / n,
        "backtest.shm_attach_failed": count("backtest.shm_attach_failed"),
        "mc.shm_pool_unavailable": count("mc.shm_pool_unavailable"),
        "mc.shm_attach_failed": count("mc.shm_attach_failed"),
        "lint.s": incl("lint"),
        "lint.parse.s": incl("lint.parse"),
    }
    run_ordered = m["pool.run_ordered.s"]
    m["pool.efficiency"] = (
        incl("backtest.cell") / (ctx.jobs * run_ordered) if run_ordered else 0.0
    )
    m["pool.speedup_vs_serial"] = extras.get("pool.speedup_vs_serial", 0.0)
    for op in ("load", "save"):
        name = f"artifacts.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)
        m[f"{name}.mb"] = (
            counters.get(name + ".bytes", 0)
            + counters.get(worker + name + ".bytes", 0)
        ) / n / 1e6
    for kind in BacktestStore.KINDS:
        m[f"artifacts.hit_ratio.{kind}"] = ratio(
            f"cache.artifact_hits.{kind}", f"cache.artifact_misses.{kind}"
        )
    layer_extras = [u["pass"].layer for u in units]
    for name in [f"artifacts.store_mb.{k}" for k in BacktestStore.KINDS] + [
        "lint.fixpoint.s", "lint.sccs", "lint.files", "lint.kloc",
    ]:
        m[name] = sum(x.get(name, 0.0) for x in layer_extras) / n
    for exp in SweepQuick.EXPERIMENTS:
        m[f"exp.{exp}.s"] = incl(f"exp.{exp}")
    self_s = dict.fromkeys(spans.LAYER_NAMES, 0.0)
    for name, entry in agg.items():
        self_s[spans.layer_of(name)] += entry["self_s"] / n
    for layer, value in self_s.items():
        m[f"self.{layer}.s"] = value
    m["trace.self_sum_s"] = sum(self_s.values())
    return m


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
def _load_goldens() -> dict:
    try:
        return json.loads(GOLDENS.read_text())
    except FileNotFoundError:
        return {}


def _check_outputs(wl, size, key, passes, goldens) -> tuple:
    """(attempted, failed, first mismatches) against the goldens."""
    expected = goldens.get(wl.name, {}).get(size, {}).get(str(key), {})
    attempted = failed = 0
    bad = []
    for p in passes:
        for op, got in p.outputs:
            attempted += 1
            if got is None or got != expected.get(op):
                failed += 1
                if len(bad) < 5:
                    bad.append({"op": op, "got": got, "want": expected.get(op)})
    return attempted, failed, bad


def _emit_digests(wl, size, ctx) -> dict:
    """One pass per golden key; the digests each operation produced."""
    out = {}
    for key in wl.golden_keys(size):
        _clear()
        state = wl.setup(key, 0, size, ctx)
        _clear()
        result = wl.run_pass(state, ctx)
        digests = {}
        for op, got in result.outputs:
            if got is None or digests.get(op, got) != got:
                raise SystemExit(_fail(f"{wl.name} {key} {op}: no stable output"))
            digests[op] = got
        out[str(key)] = digests
    _clear()
    return out


def _rerun(argv) -> tuple:
    """Run this script in a fresh process: (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _digests(name: str, size: str) -> dict:
    code, lines = _rerun(["--workload", name, "--size", size, "--emit-digests"])
    if code != 0 or not lines:
        raise SystemExit(_fail(f"digests of {name} ({size}): exit {code}"))
    return json.loads(lines[-1])


def _goldens_command(write: bool) -> int:
    from perfbench.workloads import WORKLOADS

    fresh = {
        name: {size: _digests(name, size) for size in ("full", "smoke")}
        for name in WORKLOADS
    }
    if write:
        GOLDENS.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDENS.relative_to(ROOT)}")
        return 0
    if fresh != _load_goldens():
        print("goldens differ from the current program's outputs")
        return 1
    print("goldens match on every workload, size and seed")
    return 0


# ----------------------------------------------------------------------
# Every workload, untraced, with its per-workload metric names
# ----------------------------------------------------------------------
NAMED_UNITS = {
    "setup_s": "s", "sweep_s": "s", "backtest_cold_s": "s",
    "backtest_warm_s": "s", "store_mb": "MB", "replays_per_s": "1/s",
    "lint_kloc_per_s": "kloc/s", "peak_rss_mb": "MB",
}


def _all_command(seed: int, seconds: float) -> int:
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        code, lines = _rerun(["--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"])
        if code != 0 or len(lines) < 2:
            print(f"{name}: exited {code}")
            status = 1
            continue
        stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
        named = dict(stamp["perfbench"]["named"])
        named["setup_s"] = result["metrics"]["setup_s"]["value"]
        named["peak_rss_mb"] = result["metrics"]["peak_rss_mb"]["value"]
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}")
        for metric, value in named.items():
            print(f"  {metric:<18} {value:12.4f} {NAMED_UNITS[metric]}")
        status |= 0 if result["correct"] else 1
    return status


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--make-goldens", action="store_true")
    parser.add_argument("--check-goldens", action="store_true")
    parser.add_argument("--emit-digests", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT)]
    if args.all:
        return _all_command(args.seed, args.seconds)
    if args.make_goldens or args.check_goldens:
        return _goldens_command(write=args.make_goldens)

    from perfbench.calib import Clock
    from perfbench.workloads import WORKLOADS, Context

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    tmp = _isolate(wl.uses_store)
    # A pool workload keeps every CPU busy; otherwise the probes follow
    # the CPU the main thread runs on.
    follow = None if wl.uses_pool else threading.get_native_id()
    ctx = Context(root=ROOT, tmp=tmp, clock=Clock(follow=follow))
    try:
        if args.emit_digests:
            print(json.dumps(_emit_digests(wl, args.size, ctx), sort_keys=True))
            return 0
        key = wl.key_for_seed(args.seed)
        load_before = os.getloadavg()
        run = _run_traced if args.trace else _run_untraced
        metrics, passes, stamp = run(
            wl, key, args.seed, args.size, args.seconds, ctx
        )
        attempted, failed, mismatches = _check_outputs(
            wl, args.size, key, passes, _load_goldens()
        )
        problems = _isolation_ok(wl, ctx)
        attempted += 1  # the isolation check is an operation too
        failed += 1 if problems else 0
        import numpy

        stamp.update({
            "workload": wl.name,
            "seed": args.seed,
            "program_key": key,
            "size": args.size,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "passes": len(passes),
            "pass_seconds": [sum(p.raw.values()) for p in passes],
            "probe_ms": ctx.clock.probe_quantiles(),
            "mismatches": mismatches,
            "isolation_problems": problems,
        })
        print(json.dumps({"perfbench": stamp}))
        units = _units()
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[section][name]}
                for name in units[section]
            },
        }))
        return 0
    finally:
        _clear()
        _stop_children()
        ctx.clock.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


if __name__ == "__main__":
    sys.exit(main())
