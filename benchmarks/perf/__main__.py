"""CLI for the perf suite: ``PYTHONPATH=src python -m benchmarks.perf``.

Writes ``BENCH_planning.json``, ``BENCH_replay.json``,
``BENCH_market.json``, ``BENCH_lint.json`` and ``BENCH_pool.json`` at
the repository root.  When a file already exists *for the same mode*
(quick/full), the primary metric may not regress by more than
``_MAX_REGRESSION`` (20%), and may not change its name (a renamed
primary times something else) — the run fails and the old file is kept
unless ``--force`` is passed.  Files from the other mode are replaced
without comparison (different workload sizes are not comparable).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from . import lint, market, planning, pool, replay

_MAX_REGRESSION = 0.20
_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

_SUITES = {
    "planning": planning.run,
    "replay": replay.run,
    "market": market.run,
    "lint": lint.run,
    "pool": pool.run,
}


def _check_regression(path: pathlib.Path, doc: dict) -> str | None:
    """Return an error message when ``doc`` regresses the file at
    ``path`` beyond the threshold, else None."""
    if not path.exists():
        return None
    try:
        old = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if old.get("quick") != doc.get("quick"):
        return None  # different workload; not comparable
    old_name = old.get("primary", {}).get("name")
    new_name = doc.get("primary", {}).get("name")
    old_primary = old.get("primary", {}).get("seconds")
    new_primary = doc.get("primary", {}).get("seconds")
    if not old_primary or not new_primary:
        return None
    if old_name != new_name:
        return (
            f"primary metric changed from {old_name} to {new_name}; "
            "the old file times a different metric, so no comparison"
        )
    if new_primary > old_primary * (1.0 + _MAX_REGRESSION):
        return (
            f"{new_name} regressed "
            f"{new_primary / old_primary:.2f}x "
            f"({old_primary:.3f}s -> {new_primary:.3f}s, "
            f"threshold {1.0 + _MAX_REGRESSION:.2f}x)"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="reduced workload (CI smoke run)"
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite BENCH_*.json even on a >20%% regression",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="DIR",
        help="output directory (default: repository root)",
    )
    parser.add_argument(
        "--suite", nargs="*", default=None, choices=list(_SUITES),
        help="subset of suites to run (default: all)",
    )
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out) if args.out else _REPO_ROOT

    failures = []
    for name in args.suite or list(_SUITES):
        print(f"[bench] running {name} ({'quick' if args.quick else 'full'})...")
        t0 = time.perf_counter()
        doc = _SUITES[name](quick=args.quick)
        doc["format"] = "repro.bench.v1"
        doc["quick"] = bool(args.quick)
        doc["wall_s"] = round(time.perf_counter() - t0, 2)
        path = out_dir / f"BENCH_{name}.json"
        problem = _check_regression(path, doc)
        if problem and not args.force:
            failures.append(f"{path.name}: {problem}")
            print(f"[bench] REFUSED {path.name}: {problem} (use --force)")
            continue
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"[bench] wrote {path}")
        print(json.dumps(doc["metrics"], indent=1))
    if failures:
        print(f"[bench] {len(failures)} suite(s) regressed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
