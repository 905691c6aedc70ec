"""Lint-engine benchmark: one whole-tree lint, best of three.

Lints the real tree the way ``make lint`` does: every module is read
and parsed, the project graph is built and the summary fixpoint
iterated, every rule runs, and findings are reconciled against the
repository baseline.  The suite asserts that every repeat reports the
same findings and that nothing outside the baseline fires, then reports
the best time.  The primary metric is that time, ``engine.cold_s``;
``summary_fixpoint_s`` isolates the interprocedural fixpoint's share.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.baseline import Baseline
from repro.analysis.engine import run_lint
from repro.analysis.registry import get_rules

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_REPEATS = 3


def run(quick: bool = False) -> dict:
    root = _REPO_ROOT
    # Quick mode lints the analysis package only (CI smoke); full mode
    # lints everything `make lint` does.
    targets = (
        [root / "src/repro/analysis"] if quick
        else [root / "src", root / "benchmarks"]
    )
    rules = get_rules()

    times, results = [], []
    for _ in range(_REPEATS):
        # Claiming consumes baseline entries, so each run loads afresh.
        baseline = Baseline.load(root / "reprolint_baseline.json")
        t0 = time.perf_counter()
        results.append(
            run_lint(targets, root=root, rules=rules, baseline=baseline)
        )
        times.append(time.perf_counter() - t0)

    def reported(result):
        return [f.to_json() for f in (*result.findings, *result.baselined)]

    first = results[0]
    assert all(reported(r) == reported(first) for r in results[1:]), (
        "repeated lints of an unchanged tree disagree"
    )
    assert not first.findings, (
        f"{len(first.findings)} finding(s) outside the baseline: "
        + "; ".join(f.format() for f in first.findings[:5])
    )

    cold_s = min(times)
    files = first.files_checked
    stats = first.summary_stats or {}
    return {
        "suite": "lint",
        "files": files,
        "rules": len(rules),
        "metrics": {
            "engine": {
                "cold_s": round(cold_s, 4),
                "cold_files_per_s": round(files / cold_s, 1),
                "findings": len(first.findings),
                "baselined": len(first.baselined),
            },
            "summaries": {
                "summary_fixpoint_s": stats.get("fixpoint_s"),
                "sccs": stats.get("sccs"),
                "functions": stats.get("functions"),
            },
        },
        "primary": {"name": "engine.cold_s", "seconds": cold_s},
    }
