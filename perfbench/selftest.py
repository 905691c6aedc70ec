#!/usr/bin/env python3
"""Smallest-size smoke test of the benchmark itself.

Runs every workload at ``--size smoke``, untraced and traced, and
checks that each result is correct, names exactly the metrics of
``BENCHMARK.json`` with their units, and leaves no process it started
behind.  Then checks that the benchmark refuses to run (non-zero exit,
no result) in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1"]


def _session_members(sid: int) -> list:
    """Pids (zombies too) still in session ``sid``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


def _run(cwd: Path, argv: list) -> tuple:
    """(exit code, stdout lines, pids left behind) of one run, started
    in a session of its own so that everything it spawned is found."""
    proc = subprocess.Popen(
        [sys.executable, *RUN, *argv], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = proc.communicate(timeout=600)
    return proc.returncode, out.strip().splitlines(), _session_members(proc.pid)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        trace: {m["name"]: m["unit"] for m in spec[section]}
        for trace, section in (("0", "end_to_end"), ("1", "per_layer"))
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            code, lines, left = _run(
                ROOT, ["--workload", workload, "--trace", trace, "--size", "smoke"]
            )
            label = f"{workload} --trace {trace}"
            before = len(problems)
            if left:
                problems.append(f"{label}: left processes {left} running")
            if code != 0 or not lines:
                problems.append(f"{label}: exited {code}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed operations")
            if got != expected[trace]:
                problems.append(f"{label}: metric names or units differ")
            if len(problems) == before:
                print(f"{label}: ok")

    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        code, lines, left = _run(
            bare, ["--workload", "lint-tree", "--trace", "0"]
        )
        if left:
            problems.append(f"bare directory: left processes {left} running")
        if code == 0 or any(line.startswith('{"correct"') for line in lines):
            problems.append("ran without the program's source")
        else:
            print("bare directory: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
