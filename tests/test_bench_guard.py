"""The perf suite's regression guard (``python -m benchmarks.perf``)."""

import importlib
import json

guard = importlib.import_module("benchmarks.perf.__main__")


def _doc(name, seconds, quick=True):
    return {"quick": quick, "primary": {"name": name, "seconds": seconds}}


def _write(tmp_path, doc, name="BENCH_x.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_same_primary_within_threshold_passes(tmp_path):
    path = _write(tmp_path, _doc("engine.cold_s", 1.0))
    assert guard._check_regression(path, _doc("engine.cold_s", 1.1)) is None


def test_same_primary_regression_is_refused(tmp_path):
    path = _write(tmp_path, _doc("engine.cold_s", 1.0))
    problem = guard._check_regression(path, _doc("engine.cold_s", 1.5))
    assert problem is not None and "engine.cold_s regressed" in problem


def test_changed_primary_is_refused_naming_both(tmp_path):
    # A faster number under a different name is still not comparable.
    path = _write(tmp_path, _doc("engine.warm_s", 0.0025))
    problem = guard._check_regression(path, _doc("engine.cold_s", 0.001))
    assert problem is not None
    assert "engine.warm_s" in problem and "engine.cold_s" in problem


def test_changed_primary_is_written_with_force(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    _write(out, _doc("engine.warm_s", 0.0025), name="BENCH_lint.json")
    monkeypatch.setitem(
        guard._SUITES, "lint",
        lambda quick: {"metrics": {}, **_doc("engine.cold_s", 1.0)},
    )
    argv = ["--quick", "--suite", "lint", "--out", str(out)]
    assert guard.main(argv) == 1
    assert json.loads((out / "BENCH_lint.json").read_text())[
        "primary"]["name"] == "engine.warm_s"
    assert guard.main([*argv, "--force"]) == 0
    assert json.loads((out / "BENCH_lint.json").read_text())[
        "primary"]["name"] == "engine.cold_s"


def test_other_mode_is_not_compared(tmp_path):
    path = _write(tmp_path, _doc("engine.warm_s", 0.0025, quick=False))
    assert guard._check_regression(path, _doc("engine.cold_s", 1.0)) is None
