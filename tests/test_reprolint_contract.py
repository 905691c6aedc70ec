"""The call shape the repository benchmark uses to time reprolint.

``perfbench``'s ``lint-tree`` workload calls
``run_lint(paths, root=..., baseline=..., cache_path=None)``, reads
``sccs`` and ``fixpoint_s`` from ``summary_stats``, and wraps
``engine.run_lint`` / ``engine.load_unit`` in spans.  These tests pin
that contract so an engine change cannot break the benchmark silently,
and pin that the removed cache and changed-files options stay removed.
"""

import textwrap

import pytest

from repro.analysis import engine
from repro.analysis.__main__ import main
from repro.analysis.baseline import Baseline, BaselineEntry
from repro.errors import ConfigurationError

FILES = {
    "src/repro/core/mod.py": """
        import random

        def span_hours(x_hours):
            return x_hours
        """,
    "src/repro/core/other.py": """
        from repro.core.mod import span_hours

        def total_hours(x_hours):
            return span_hours(x_hours)
        """,
}


@pytest.fixture
def tree(tmp_path):
    for rel, text in FILES.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    return tmp_path


def _baseline():
    return Baseline([BaselineEntry(
        "R001", "src/repro/core/mod.py", "import random", "fixture",
    )])


def test_benchmark_call_shape(tree):
    result = engine.run_lint(
        [tree / "src"], root=tree, baseline=_baseline(), cache_path=None,
    )
    assert result.exit_code() == 0
    assert result.files_checked == 2
    assert [f.rule for f in result.baselined] == ["R001"]
    assert result.summary_stats is not None
    assert {"sccs", "fixpoint_s"} <= set(result.summary_stats)
    assert result.summary_stats["sccs"] >= 2


def test_parsing_goes_through_module_level_load_unit(tree, monkeypatch):
    # The benchmark's ``lint.parse`` span wraps ``engine.load_unit``.
    calls = []
    real = engine.load_unit

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "load_unit", counting)
    engine.run_lint([tree / "src"], root=tree, baseline=_baseline())
    assert len(calls) == 2


def test_a_cache_path_is_rejected(tree):
    with pytest.raises(ConfigurationError):
        engine.run_lint(
            [tree / "src"], root=tree, cache_path=tree / "cache.json"
        )
    assert not (tree / "cache.json").exists()


@pytest.mark.parametrize("flag", [["--cache"], ["--changed", "HEAD"]])
def test_removed_cli_flags_exit_2(tree, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["src", "--root", str(tree), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
