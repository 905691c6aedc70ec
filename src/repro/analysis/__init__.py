"""reprolint — AST-based invariant linter for the reproduction.

A self-contained static-analysis pass (stdlib ``ast`` only, no imports
of the simulation code) that rejects whole classes of the bugs the
runtime suites catch late or not at all: unseeded randomness in
deterministic packages, unregistered memo caches, dollars-vs-hours unit
mixing, vectorized kernels without scalar oracles/parity tests, bare
float equality, swallowed exceptions, unaudited cost ledgers,
unregistered experiment modules, and docstrings whose declared units
contradict the name-suffix convention.  DESIGN.md §9 documents the rule
set and workflow.

The v2 engine is whole-program: every lint builds a
:class:`~.project.ProjectGraph` (import graph, symbol tables, call
graph) when any selected rule needs it, unit dimensions flow through an
intraprocedural dataflow lattice (:mod:`.dataflow`), and
mechanically-safe findings carry autofix hints applied by ``--fix``
(:mod:`.fixers`).  Every run parses and analyses the whole tree
serially; nothing is cached between runs.

Run it as ``python -m repro.analysis [paths]`` or ``make lint``.
Programmatic entry points:

>>> from repro.analysis import run_lint, get_rules, Baseline
>>> result = run_lint(["src"], root=repo_root,
...                   baseline=Baseline.load(baseline_path))
>>> result.exit_code()
0
"""

from .baseline import Baseline, BaselineEntry, DEFAULT_BASELINE_NAME
from .engine import LintContext, LintResult, ModuleUnit, load_unit, run_lint
from .findings import Finding, Severity
from .fixers import FixReport, fix_paths
from .project import ProjectGraph
from .registry import RULES, Rule, get_rules, register

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "FixReport",
    "LintContext",
    "LintResult",
    "ModuleUnit",
    "ProjectGraph",
    "RULES",
    "Rule",
    "Severity",
    "fix_paths",
    "get_rules",
    "load_unit",
    "register",
    "run_lint",
]
