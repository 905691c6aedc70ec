"""Lint driver: discovery, serial parsing, rule dispatch.

The engine is deliberately import-free of the hot simulation paths — it
touches only ``ast``, ``pathlib`` and the sibling lint modules, so
``make lint`` never pays (or perturbs) a model import.

Every run takes the same single path:

1. **Read + parse** every discovered file, one after another; a file
   that does not parse becomes an ``R000`` finding.
2. **Analyse**: build the :class:`~.project.ProjectGraph`, the escape
   analysis and the function summaries when a selected rule needs them.
3. **Dispatch**: file-scope rules run per module, project-scope rules
   run once over the graph.
4. **Reconcile** against the baseline (:mod:`.baseline`).

Suppressions
------------
A finding on line ``L`` is suppressed when line ``L`` — or a
comment-only line ``L-1`` directly above it — carries::

    # reprolint: disable=R001            -- optional reason
    # reprolint: disable=R001,R005       -- multiple rules
    # reprolint: disable=all

``# reprolint: skip-file`` anywhere in a module skips its findings
entirely (the module still contributes symbols to the project graph).
Suppressions are for *point* exemptions whose justification fits on the
line; findings grandfathered wholesale live in the baseline file
instead (:mod:`.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import ConfigurationError
from .baseline import Baseline, BaselineEntry
from .findings import Finding, Severity
from .registry import Rule, get_rules

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--.*)?$"
)
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file\b")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")

#: Rule id used for findings the engine itself emits (unparseable file).
PARSE_RULE = "R000"


@dataclass
class ModuleUnit:
    """One parsed module plus its per-line suppression table."""

    path: Path  # absolute
    relpath: str  # posix, relative to the lint root
    source: str
    lines: List[str]
    tree: ast.Module
    suppressions: Dict[int, set]  # 1-based line -> {"R001", ...} or {"all"}

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Inline suppression on the line or a comment line just above."""
        for cand in (line, line - 1):
            rules = self.suppressions.get(cand)
            if not rules:
                continue
            if cand == line - 1 and not _COMMENT_ONLY_RE.match(
                self.lines[cand - 1] if 1 <= cand <= len(self.lines) else ""
            ):
                continue  # trailing suppression governs its own line only
            if "all" in rules or rule_id in rules:
                return True
        return False

    @property
    def skip_file(self) -> bool:
        return bool(_SKIP_FILE_RE.search(self.source))


@dataclass
class LintContext:
    """Shared state rules may consult (root, file reads, project graph)."""

    root: Path
    project: Optional["object"] = None  # ProjectGraph when a rule needs it
    escape: Optional["object"] = None  # EscapeAnalysis when a rule needs it
    summaries: Optional["object"] = None  # SummaryIndex when a rule needs it
    units: Dict[str, ModuleUnit] = field(default_factory=dict)  # by relpath
    _file_cache: Dict[str, Optional[str]] = field(default_factory=dict)

    def read_project_file(self, relpath: str) -> Optional[str]:
        """Text of ``root/relpath``, or None when absent (memoised)."""
        if relpath not in self._file_cache:
            p = self.root / relpath
            self._file_cache[relpath] = (
                p.read_text(encoding="utf-8") if p.is_file() else None
            )
        return self._file_cache[relpath]

    def unit_for(self, relpath: str) -> Optional[ModuleUnit]:
        return self.units.get(relpath)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]  # new (non-baselined, non-suppressed), sorted
    baselined: List[Finding]  # matched a baseline entry
    stale_baseline: List[BaselineEntry]  # baseline entries nothing matched
    files_checked: int = 0
    #: Fixpoint statistics of the summary build (sccs, functions,
    #: fixpoint_s) when a selected rule needed summaries.
    summary_stats: Optional[dict] = None

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors or (strict and (self.findings or self.stale_baseline)):
            return 1
        return 0


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, set]:
    table: Dict[int, set] = {}
    for i, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        toks = {t for t in m.group(1).replace(" ", "").split(",") if t}
        table[i] = {"all" if t.lower() == "all" else t.upper() for t in toks}
    return table


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_unit(path: Path, root: Path, source: Optional[str] = None) -> ModuleUnit:
    """Parse one file into a :class:`ModuleUnit`.

    Raises :class:`SyntaxError` when the file does not parse; the caller
    converts that into an ``R000`` finding.
    """
    if source is None:
        source = path.read_text(encoding="utf-8")
    relpath = _relpath(path, root)
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    return ModuleUnit(
        path=path,
        relpath=relpath,
        source=source,
        lines=lines,
        tree=tree,
        suppressions=_parse_suppressions(lines),
    )


def discover(paths: Iterable[Path]) -> List[Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    out: set = set()
    for p in paths:
        p = Path(p)
        if p.is_file():
            out.add(p)
        elif p.is_dir():
            for f in p.rglob("*.py"):
                if "__pycache__" in f.parts:
                    continue
                if any(part.startswith(".") for part in f.parts[len(p.parts):]):
                    continue
                out.add(f)
        else:
            raise FileNotFoundError(f"lint target does not exist: {p}")
    return sorted(out)


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    cache_path: None = None,
) -> LintResult:
    """Lint ``paths`` and reconcile findings against ``baseline``.

    Files are read and parsed serially: concurrent ``ast.parse`` calls
    trip a CPython thread-safety bug (gh-106905), and the GIL leaves
    threads nothing to overlap.  Every run re-analyses the whole tree;
    there is no incremental cache, and ``cache_path`` is accepted only
    as ``None`` so callers that spell the cache-off run explicitly keep
    working.
    """
    if cache_path is not None:
        raise ConfigurationError(
            f"reprolint has no incremental cache (cache_path={cache_path!r}); "
            "pass cache_path=None or omit it"
        )
    root = Path(root) if root is not None else Path.cwd()
    rules = list(rules) if rules is not None else get_rules()
    need_graph = any(r.needs_graph for r in rules)
    file_rules = [r for r in rules if r.scope == "file"]
    project_rules = [r for r in rules if r.scope == "project"]

    files = discover(paths)
    linted = set()
    raw: List[Finding] = []
    units: List[ModuleUnit] = []
    for path in files:
        relpath = _relpath(path, root)
        linted.add(relpath)
        try:
            data = path.read_bytes()
        except OSError:
            raise FileNotFoundError(f"lint target does not exist: {path}")
        try:
            units.append(load_unit(path, root, source=data.decode("utf-8")))
        except SyntaxError as exc:
            raw.append(Finding(
                rule=PARSE_RULE,
                severity=Severity.ERROR,
                path=relpath,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            ))

    ctx = LintContext(root=root, units={u.relpath: u for u in units})
    if need_graph:
        from .project import ProjectGraph

        ctx.project = ProjectGraph.build(units)
        if any(getattr(r, "needs_escape", False) for r in rules):
            from .escape import EscapeAnalysis

            ctx.escape = EscapeAnalysis.build(ctx.project)
        if any(getattr(r, "needs_summaries", False) for r in rules):
            from .summaries import SummaryIndex

            ctx.summaries = SummaryIndex.build(ctx.project)

    for unit in units:
        if unit.skip_file:
            continue
        for rule in file_rules:
            if not rule.applies(unit.relpath):
                continue
            for finding in rule.check(unit, ctx):
                if not unit.is_suppressed(finding.rule, finding.line):
                    raw.append(finding)

    for rule in project_rules:
        for finding in rule.check_project(ctx):
            unit = ctx.units.get(finding.path)
            if unit is not None and (
                unit.skip_file
                or unit.is_suppressed(finding.rule, finding.line)
            ):
                continue
            if finding.path in linted:
                raw.append(finding)

    raw.sort(key=lambda f: f.sort_key)
    baseline = baseline or Baseline()
    new: List[Finding] = []
    matched: List[Finding] = []
    for finding in raw:
        if baseline.claim(finding):
            matched.append(_rebuild_baselined(finding))
        else:
            new.append(finding)
    return LintResult(
        findings=new,
        baselined=matched,
        stale_baseline=baseline.unclaimed(),
        files_checked=len(files),
        summary_stats=(
            dict(ctx.summaries.stats) if ctx.summaries is not None else None
        ),
    )


def _rebuild_baselined(finding: Finding) -> Finding:
    return Finding(
        rule=finding.rule,
        severity=finding.severity,
        path=finding.path,
        line=finding.line,
        col=finding.col,
        message=finding.message,
        code=finding.code,
        baselined=True,
        fix=finding.fix,
    )
