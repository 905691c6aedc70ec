"""Finding and severity types shared by the lint framework.

A :class:`Finding` is one rule violation at one source location.  It
carries the *stripped source line* (``code``) in addition to the line
number: the baseline matches findings by ``(rule, path, code)`` so that
grandfathered findings survive unrelated edits that shift line numbers
(see :mod:`.baseline`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail the run; ``WARNING`` findings are reported
    but only fail under ``--strict``.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # rule id, e.g. "R001"
    severity: Severity
    path: str  # project-relative posix path
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    code: str = ""  # stripped source line (baseline matching key)
    baselined: bool = field(default=False, compare=False)
    #: Structured autofix hint consumed by :mod:`.fixers` (``--fix``);
    #: e.g. ``{"op": "rename", "name": "wall_hours", "to": "wall_s"}``.
    fix: dict = field(default=None, compare=False)  # type: ignore[assignment]

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """``path:line:col: RULE [severity] message`` (text reporter row)."""
        tag = f"{self.rule} [{self.severity.value}]"
        suffix = " (baselined)" if self.baselined else ""
        return f"{self.path}:{self.line}:{self.col}: {tag} {self.message}{suffix}"

    def to_json(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "code": self.code,
            "baselined": self.baselined,
        }
        if self.fix:
            out["fix"] = self.fix
        return out
