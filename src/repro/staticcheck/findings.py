"""The :class:`Finding` model shared by the engine, baseline and CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Sort order is ``(path, line, rule)`` — the order the CLI prints and the
    baseline serializes, so output is deterministic across runs and
    ``PYTHONHASHSEED`` values.
    """

    path: str  #: repo-relative posix path of the violating module
    line: int  #: 1-based line of the violating node
    rule: str  #: rule id (e.g. ``"csprng-default"``)
    message: str  #: one-sentence statement of the violation
    snippet: str  #: the stripped source line — also the baseline identity

    @property
    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: deliberately excludes the line number.

        Unrelated edits shift line numbers constantly; a pinned finding
        stays pinned as long as the same rule fires on the same source
        line *text* in the same file.  Moving or duplicating the offending
        line surfaces as baseline drift, which is the point.
        """
        return (self.rule, self.path, self.snippet)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        """The CLI's one-finding format: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}\n    {self.snippet}"
