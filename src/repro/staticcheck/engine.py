"""Rule registry, single-pass AST visitor engine, and suppression handling.

The engine parses each module once, walks the tree once, and dispatches
every node to the rules that subscribed to its type (``Rule.node_types``).
Rules are stateless between modules; scope-wide analyses (e.g. the
frozen-mutation rule's per-scope bindings) subscribe to the enclosing
node (``ast.Module`` / ``ast.FunctionDef``) and walk their own subtree.

Suppressions are inline comments::

    # staticcheck: ignore[rule-id] -- reason the invariant is waived here

The reason is mandatory: a suppression without one does not suppress and is
itself reported (``bad-suppression``), as is a suppression naming an
unknown rule id.  A well-formed suppression that matches no finding is
reported too (``unused-suppression``) so waivers cannot outlive the code
they excused.  A suppression on a comment-only line applies to the next
code line; a trailing comment applies to its own line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding

__all__ = [
    "BAD_SUPPRESSION",
    "ENGINE_RULE_IDS",
    "ModuleReport",
    "PARSE_ERROR",
    "Rule",
    "UNUSED_SUPPRESSION",
    "collect_frozen_classes",
    "iter_python_files",
    "scan_paths",
    "scan_source",
]

#: engine-emitted rule ids (registered in :mod:`.rules` for ``--explain``).
BAD_SUPPRESSION = "bad-suppression"
UNUSED_SUPPRESSION = "unused-suppression"
PARSE_ERROR = "parse-error"
ENGINE_RULE_IDS = (BAD_SUPPRESSION, UNUSED_SUPPRESSION, PARSE_ERROR)

#: the suppression-comment syntax (see the module docstring); matched only
#: against real COMMENT tokens, so prose mentioning it stays inert.
_SUPPRESSION_PATTERN = re.compile(
    r"#\s*staticcheck:\s*ignore\[(?P<ids>[^\]]*)\]\s*(?:--\s*(?P<reason>.*\S))?"
)


class Rule:
    """Base class for one invariant rule.

    Subclasses set :attr:`id` (kebab-case), :attr:`summary` (one line, shown
    in listings), :attr:`rationale` (the ``--explain`` text, tied to the
    ROADMAP invariant it encodes) and :attr:`node_types` (the AST node
    classes the engine dispatches to :meth:`visit`).
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""
    node_types: Tuple[type, ...] = ()

    def applies_to(self, ctx: "ModuleContext") -> bool:
        """Whether this rule scans ``ctx``'s module at all (path scoping)."""
        return True

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        return iter(())

    def finish(self, ctx: "ModuleContext") -> Iterator[Finding]:
        """Yield findings after the whole module has been walked."""
        return iter(())


@dataclass
class Suppression:
    """One parsed ``# staticcheck: ignore[...]`` comment."""

    comment_line: int  #: line the comment physically sits on
    target_line: int  #: code line the suppression applies to
    rule_ids: Tuple[str, ...]
    reason: Optional[str]
    used_ids: Set[str] = field(default_factory=set)


class ModuleContext:
    """Everything rules can see about the module being scanned."""

    def __init__(
        self,
        rel_path: str,
        source: str,
        tree: ast.Module,
        frozen_classes: Set[str],
    ) -> None:
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.frozen_classes = frozen_classes
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: local name -> dotted origin for top-level imports
        #: (``import random as _random`` -> ``{"_random": "random"}``,
        #: ``from time import perf_counter as pc`` ->
        #: ``{"pc": "time.perf_counter"}``) so rules see through aliasing.
        self.import_map: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_map[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.import_map[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # -- helpers rules share -----------------------------------------------------

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_dir(self, *prefixes: str) -> bool:
        return self.rel_path.startswith(prefixes)

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, resolved through imports.

        ``time.perf_counter`` -> ``"time.perf_counter"`` even when imported
        as ``import time as t`` / ``from time import perf_counter``.
        Returns ``None`` for expressions that aren't a plain dotted chain.
        """
        if isinstance(node, ast.Name):
            return self.import_map.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.qualname(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        return Finding(
            path=self.rel_path,
            line=lineno,
            rule=rule.id,
            message=message,
            snippet=self.snippet(lineno),
        )


@dataclass
class ModuleReport:
    """Scan result for one module: surviving findings + suppression audit."""

    rel_path: str
    findings: List[Finding]
    suppressions: List[Suppression]


def _comment_tokens(source: str) -> List[Tuple[int, int, str]]:
    """(line, column, text) of every real comment token.

    Tokenized, not regex-over-lines: a docstring *describing* the
    suppression syntax must not register as a suppression.  On tokenizer
    errors (possible mid-edit) the remaining comments are simply not seen —
    the parse-error finding covers the module anyway.
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def parse_suppressions(source: str) -> List[Suppression]:
    lines = source.splitlines()
    suppressions: List[Suppression] = []
    for index, column, comment in _comment_tokens(source):
        match = _SUPPRESSION_PATTERN.search(comment)
        if match is None:
            continue
        rule_ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        reason = match.group("reason")
        target = index
        if not lines[index - 1][:column].strip():
            # Comment-only line: the suppression covers the next code line.
            for offset, later in enumerate(lines[index:], start=index + 1):
                stripped = later.strip()
                if stripped and not stripped.startswith("#"):
                    target = offset
                    break
        suppressions.append(
            Suppression(
                comment_line=index,
                target_line=target,
                rule_ids=rule_ids,
                reason=reason,
            )
        )
    return suppressions


def _dispatch_index(rules: Sequence[Rule]) -> List[Tuple[Rule, Tuple[type, ...]]]:
    return [(rule, rule.node_types) for rule in rules if rule.node_types]


def scan_module(
    rel_path: str,
    source: str,
    rules: Sequence[Rule],
    frozen_classes: Set[str],
    known_rule_ids: Optional[Set[str]] = None,
) -> ModuleReport:
    """Scan one module: parse, single-pass dispatch, suppression audit."""
    if known_rule_ids is None:
        known_rule_ids = {rule.id for rule in rules} | set(ENGINE_RULE_IDS)
    suppressions = parse_suppressions(source)
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        finding = Finding(
            path=rel_path,
            line=exc.lineno or 1,
            rule=PARSE_ERROR,
            message=f"module does not parse: {exc.msg}",
            snippet=(exc.text or "").strip(),
        )
        return ModuleReport(rel_path, [finding], suppressions)

    ctx = ModuleContext(rel_path, source, tree, frozen_classes)
    active = [rule for rule in rules if rule.applies_to(ctx)]
    dispatch = _dispatch_index(active)
    raw: List[Finding] = []
    for node in ast.walk(tree):
        for rule, node_types in dispatch:
            if isinstance(node, node_types):
                raw.extend(rule.visit(node, ctx))
    for rule in active:
        raw.extend(rule.finish(ctx))

    by_line: Dict[int, List[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.target_line, []).append(suppression)

    survivors: List[Finding] = []
    for finding in raw:
        suppressed = False
        for suppression in by_line.get(finding.line, ()):
            if finding.rule in suppression.rule_ids and suppression.reason:
                suppression.used_ids.add(finding.rule)
                suppressed = True
        if not suppressed:
            survivors.append(finding)

    # Suppression hygiene: reasons are mandatory, rule ids must exist, and
    # a waiver that matches nothing has outlived the code it excused.
    lines = source.splitlines()
    for suppression in suppressions:
        comment_snippet = lines[suppression.comment_line - 1].strip()
        if not suppression.reason:
            survivors.append(
                Finding(
                    path=rel_path,
                    line=suppression.comment_line,
                    rule=BAD_SUPPRESSION,
                    message=(
                        "suppression without a reason: write "
                        "'# staticcheck: ignore[rule-id] -- why this is safe'"
                    ),
                    snippet=comment_snippet,
                )
            )
            continue
        for rule_id in suppression.rule_ids:
            if rule_id not in known_rule_ids:
                survivors.append(
                    Finding(
                        path=rel_path,
                        line=suppression.comment_line,
                        rule=BAD_SUPPRESSION,
                        message=f"suppression names unknown rule id {rule_id!r}",
                        snippet=comment_snippet,
                    )
                )
            elif rule_id not in suppression.used_ids:
                survivors.append(
                    Finding(
                        path=rel_path,
                        line=suppression.comment_line,
                        rule=UNUSED_SUPPRESSION,
                        message=(
                            f"suppression for {rule_id!r} matches no finding "
                            "on its target line; delete it"
                        ),
                        snippet=comment_snippet,
                    )
                )
        if not suppression.rule_ids:
            survivors.append(
                Finding(
                    path=rel_path,
                    line=suppression.comment_line,
                    rule=BAD_SUPPRESSION,
                    message="suppression lists no rule ids",
                    snippet=comment_snippet,
                )
            )

    survivors.sort()
    return ModuleReport(rel_path, survivors, suppressions)


# -- tree-level scanning -----------------------------------------------------------


def iter_python_files(root: Path, paths: Sequence[str]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` (repo-relative), sorted."""
    seen: List[Path] = []
    for entry in paths:
        base = (root / entry).resolve()
        if base.is_file() and base.suffix == ".py":
            seen.append(base)
        elif base.is_dir():
            seen.extend(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)
    yield from sorted(set(seen))


def collect_frozen_classes(sources: Iterable[Tuple[str, str]]) -> Set[str]:
    """Names of ``@dataclass(frozen=True)`` classes across the scanned tree.

    The frozen-mutation rule needs the registry before any module is
    scanned (a frozen class is usually mutated far from its definition),
    so this cross-module pre-pass runs first.  The repo's three config
    contracts are seeded unconditionally in case their definition files
    fall outside the scanned paths.
    """
    frozen: Set[str] = {"ProtocolConfig", "FleetSpec", "FaultPlan"}
    for _, source in sources:
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, (ast.Name, ast.Attribute))
                    and (
                        getattr(decorator.func, "id", None) == "dataclass"
                        or getattr(decorator.func, "attr", None) == "dataclass"
                    )
                    and any(
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in decorator.keywords
                    )
                ):
                    frozen.add(node.name)
    return frozen


def scan_paths(
    root: Path,
    paths: Sequence[str],
    rules: Sequence[Rule],
) -> List[ModuleReport]:
    """Scan every python file under ``paths``; reports sorted by path."""
    files = list(iter_python_files(root, paths))
    sources = [
        (path.relative_to(root).as_posix(), path.read_text())
        for path in files
    ]
    frozen = collect_frozen_classes(sources)
    known = {rule.id for rule in rules} | set(ENGINE_RULE_IDS)
    return [
        scan_module(rel_path, source, rules, frozen, known)
        for rel_path, source in sources
    ]


def scan_source(
    source: str,
    virtual_path: str,
    rules: Sequence[Rule],
    extra_frozen: Sequence[str] = (),
) -> ModuleReport:
    """Scan a source string as if it lived at ``virtual_path``.

    The test-fixture entry point: path-scoped rules (crypto modules,
    report modules, allow-lists) see ``virtual_path``, so a fixture can
    exercise any scope without living inside ``src/repro``.
    """
    frozen = collect_frozen_classes([(virtual_path, source)])
    frozen.update(extra_frozen)
    return scan_module(virtual_path, source, rules, frozen)
