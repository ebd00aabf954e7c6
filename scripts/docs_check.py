#!/usr/bin/env python
"""Documentation consistency check (the `make docs-check` target).

Keeps README.md and the ``docs/`` set honest as the tree grows:

* every repo-relative path the docs mention (``src/...``, ``examples/...``,
  ``benchmarks/...``, ``docs/...``, ``scripts/...``, top-level ``*.md`` /
  ``Makefile`` / ``BENCH_crypto.json``) must exist;
* every markdown link to a relative target (``[text](../README.md)``,
  ``[text](TOPOLOGIES.md#anchor)``) must resolve to an existing file
  relative to the linking document — cross-linked docs cannot rot;
* every ``python <script>`` command in a fenced code block must point at an
  existing script;
* every documented ``make`` target must exist in the Makefile;
* dotted ``repro.*`` module references must import;
* the ``struct`` formats, version and frame cap ``docs/WIRE.md`` prints
  must be the ones the codec uses;
* ``docs/BENCHMARKS.md`` must name every key ``scripts/check_bench_schema.py``
  declares under its section's heading, and state every declared floor;
* the whole source tree must byte-compile.

Exits non-zero with a list of problems, so it can gate CI.
"""

from __future__ import annotations

import compileall
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "scripts")]

DOCS = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/TOPOLOGIES.md",
    "docs/SESSIONS.md",
    "docs/CHAOS.md",
    "docs/PLANNER.md",
    "docs/BENCHMARKS.md",
    "docs/STATIC_ANALYSIS.md",
    "docs/WIRE.md",
)

#: repo-relative path patterns worth existence-checking when mentioned.
PATH_PATTERN = re.compile(
    r"`((?:src|examples|benchmarks|docs|scripts|tests)/[\w./-]+"
    r"|[A-Z][\w-]*\.md|Makefile|BENCH_crypto\.json)`"
)
COMMAND_PATTERN = re.compile(r"python\s+((?:examples|benchmarks|scripts)/[\w./-]+\.py)")
MAKE_PATTERN = re.compile(r"make\s+([\w-]+)")
MODULE_PATTERN = re.compile(r"`(repro(?:\.\w+)+)")
#: a floor as ``check_bench_schema.describe`` words it, whatever its value.
STATED_FLOOR_PATTERN = re.compile(r"`\w+` (?:[≥>≤]|has ≥) (?:`\w+` − 1|\d+(?:\.\d+)?)")
#: inline markdown links ``[text](target)``; images excluded via (?<!\!).
LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def check_document(doc: str, problems: list) -> None:
    text = (REPO_ROOT / doc).read_text()

    for path in set(PATH_PATTERN.findall(text)):
        if not (REPO_ROOT / path).exists():
            problems.append(f"{doc}: references missing path {path!r}")

    # Relative markdown links must resolve from the linking document's
    # directory (anchors stripped; absolute URLs and mailto: skipped).
    doc_dir = (REPO_ROOT / doc).parent
    for target in set(LINK_PATTERN.findall(text)):
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (doc_dir / relative).exists():
            problems.append(f"{doc}: broken relative link {target!r}")

    for script in set(COMMAND_PATTERN.findall(text)):
        if not (REPO_ROOT / script).exists():
            problems.append(f"{doc}: documents command for missing script {script!r}")

    makefile = (REPO_ROOT / "Makefile").read_text()
    targets = set(re.findall(r"^([\w-]+):", makefile, flags=re.MULTILINE))
    for target in set(MAKE_PATTERN.findall(text)):
        if target not in targets:
            problems.append(f"{doc}: documents unknown make target {target!r}")

    for module in set(MODULE_PATTERN.findall(text)):
        # Strip trailing attribute access: import the longest importable prefix.
        parts = module.split(".")
        imported = False
        for end in range(len(parts), 1, -1):
            try:
                importlib.import_module(".".join(parts[:end]))
                imported = True
                break
            except ImportError:
                continue
            # staticcheck: ignore[silent-except] -- probe loop: an import
            # that raises anything but ImportError proves the module prefix
            # exists (attribute path inside a module), which is the check.
            except Exception:
                imported = True
                break
        if not imported:
            problems.append(f"{doc}: references unimportable module {module!r}")


def check_wire_format(text: str, problems: list) -> None:
    """``docs/WIRE.md`` must state the wire constants the codec declares."""
    from repro.net import message, transport

    documented = {
        "header format": (r"Header `struct` format: `([^`]+)`", message.WIRE_HEADER_FORMAT),
        "ack format": (r"Ack `struct` format: `([^`]+)`", transport._ACK.format),
        "length prefix": (r"\| length \| `([^`]+)` \|", transport._HEADER.format),
        "version": (r"`WIRE_VERSION` = (\d+)", str(message.WIRE_VERSION)),
        "frame cap": (r"`MAX_FRAME_BYTES` = (\d+)", str(transport.MAX_FRAME_BYTES)),
    }
    for label, (pattern, actual) in documented.items():
        found = re.search(pattern, text)
        if found is None:
            problems.append(f"docs/WIRE.md: does not state the {label}")
        elif found.group(1) != actual:
            problems.append(
                f"docs/WIRE.md: documents {label} {found.group(1)!r}, the code uses {actual!r}"
            )


def check_bench_doc(text: str, problems: list) -> None:
    """``docs/BENCHMARKS.md`` must document the report its validator declares.

    Under each section's ``## `name` `` heading (``## Top-level keys`` for
    the rest) every declared key must appear in backticks and every
    declared floor as ``check_bench_schema.describe`` words it; any other
    `` `key` ≥ value `` the section states contradicts the declaration.
    """
    import check_bench_schema as schema

    sections = {
        heading: " ".join(body.split())
        for heading, body in re.findall(
            r"^## ([^\n]+)\n(.*?)(?=^## |\Z)", text, re.MULTILINE | re.DOTALL
        )
    }
    for name, node in schema.REPORT.keys.items():
        keys = list(schema.declared(node))
        heading = next((h for h in sections if h.startswith(f"`{name}`")), None)
        if heading is None:
            heading = "Top-level keys"
            keys.insert(0, (name, node))
        body = sections.get(heading, "")
        where = f"docs/BENCHMARKS.md: '## {heading}'"
        floors = [schema.describe(key, child) for key, child in keys]
        for (key, _), floor in zip(keys, floors):
            if f"`{key}`" not in body:
                problems.append(f"{where} does not name the declared key `{key}`")
            if floor is not None and floor not in body:
                problems.append(f"{where} does not state the floor {floor}")
        for stated in STATED_FLOOR_PATTERN.findall(body):
            if not any(stated in floor for floor in floors if floor):
                problems.append(f"{where} states {stated}, which is not a declared floor")


def main() -> int:
    problems: list = []
    for doc in DOCS:
        if not (REPO_ROOT / doc).exists():
            problems.append(f"missing document {doc}")
        else:
            check_document(doc, problems)
    wire_doc = REPO_ROOT / "docs" / "WIRE.md"
    if wire_doc.exists():
        check_wire_format(wire_doc.read_text(), problems)
    bench_doc = REPO_ROOT / "docs" / "BENCHMARKS.md"
    if bench_doc.exists():
        check_bench_doc(bench_doc.read_text(), problems)

    if not compileall.compile_dir(str(REPO_ROOT / "src"), quiet=2, force=False):
        problems.append("source tree does not byte-compile (see compileall output)")

    if problems:
        print("docs-check: FAILED")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"docs-check: OK ({', '.join(DOCS)} consistent with the tree)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
