#!/usr/bin/env python
"""Which ``src/repro`` function defs no product path enters.

Runs every non-test command of ``make ci`` (read from ``make -n ci``, so the
list follows the Makefile) plus every example ``make ci`` does not run,
with default arguments, each with a ``sitecustomize`` hook first on
``PYTHONPATH``.  The hook installs ``sys.setprofile`` (and
``threading.setprofile``) and keeps the code object of every call.  Each
process writes the ``(file, first line)`` pairs it entered under
``src/repro`` when it leaves: at ``atexit``, and from a wrapped
``os._exit``, which is how forked shard workers leave.  perfbench's child
interpreters inherit the environment, so they are counted as well.

The report lists every def that no process entered, grouped by file with
its line count, and ends with the total::

    python scripts/reachability.py

A def is entered once its code object is called; methods and nested defs
are defs of their own, while lambdas, comprehensions and class bodies are
not counted.  A decorated def starts at its first decorator, as its code
object's ``co_firstlineno`` does.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: ``(absolute file, first line)`` of one entered code object.
Entered = Set[Tuple[str, int]]

#: Environment variables the hook reads: where to dump, and which files count.
DUMP_DIR_ENV = "REPRO_REACH_DIR"
PREFIX_ENV = "REPRO_REACH_PREFIX"

HOOK = textwrap.dedent(
    '''\
    """Record every code object this process enters (see scripts/reachability.py)."""
    import atexit
    import os
    import sys
    import threading

    _seen = set()
    _add = _seen.add


    def _profile(frame, event, arg):
        if event == "call":
            _add(frame.f_code)


    def _dump():
        prefix = os.environ.get("{prefix}", "")
        target = os.path.join(os.environ["{dump}"], "%d.txt" % os.getpid())
        lines = set()
        for code in list(_seen):
            path = os.path.abspath(code.co_filename)
            if path.startswith(prefix) and code.co_name != "<module>":
                lines.add("%s\\t%d\\n" % (path, code.co_firstlineno))
        with open(target, "a") as out:
            out.writelines(sorted(lines))


    _exit = os._exit


    def _dumping_exit(code):
        sys.setprofile(None)
        _dump()
        _exit(code)


    if os.environ.get("{dump}"):
        os._exit = _dumping_exit
        atexit.register(_dump)
        threading.setprofile(_profile)
        sys.setprofile(_profile)
    '''
).format(dump=DUMP_DIR_ENV, prefix=PREFIX_ENV)


class Def(NamedTuple):
    """One function def: where its code object starts and how long it is."""

    qualname: str
    first_line: int  #: the code object's ``co_firstlineno``
    lines: int


def defs_in(source: str) -> List[Def]:
    """Every function def of one module, methods and nested defs included."""
    found: List[Def] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{scope}{child.name}"
                found.append(Def(name, first, child.end_lineno - first + 1))
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return found


def package_defs(root: Path = PACKAGE_ROOT) -> Dict[str, List[Def]]:
    """Defs of every module under ``root``, keyed by absolute path."""
    return {
        str(path): defs_in(path.read_text())
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    }


def load_entered(dump_dir: Path) -> Entered:
    """The union of every process's dump in ``dump_dir``."""
    entered: Entered = set()
    for dump in dump_dir.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, first = line.rsplit("\t", 1)
            entered.add((path, int(first)))
    return entered


def unreached(defs: Dict[str, List[Def]], entered: Entered) -> Dict[str, List[Def]]:
    """The defs whose ``(file, first line)`` no process entered, by file."""
    missing = {
        path: [d for d in file_defs if (path, d.first_line) not in entered]
        for path, file_defs in defs.items()
    }
    return {path: found for path, found in missing.items() if found}


def report(defs: Dict[str, List[Def]], missing: Dict[str, List[Def]], root: Path) -> str:
    """The unreached defs grouped by file, then the totals line."""
    out: List[str] = []
    for path, found in sorted(missing.items()):
        name = os.path.relpath(path, root)
        out.append(f"{name}  ({len(found)} defs, {sum(d.lines for d in found)} lines)")
        out.extend(f"  {d.first_line:>5}  {d.qualname}  ({d.lines} lines)" for d in found)
    total = sum(len(found) for found in defs.values())
    count = sum(len(found) for found in missing.values())
    lines = sum(d.lines for found in missing.values() for d in found)
    out.append(f"unreached: {count} of {total} defs ({lines} lines)")
    return "\n".join(out)


def ci_commands(python: str, bench_output: Path) -> List[str]:
    """``make ci``'s commands, one shell command each, pytest runs left out."""
    dry = subprocess.run(
        ["make", "-s", "-n", "ci", f"PYTHON={python}", f"CI_BENCH_OUTPUT={bench_output}"],
        cwd=REPO_ROOT, check=True, stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    commands = dry.stdout.replace("\\\n", " ").splitlines()
    return [c for c in commands if c.strip() and "-m pytest" not in c]


def other_examples(python: str, commands: Iterable[str]) -> List[str]:
    """Every ``examples/*.py`` no ``make ci`` command runs, with default arguments."""
    named = " ".join(commands)
    return [
        f"{shlex.quote(python)} examples/{path.name}"
        for path in sorted((REPO_ROOT / "examples").glob("*.py"))
        if f"examples/{path.name}" not in named
    ]


def run_all(commands: Sequence[str], dump_dir: Path, hook_dir: Path) -> Entered:
    """Run each command with the hook and return what every process entered."""
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(REPO_ROOT / "src")])
    env[DUMP_DIR_ENV] = str(dump_dir)
    env[PREFIX_ENV] = str(PACKAGE_ROOT) + os.sep
    for command in commands:
        print(f"reachability: {command}", file=sys.stderr, flush=True)
        done = subprocess.run(
            command, shell=True, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL
        )
        if done.returncode != 0:
            raise SystemExit(f"reachability: exit {done.returncode}: {command}")
    return load_entered(dump_dir)


def main(argv: Sequence[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        scratch_dir = Path(scratch)
        commands = ci_commands(sys.executable, scratch_dir / "BENCH_crypto.json")
        commands += other_examples(sys.executable, commands)
        dump_dir = scratch_dir / "dumps"
        dump_dir.mkdir()
        entered = run_all(commands, dump_dir, scratch_dir)
    defs = package_defs()
    print(report(defs, unreached(defs, entered), REPO_ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
