"""Unit tests for ``scripts/reachability.py`` (which ``src/repro`` defs nothing enters).

No ``make ci`` entry point is started here: the def-versus-entered diff is
checked on a small synthetic module, and the recording hook on a child
interpreter that imports it and forks once.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "reachability", REPO_ROOT / "scripts" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

SYNTHETIC = textwrap.dedent(
    '''\
    import functools


    def called():
        return helper() + 1


    def helper():
        return 1


    def never():
        def inner():
            return 2

        return inner


    class Box:
        def __init__(self):
            self.value = called()

        @property
        def doubled(self):
            return self.value * 2

        @functools.lru_cache(maxsize=None)
        def cached(self):
            return 3

        async def waiting(self):
            return None


    square = lambda x: x * x
    '''
)


def _write_package(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(SYNTHETIC)
    return package


def test_defs_in_counts_methods_nested_and_decorated_defs_but_no_lambda():
    defs = reachability.defs_in(SYNTHETIC)
    assert [(d.qualname, d.first_line, d.lines) for d in defs] == [
        ("called", 4, 2),
        ("helper", 8, 2),
        ("never", 12, 5),
        ("never.inner", 13, 2),
        ("Box.__init__", 20, 2),
        ("Box.doubled", 23, 3),  # from its decorator, as co_firstlineno
        ("Box.cached", 27, 3),
        ("Box.waiting", 31, 2),
    ]


def test_unreached_is_the_defs_minus_the_entered_pairs_and_the_report_totals_them(tmp_path):
    path = str(tmp_path / "mod.py")
    defs = {path: reachability.defs_in(SYNTHETIC), str(tmp_path / "empty.py"): []}
    entered = {(path, 4), (path, 8), (path, 20), (path, 23), ("elsewhere.py", 12)}
    missing = reachability.unreached(defs, entered)
    assert [d.qualname for d in missing[path]] == [
        "never", "never.inner", "Box.cached", "Box.waiting"
    ]  # fmt: skip
    assert list(missing) == [path]  # a file with nothing unreached is left out
    assert reachability.report(defs, missing, tmp_path).splitlines() == [
        "mod.py  (4 defs, 12 lines)",
        "     12  never  (5 lines)",
        "     13  never.inner  (2 lines)",
        "     27  Box.cached  (3 lines)",
        "     31  Box.waiting  (2 lines)",
        "unreached: 4 of 8 defs (12 lines)",
    ]


def test_the_hook_records_every_process_a_forked_child_leaving_through_os_exit_too(tmp_path):
    package = _write_package(tmp_path)
    hook_dir, dump_dir = tmp_path / "hook", tmp_path / "dumps"
    hook_dir.mkdir()
    dump_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(reachability.HOOK)
    script = textwrap.dedent(
        """\
        import os
        from pkg import mod

        mod.called()  # the parent: called, helper
        child = os.fork()
        if child == 0:
            mod.Box().doubled  # the child only: Box.__init__, Box.doubled
            os._exit(0)
        os.waitpid(child, 0)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(tmp_path)])
    env[reachability.DUMP_DIR_ENV] = str(dump_dir)
    env[reachability.PREFIX_ENV] = str(package) + os.sep
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    assert len(list(dump_dir.glob("*.txt"))) == 2  # one dump per process
    entered = reachability.load_entered(dump_dir)
    assert {path for path, _ in entered} == {str(package / "mod.py")}
    defs = reachability.package_defs(package)
    missing = reachability.unreached(defs, entered)
    assert [d.qualname for d in missing[str(package / "mod.py")]] == [
        "never", "never.inner", "Box.cached", "Box.waiting"
    ]  # fmt: skip


def test_ci_commands_join_continued_lines_and_leave_the_pytest_runs_out(monkeypatch):
    printed = (
        "python -m repro.staticcheck\n"
        "python -m pytest tests -x -q\n"
        "python examples/parallel_private_day.py --homes 8 \\\n"
        "\t--transport socket\n"
        "\n"
    )

    def fake_run(command, **kwargs):
        assert command[:4] == ["make", "-s", "-n", "ci"]
        return subprocess.CompletedProcess(command, 0, stdout=printed)

    monkeypatch.setattr(reachability.subprocess, "run", fake_run)
    commands = reachability.ci_commands("python", Path("bench.json"))
    assert commands == [
        "python -m repro.staticcheck",
        "python examples/parallel_private_day.py --homes 8  \t--transport socket",
    ]
    others = reachability.other_examples("python", commands)
    assert "python examples/quickstart.py" in others
    assert not any("parallel_private_day" in command for command in others)
