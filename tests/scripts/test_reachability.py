"""Unit tests for ``scripts/reachability.py`` (which ``src/repro`` defs nothing enters).

No ``make ci`` entry point is started here: the def-versus-entered diff and
the allow-list gate are checked on a small synthetic module, and the
recording hook on a child interpreter that imports it and forks once.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

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


def _gate(tmp_path, entered, allowed):
    """Hold the synthetic module's unreached defs to ``allowed``."""
    path = str(tmp_path / "pkg" / "mod.py")
    defs = {path: reachability.defs_in(SYNTHETIC)}
    missing = reachability.unreached(defs, {(path, line) for line in entered})
    return reachability.gate(defs, missing, allowed, tmp_path)


#: Every def of the synthetic module that no test below enters.
NEVER = {
    "pkg/mod.py::never": "paper analysis: tests/test_never.py",
    "pkg/mod.py::never.inner": "paper analysis: tests/test_never.py",
    "pkg/mod.py::Box.cached": "figure: benchmarks/test_box.py",
    "pkg/mod.py::Box.waiting": "fault path: the asyncio front end",
}


def test_an_unlisted_unreached_def_fails_the_gate(tmp_path):
    allowed = dict(NEVER)
    del allowed["pkg/mod.py::Box.cached"]
    result = _gate(tmp_path, {4, 8, 20, 23}, allowed)
    assert result.unlisted == ["pkg/mod.py::Box.cached"]
    assert result.stale == [] and result.removable == []
    assert not result.passed
    assert reachability.gate_report(result, len(allowed)).splitlines() == [
        "reachability: not listed: pkg/mod.py::Box.cached",
        "reachability: FAILED: 1 unlisted, 0 stale, 0 removable of 3 listed "
        "in reachability_allow.json",
    ]


def test_an_entry_naming_no_def_fails_the_gate(tmp_path):
    allowed = dict(NEVER, **{"pkg/mod.py::Box.gone": "figure: benchmarks/test_box.py"})
    result = _gate(tmp_path, {4, 8, 20, 23}, allowed)
    assert result.stale == ["pkg/mod.py::Box.gone"]
    assert result.unlisted == [] and not result.passed
    report = reachability.gate_report(result, len(allowed))
    assert "reachability: stale entry, no such def: pkg/mod.py::Box.gone" in report


def test_a_listed_def_that_was_entered_passes_with_a_note(tmp_path):
    # A fault path entered on this run only: printed as removable, never a failure,
    # so the gate does not flap between runs that do and do not enter it.
    result = _gate(tmp_path, {4, 8, 20, 23, 31}, NEVER)
    assert result.passed
    assert result.removable == ["pkg/mod.py::Box.waiting"]
    assert reachability.gate_report(result, len(NEVER)).splitlines() == [
        "reachability: listed but reached, removable: pkg/mod.py::Box.waiting",
        "reachability: ok: 0 unlisted, 0 stale, 1 removable of 4 listed "
        "in reachability_allow.json",
    ]


def test_an_entry_without_a_consumer_is_refused(tmp_path):
    allow_list = tmp_path / "reachability_allow.json"
    allow_list.write_text(json.dumps({"pkg/mod.py::never": " "}))
    with pytest.raises(SystemExit, match="pkg/mod.py::never names no consumer"):
        reachability.load_allow_list(allow_list)
    allow_list.write_text(json.dumps(NEVER))
    assert reachability.load_allow_list(allow_list) == NEVER


def test_the_committed_allow_list_names_a_consumer_for_every_entry():
    allowed = reachability.load_allow_list()
    assert allowed and all(key.startswith("src/repro/") for key in allowed)
    assert list(allowed) == sorted(allowed)


def test_every_committed_entry_names_a_def_of_the_package():
    # The stale-entry half of the gate, with no command run: a def deleted or
    # renamed while its entry stays fails here before the profiled run.
    defs = reachability.package_defs()
    allowed = reachability.load_allow_list()
    result = reachability.gate(defs, defs, allowed, reachability.REPO_ROOT)
    assert result.stale == []
    assert len(result.unlisted) == sum(len(found) for found in defs.values()) - len(allowed)


def test_ci_commands_read_the_ci_steps_target_and_join_continued_lines(monkeypatch):
    printed = (
        "python -m repro.staticcheck\n"
        "python examples/parallel_private_day.py --homes 8 \\\n"
        "\t--transport socket\n"
        "\n"
    )

    def fake_run(command, **kwargs):
        assert command[:4] == ["make", "-s", "-n", "ci-steps"]
        assert command[4:] == ["PYTHON=python", "CI_BENCH_OUTPUT=bench.json"]
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


def _make_dry_run(target):
    return subprocess.run(
        ["make", "-s", "-n", target, "PYTHON=python"],
        cwd=REPO_ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.splitlines()  # fmt: skip


def test_make_ci_runs_each_non_test_step_once_under_the_gate():
    commands = reachability.ci_commands("python", Path("bench.json"))
    ci = _make_dry_run("ci")
    # ci: lint, the tests and docs-check, then the gate, which runs ci-steps.
    assert ci[0] == "python -m repro.staticcheck" and ci[-1] == "python scripts/reachability.py"
    assert "python -m pytest tests -x -q" in ci
    steps = [
        "python -m perfbench --smoke",
        "benchmarks/run_crypto_bench.py",
        "examples/parallel_private_day.py",
        "scripts/repro_plan.py",
    ]
    for step in steps:
        assert not any(step in line for line in ci)
        assert any(step in command for command in commands)
    assert sum("parallel_private_day" in command for command in commands) == 3
    assert commands[:3] == [
        "python -m repro.staticcheck",
        "python scripts/docs_check.py",
        "python scripts/check_bench_schema.py",
    ]
    assert commands == [c for c in commands if "pytest" not in c and "reachability" not in c]
    # the report is a pure function of the code: a fresh run must equal the
    # committed file byte for byte
    written = commands.index("python benchmarks/run_crypto_bench.py --output bench.json")
    assert commands[written + 1] == "diff -u BENCH_crypto.json bench.json"


def test_a_step_that_exits_non_zero_fails_the_gate(tmp_path):
    # make ci runs its non-test steps only under the gate, so a failing step
    # must stop the gate with its exit status, before any report.
    dump_dir = tmp_path / "dumps"
    dump_dir.mkdir()
    with pytest.raises(SystemExit, match="reachability: exit 3: exit 3"):
        reachability.run_all(["true", "exit 3", "true"], dump_dir, tmp_path)
