"""Negative-path and round-trip tests for the ``repro lint`` CLI.

The ISSUE contract: unknown rule id, malformed baseline JSON, suppression
without a reason, and ``--baseline-update`` round-trip all exercised here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    find_root,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def mini_repo(tmp_path: Path) -> Path:
    """A minimal repo layout ``find_root`` recognises, with one clean module."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "Makefile").write_text("lint:\n\ttrue\n")
    (tmp_path / "src" / "repro" / "clean.py").write_text(
        '"""A module no rule objects to."""\n\n\ndef add(a, b):\n    return a + b\n'
    )
    return tmp_path


def run(mini_repo: Path, *extra: str) -> int:
    return main(["--root", str(mini_repo), "src/repro", *extra])


# -- negative paths -----------------------------------------------------------------


def test_unknown_rule_id_exits_usage(capsys):
    assert main(["--explain", "no-such-rule"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "no-such-rule" in err
    assert "csprng-default" in err  # the error lists the known ids


def test_malformed_baseline_exits_usage(mini_repo: Path, capsys):
    baseline = mini_repo / "staticcheck_baseline.json"
    baseline.write_text("{not json")
    code = run(mini_repo, "--baseline", str(baseline))
    assert code == EXIT_USAGE
    assert "malformed baseline" in capsys.readouterr().err


def test_wrong_baseline_version_exits_usage(mini_repo: Path):
    baseline = mini_repo / "staticcheck_baseline.json"
    baseline.write_text(json.dumps({"version": 7, "findings": []}))
    assert run(mini_repo, "--baseline", str(baseline)) == EXIT_USAGE


def test_suppression_without_reason_fails(mini_repo: Path, capsys):
    (mini_repo / "src" / "repro" / "noreason.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def f(stats):\n"
        "    # staticcheck: ignore[wallclock-purity]\n"
        "    stats.add(time.perf_counter())\n"
    )
    code = run(mini_repo)
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "[bad-suppression]" in out
    assert "[wallclock-purity]" in out  # reasonless waiver does not suppress


def test_new_finding_fails_and_stale_entry_fails(mini_repo: Path, capsys):
    violating = mini_repo / "src" / "repro" / "clocky.py"
    violating.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    assert run(mini_repo) == EXIT_FINDINGS
    capsys.readouterr()

    # Pin it; the tree is now clean against the baseline.
    assert run(mini_repo, "--baseline-update") == EXIT_CLEAN
    capsys.readouterr()
    assert run(mini_repo) == EXIT_CLEAN
    capsys.readouterr()

    # Fix the violation: the pinned entry goes stale and that fails too.
    violating.write_text("def f():\n    return 0.0\n")
    assert run(mini_repo) == EXIT_FINDINGS
    assert "stale baseline entry" in capsys.readouterr().out


def test_baseline_update_round_trip(mini_repo: Path, capsys):
    (mini_repo / "src" / "repro" / "clocky.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n"
    )
    assert run(mini_repo, "--baseline-update") == EXIT_CLEAN
    capsys.readouterr()
    payload = json.loads((mini_repo / "staticcheck_baseline.json").read_text())
    assert payload["version"] == 1
    (entry,) = payload["findings"]
    assert entry["rule"] == "wallclock-purity"
    assert entry["path"] == "src/repro/clocky.py"
    assert entry["count"] == 1

    # Round-trip: a second update over the unchanged tree is byte-identical.
    first = (mini_repo / "staticcheck_baseline.json").read_bytes()
    assert run(mini_repo, "--baseline-update") == EXIT_CLEAN
    capsys.readouterr()
    assert (mini_repo / "staticcheck_baseline.json").read_bytes() == first
    assert run(mini_repo) == EXIT_CLEAN


# -- positive paths / output modes --------------------------------------------------


def test_clean_tree_exits_zero(mini_repo: Path, capsys):
    assert run(mini_repo) == EXIT_CLEAN
    assert "repro lint: OK" in capsys.readouterr().out


def test_json_output_shape(mini_repo: Path, capsys):
    (mini_repo / "src" / "repro" / "clocky.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n"
    )
    assert run(mini_repo, "--json") == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["scanned_modules"] == 2
    (new,) = payload["new"]
    assert new["rule"] == "wallclock-purity"
    assert payload["accepted"] == [] and payload["stale"] == []


def test_no_baseline_flag_reports_pinned_findings(mini_repo: Path):
    (mini_repo / "src" / "repro" / "clocky.py").write_text(
        "import time\n\n\ndef f():\n    return time.time()\n"
    )
    assert run(mini_repo, "--baseline-update") == EXIT_CLEAN
    assert run(mini_repo) == EXIT_CLEAN
    assert run(mini_repo, "--no-baseline") == EXIT_FINDINGS


def test_explain_prints_rationale(capsys):
    assert main(["--explain", "lock-discipline"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "lock-discipline" in out
    assert len(out.splitlines()) > 2  # summary + rationale body


def test_list_rules_covers_all_six(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule_id in (
        "csprng-default",
        "wallclock-purity",
        "lock-discipline",
        "silent-except",
        "frozen-mutation",
        "hash-seed-determinism",
        "no-pickle-on-wire",
        "powmod-through-seam",
    ):
        assert rule_id in out


def test_find_root_locates_this_repo():
    assert find_root(Path(__file__).parent) == REPO_ROOT
