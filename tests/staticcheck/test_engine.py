"""Engine mechanics: suppression targeting, baseline diffing, serialization."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.staticcheck import (
    Baseline,
    BaselineError,
    Finding,
    default_rules,
    diff_against_baseline,
    scan_source,
)
from repro.staticcheck.baseline import write_baseline
from repro.staticcheck.engine import parse_suppressions
from repro.staticcheck.rules import rule_by_id


# -- suppression parsing ----------------------------------------------------------


def test_standalone_suppression_targets_next_code_line():
    source = (
        "import time\n"
        "\n"
        "# staticcheck: ignore[wallclock-purity] -- reason here\n"
        "# an unrelated comment between does not break the link\n"
        "x = time.time()\n"
    )
    (supp,) = parse_suppressions(source)
    assert supp.comment_line == 3
    assert supp.target_line == 5
    assert supp.rule_ids == ("wallclock-purity",)
    assert supp.reason == "reason here"


def test_trailing_suppression_targets_its_own_line():
    source = "x = time.time()  # staticcheck: ignore[wallclock-purity] -- why\n"
    (supp,) = parse_suppressions(source)
    assert supp.target_line == 1


def test_docstring_mentioning_syntax_is_not_a_suppression():
    source = (
        '"""Write # staticcheck: ignore[rule-id] -- reason to waive a rule."""\n'
        "x = 1\n"
    )
    assert parse_suppressions(source) == []


def test_multi_rule_suppression_splits_ids():
    source = "# staticcheck: ignore[a-rule, b-rule] -- both waived\nx = 1\n"
    (supp,) = parse_suppressions(source)
    assert supp.rule_ids == ("a-rule", "b-rule")


def test_used_suppression_consumes_the_finding():
    source = (
        "import time\n"
        "\n"
        "\n"
        "def f(stats):\n"
        "    # staticcheck: ignore[wallclock-purity] -- sanctioned in this test\n"
        "    stats.add(time.perf_counter())\n"
    )
    report = scan_source(source, "src/repro/net/mod.py", default_rules())
    assert report.findings == []
    (supp,) = report.suppressions
    assert supp.used_ids == {"wallclock-purity"}


def test_suppression_with_empty_rule_list_is_bad():
    source = "# staticcheck: ignore[] -- no ids\nx = 1\n"
    report = scan_source(source, "src/repro/net/mod.py", default_rules())
    assert [f.rule for f in report.findings] == ["bad-suppression"]


def test_parse_error_is_a_finding_not_a_crash():
    report = scan_source("def broken(:\n", "src/repro/net/mod.py", default_rules())
    assert [f.rule for f in report.findings] == ["parse-error"]


# -- baseline -----------------------------------------------------------------------


def _finding(rule="wallclock-purity", path="src/repro/net/mod.py", line=3,
             snippet="x = time.time()"):
    return Finding(path=path, line=line, rule=rule,
                   message="test finding", snippet=snippet)


def test_baseline_diff_accepts_pinned_and_flags_new():
    pinned = _finding()
    novel = _finding(rule="silent-except", snippet="except Exception:")
    base = Baseline(entries=Counter({pinned.key: 1}))
    diff = diff_against_baseline([pinned, novel], base)
    assert diff.accepted == [pinned]
    assert diff.new == [novel]
    assert diff.stale == []
    assert not diff.clean


def test_baseline_multiplicity_is_a_multiset():
    one = _finding(line=3)
    two = _finding(line=9)  # same key (line excluded), second occurrence
    base = Baseline(entries=Counter({one.key: 1}))
    diff = diff_against_baseline([one, two], base)
    assert len(diff.accepted) == 1 and len(diff.new) == 1


def test_baseline_stale_entry_fails_the_diff():
    base = Baseline(entries=Counter({_finding().key: 1}))
    diff = diff_against_baseline([], base)
    assert diff.stale == [_finding().key]
    assert not diff.clean


def test_baseline_round_trip(tmp_path: Path):
    findings = [_finding(), _finding(line=9), _finding(rule="silent-except")]
    path = tmp_path / "baseline.json"
    write_baseline(findings, path)
    loaded = Baseline.load(path)
    diff = diff_against_baseline(findings, loaded)
    assert diff.clean
    assert len(diff.accepted) == 3


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all {",
        json.dumps({"version": 99, "findings": []}),
        json.dumps({"version": 1, "findings": "oops"}),
        json.dumps({"version": 1, "findings": [{"rule": "x"}]}),
        json.dumps({"version": 1, "findings": [
            {"rule": "x", "path": "p", "snippet": "s", "count": 0}]}),
    ],
    ids=["bad-json", "bad-version", "findings-not-list", "entry-missing-keys",
         "bad-count"],
)
def test_malformed_baseline_raises(tmp_path: Path, payload: str):
    path = tmp_path / "baseline.json"
    path.write_text(payload)
    with pytest.raises(BaselineError):
        Baseline.load(path)


# -- finding model ------------------------------------------------------------------


def test_finding_json_round_trip():
    finding = _finding()
    assert Finding(**finding.to_dict()) == finding


def test_finding_sort_order_is_path_line_rule():
    a = _finding(path="a.py", line=5)
    b = _finding(path="a.py", line=2)
    c = _finding(path="b.py", line=1)
    assert sorted([c, a, b]) == [b, a, c]


def test_rule_by_id_unknown_raises_with_known_ids():
    with pytest.raises(KeyError) as excinfo:
        rule_by_id("no-such-rule")
    assert "csprng-default" in str(excinfo.value)
