"""Every rule proven against the fixtures corpus.

Each fixture under ``fixtures/`` declares its own contract on line 1::

    # staticcheck-fixture: path=<virtual repo path> expect=<rule-ids|clean>

The harness scans the fixture body at that virtual path (so path-scoped
rules see the scope the fixture targets) and asserts that exactly the
expected rules fire — no more, no less.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.staticcheck import default_rules, scan_source

FIXTURE_DIR = Path(__file__).parent / "fixtures"
HEADER = re.compile(
    r"#\s*staticcheck-fixture:\s*path=(?P<path>\S+)\s+expect=(?P<expect>\S+)"
)


def load_fixture(path: Path):
    source = path.read_text()
    match = HEADER.match(source.splitlines()[0])
    assert match, f"{path.name}: missing staticcheck-fixture header"
    expect = match.group("expect")
    expected = set() if expect == "clean" else set(expect.split(","))
    return match.group("path"), expected, source


FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))


def test_corpus_is_present():
    assert FIXTURES, "fixtures corpus is empty"


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_matches_contract(fixture):
    virtual_path, expected, source = load_fixture(fixture)
    report = scan_source(source, virtual_path, default_rules())
    fired = {finding.rule for finding in report.findings}
    assert fired == expected, (
        f"{fixture.name}: expected {sorted(expected) or ['clean']}, "
        f"got {sorted(fired) or ['clean']}: "
        + "; ".join(f.render().splitlines()[0] for f in report.findings)
    )


def test_every_rule_has_violating_and_clean_fixture():
    """The ISSUE contract: >=1 caught and >=1 clean fixture per rule."""
    caught = set()
    cleared = set()
    for fixture in FIXTURES:
        virtual_path, expected, source = load_fixture(fixture)
        rule_stem = fixture.stem
        if expected:
            caught |= expected
        else:
            # A clean fixture exercises the rule named by its file stem.
            cleared.add(rule_stem.split("_clean")[0].replace("_", "-"))
    for rule in default_rules():
        if not rule.node_types:
            continue  # engine-level rules are covered by suppression fixtures
        assert rule.id in caught, f"no violating fixture for {rule.id}"
    for stem_rule in (
        "csprng-default",
        "wallclock-purity",
        "lock-discipline",
        "silent-except",
        "frozen-mutation",
        "hash-seed",
        "no-pickle-on-wire",
        "powmod-through-seam",
    ):
        assert any(c.startswith(stem_rule) for c in cleared), (
            f"no clean fixture for {stem_rule}"
        )


def test_suppression_fixtures_cover_engine_rules():
    caught = set()
    for fixture in FIXTURES:
        _, expected, _ = load_fixture(fixture)
        caught |= expected
    assert "bad-suppression" in caught
    assert "unused-suppression" in caught


def test_wallclock_finding_points_at_call_line():
    _, _, source = load_fixture(FIXTURE_DIR / "wallclock_purity_violation.py")
    report = scan_source(source, "src/repro/net/example.py", default_rules())
    (finding,) = report.findings
    assert finding.rule == "wallclock-purity"
    assert "time.perf_counter" in source.splitlines()[finding.line - 1]
    assert finding.snippet == source.splitlines()[finding.line - 1].strip()


def test_frozen_registry_seeds_config_contracts():
    """ProtocolConfig & co. are frozen even if defined outside scanned paths."""
    source = (
        "def clobber(config):\n"
        "    cfg = ProtocolConfig(seed=1)\n"
        "    cfg.seed = 2\n"
    )
    report = scan_source(source, "src/repro/core/example.py", default_rules())
    assert {f.rule for f in report.findings} == {"frozen-mutation"}


def test_lock_discipline_ignores_init_writes():
    """Construction-time writes happen before the thread exists."""
    _, _, source = load_fixture(FIXTURE_DIR / "lock_discipline_violation.py")
    report = scan_source(source, "src/repro/runtime/example.py", default_rules())
    lines = {f.line for f in report.findings}
    init_lines = {
        i + 1
        for i, text in enumerate(source.splitlines())
        if "self.total_stocked = 0" in text
    }
    assert lines and not (lines & init_lines)
