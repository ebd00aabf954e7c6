"""``make docs-check`` holds ``docs/WIRE.md`` to the codec's own declarations
and ``docs/BENCHMARKS.md`` to the bench report's."""

import importlib.util
from pathlib import Path

import pytest

from repro.net.message import WIRE_HEADER_FORMAT

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "docs_check", REPO_ROOT / "scripts" / "docs_check.py"
)
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)

WIRE_DOC = (REPO_ROOT / "docs" / "WIRE.md").read_text()


def _problems(text):
    problems = []
    docs_check.check_wire_format(text, problems)
    return problems


def test_wire_doc_states_the_codecs_formats():
    assert f"`{WIRE_HEADER_FORMAT}`" in WIRE_DOC
    assert _problems(WIRE_DOC) == []
    assert "docs/WIRE.md" in docs_check.DOCS


@pytest.mark.parametrize(
    "documented, drifted, label",
    [
        (f"Header `struct` format: `{WIRE_HEADER_FORMAT}`", "Header `struct` format: `>BBQHHII`", "header format"),
        ("Ack `struct` format: `>BIHHH`", "Ack `struct` format: `>BQHHH`", "ack format"),
        ("`WIRE_VERSION` = 1", "`WIRE_VERSION` = 2", "version"),
        ("`MAX_FRAME_BYTES` = 67108864", "`MAX_FRAME_BYTES` = 4294967295", "frame cap"),
        ("| length | `>I` |", "| length | `<I` |", "length prefix"),
        ("| `energy_route` | `>d`", "| `energy_route` | `<d`", "energy_route payload"),
        ("| `payment` | `>d`", "| `payment` | `>f`", "payment payload"),
    ],
)
def test_a_documented_format_that_drifts_from_the_code_is_a_problem(documented, drifted, label):
    assert documented in WIRE_DOC
    (problem,) = _problems(WIRE_DOC.replace(documented, drifted))
    assert label in problem and "the code uses" in problem


def test_a_wire_doc_that_omits_a_format_is_a_problem():
    (problem,) = _problems(WIRE_DOC.replace("Header `struct` format", "Header layout"))
    assert "does not state the header format" in problem


BENCH_DOC = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text()


def _bench_problems(text):
    problems = []
    docs_check.check_bench_doc(text, problems)
    return problems


def test_bench_doc_names_every_declared_key_and_floor():
    assert _bench_problems(BENCH_DOC) == []


@pytest.mark.parametrize(
    "documented, drifted, expected",
    [
        ("`session_reuse_speedup` ≥\n  2.0", "`session_reuse_speedup` ≥\n  2.5", "states `session_reuse_speedup` ≥ 2.5"),
        ("`measured_speedup` >\n1.0", "`measured_speedup` ≥\n1.0", "states `measured_speedup` ≥ 1.0"),
        ("when `windows_executed` ≥ 6", "when `windows_executed` ≥ 4", "states `windows_executed` ≥ 4"),
        ("`retry_overhead` ≤ `max_attempts` − 1", "`retry_overhead` ≤ `max_attempts`", "does not state the floor `retry_overhead`"),
        ("`worker_losses`", "the worker loss count", "does not name the declared key `worker_losses`"),
        ("## `multiexp`", "## The `multiexp`", "'## Top-level keys' does not name the declared key `matches_pow`"),
    ],
)
def test_a_bench_doc_that_drifts_from_the_declaration_is_a_problem(documented, drifted, expected):
    assert documented in BENCH_DOC
    problems = _bench_problems(BENCH_DOC.replace(documented, drifted))
    assert any(expected in problem for problem in problems), problems
