"""``make docs-check`` holds ``docs/WIRE.md`` to the codec's own declarations."""

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
    ],
)
def test_a_documented_format_that_drifts_from_the_code_is_a_problem(documented, drifted, label):
    assert documented in WIRE_DOC
    (problem,) = _problems(WIRE_DOC.replace(documented, drifted))
    assert label in problem and "the code uses" in problem


def test_a_wire_doc_that_omits_a_format_is_a_problem():
    (problem,) = _problems(WIRE_DOC.replace("Header `struct` format", "Header layout"))
    assert "does not state the header format" in problem
