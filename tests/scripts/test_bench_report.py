"""A fresh run of ``benchmarks/run_crypto_bench.py`` reproduces ``BENCH_crypto.json``.

Every value in the report is an identity certificate or a figure on the
simulated clock, so the committed file is a pure function of the code:
``make ci`` diffs a fresh run against it, and these tests hold the same
identity in tier-1, one case per leaf so a drift names the value that
moved.  A change that moves a certificate or a simulated figure
regenerates the file with ``make bench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_PATH = REPO_ROOT / "BENCH_crypto.json"
RUNNER = REPO_ROOT / "benchmarks" / "run_crypto_bench.py"


def _leaves(value, path=""):
    """``{dotted path: JSON text}`` of every non-mapping value under ``value``."""
    if not isinstance(value, dict):
        return {path: json.dumps(value)}
    found = {}
    for key, item in value.items():
        found.update(_leaves(item, f"{path}.{key}" if path else key))
    return found


COMMITTED = _leaves(json.loads(COMMITTED_PATH.read_text()))


@pytest.fixture(scope="module")
def fresh_text(tmp_path_factory):
    """What one fresh run of the runner writes (~4 s on a 2-vCPU host)."""
    output = tmp_path_factory.mktemp("bench") / "BENCH_crypto.json"
    run = subprocess.run(
        [sys.executable, str(RUNNER), "--output", str(output)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return output.read_text()


@pytest.fixture(scope="module")
def fresh_leaves(fresh_text):
    return _leaves(json.loads(fresh_text))


def test_a_fresh_run_writes_the_committed_file_byte_for_byte(fresh_text):
    assert fresh_text == COMMITTED_PATH.read_text()


def test_a_fresh_run_writes_no_leaf_the_committed_file_lacks(fresh_leaves):
    assert sorted(set(fresh_leaves) - set(COMMITTED)) == []


@pytest.mark.parametrize("path", sorted(COMMITTED))
def test_a_fresh_run_reproduces_the_committed_leaf(fresh_leaves, path):
    assert fresh_leaves.get(path) == COMMITTED[path]
