"""Negative-path tests for ``scripts/check_bench_schema.py``.

``validate`` is the one gate on ``BENCH_crypto.json`` — the emitter fails
through it, CI re-runs it on the committed file — so it needs a test that
*breaks* the report in every declared way and proves each break is caught.
The breaks are derived from the declaration itself (``REPORT``) walked over
the committed report: every declared key dropped and given a wrong type,
every string emptied, every certificate flipped, every floor undercut,
every record given an undeclared key and every integer-keyed mapping a
key that is not one.  Each must produce exactly one problem, and that
problem must name the broken path.
"""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


schema = _load(REPO_ROOT / "scripts" / "check_bench_schema.py")
COMMITTED = json.loads(schema.BENCH_PATH.read_text())
DROP = object()


def _replace(report, path, value):
    """Set (or ``DROP``) the value at dotted ``path``; no-op off a mapping."""
    *parents, last = path.split(".")
    for key in parents:
        report = report.get(key) if isinstance(report, dict) else None
    if isinstance(report, dict):
        if value is DROP:
            del report[last]
        else:
            report[last] = value


def _mutated(path, value):
    report = copy.deepcopy(COMMITTED)
    _replace(report, path, value)
    return report


def _just_outside(operator, limit):
    """Values violating ``operator limit`` by as little as the type allows,
    plus the limit itself when the floor is strict."""
    step = 1 if isinstance(limit, int) else limit - math.nextafter(limit, -math.inf)
    if operator == "<=":
        return [limit + step]
    return [limit - step] + ([limit] if operator == ">" else [])


def _mutations():
    """``(kind, path, value, node)`` for every break the declaration implies."""
    for path, node, value, siblings, largest in schema.walk(schema.REPORT, COMMITTED):
        if path:
            yield "wrong-type", path, [], node
        if isinstance(node, schema.Record):
            for key, child in node.keys.items():
                if key in value:
                    yield "dropped", f"{path}.{key}".lstrip("."), DROP, child
        elif isinstance(node, schema.MapOf):
            if node.min_len > 1:
                short = dict(list(value.items())[: node.min_len - 1])
                yield "too-few", path, short, node
        else:
            if node.type in (int, float):
                yield "bool-for-number", path, True, node
            if node.type is str:
                yield "emptied", path, "", node
            if node.certificate:
                yield "flipped", path, False, node
            floor = schema.floor_in_force(node, siblings, largest)
            for outside in _just_outside(*floor) if floor else ():
                yield "undercut", path, outside, node


MUTATIONS = list(_mutations())


def _leaves(node):
    if isinstance(node, schema.Leaf):
        yield node
    elif isinstance(node, schema.Record):
        for child in node.keys.values():
            yield from _leaves(child)
    else:
        yield from _leaves(node.value)


def test_committed_report_is_valid():
    assert schema.validate(COMMITTED) == []


def test_every_declared_gate_is_mutated():
    """The committed report puts every certificate and floor ``REPORT``
    declares in force, so the derivation below reaches each of them."""
    mutated = {kind: set() for kind, *_ in MUTATIONS}
    for kind, _, _, node in MUTATIONS:
        mutated[kind].add(id(node))
    leaves = list(_leaves(schema.REPORT))
    assert mutated["flipped"] == {id(leaf) for leaf in leaves if leaf.certificate}
    assert mutated["undercut"] == {
        id(leaf) for leaf in leaves if leaf.floor is not None or leaf.budget
    }
    assert mutated["emptied"] == {id(leaf) for leaf in leaves if leaf.type is str}
    assert len(mutated["flipped"]) + len(mutated["undercut"]) >= 27


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(path, value, id=f"{kind}:{path}" + (f"={value}" * (kind == "undercut")))
        for kind, path, value, _ in MUTATIONS
    ],
)
def test_mutation_yields_one_problem_naming_the_path(path, value):
    problems = schema.validate(_mutated(path, value))
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"{path}: "), problems


def test_floors_hold_at_their_boundary():
    """A non-strict floor accepts its own limit (strict ones reject it above)."""
    for path, node, _, siblings, largest in schema.walk(schema.REPORT, COMMITTED):
        floor = isinstance(node, schema.Leaf) and schema.floor_in_force(
            node, siblings, largest
        )
        if floor and floor[0] != ">":
            assert schema.validate(_mutated(path, floor[1])) == [], path


def test_conditional_floors_are_out_of_force_off_their_condition():
    short_day = _mutated("pipelining.windows_executed", 5)
    short_day["pipelining"]["pipeline_speedup"] = 1.0
    assert schema.validate(short_day) == []
    smallest = min(COMMITTED["aggregation_topology"]["requesters"], key=int)
    path = f"aggregation_topology.requesters.{smallest}.tree_vs_chain_speedup"
    assert schema.validate(_mutated(path, 1.0)) == []


def test_undeclared_key_is_reported():
    assert schema.validate(_mutated("chaos.surprise", 1)) == [
        "chaos: undeclared key 'surprise'"
    ]


def _mappings(kind, int_keys=False):
    """Dotted paths of every ``kind`` node the committed report carries."""
    return [
        path
        for path, node, value, *_ in schema.walk(schema.REPORT, COMMITTED)
        if isinstance(node, kind) and isinstance(value, dict)
        and (not int_keys or node.int_keys)
    ]


@pytest.mark.parametrize("path", _mappings(schema.Record))
def test_every_record_reports_an_undeclared_key(path):
    report = _mutated(f"{path}.surprise".lstrip("."), 1)
    assert schema.validate(report) == [f"{path or 'report'}: undeclared key 'surprise'"]


def _value_at(report, path):
    for key in path.split("."):
        report = report[key]
    return report


@pytest.mark.parametrize("path", _mappings(schema.MapOf, int_keys=True))
def test_every_integer_keyed_mapping_reports_a_non_integer_key(path):
    """A copy of a valid entry under key ``many``: the key is the one problem."""
    report = copy.deepcopy(COMMITTED)
    entries = _value_at(report, path)
    entries["many"] = copy.deepcopy(next(iter(entries.values())))
    assert schema.validate(report) == [f"{path}: key 'many' is not an integer"]


@pytest.mark.parametrize(
    "path,value",
    [
        ("comparison.32", 5),
        ("chaos.matrix.local/day/workers=1", []),
        ("aggregation_topology.shard_invariance.chain", "x"),
        ("parallel_runner", [1]),
    ],
)
def test_wrong_typed_input_is_reported_not_raised(path, value):
    """Each of these raised ``TypeError`` / ``AttributeError`` before PR 22."""
    problems = schema.validate(_mutated(path, value))
    assert len(problems) == 1 and problems[0].startswith(f"{path}: "), problems


@pytest.mark.parametrize("key", ["many", "9" * 5000])  # int() refuses 4300+ digits
def test_non_integer_requester_key_is_reported_not_raised(key):
    """``max(requesters, key=int)`` raised ``ValueError`` before PR 22."""
    report = copy.deepcopy(COMMITTED)
    requesters = report["aggregation_topology"]["requesters"]
    requesters[key] = requesters.pop("8")
    assert schema.validate(report) == [
        f"aggregation_topology.requesters: key {key!r} is not an integer"
    ]


def _containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(
        st.text(max_size=8), children, max_size=3
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    _containers,
    max_leaves=8,
)
_PATHS = [path for path, *_ in schema.walk(schema.REPORT, COMMITTED) if path]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PATHS), _JSON), min_size=1, max_size=3))
def test_validate_never_raises(replacements):
    report = copy.deepcopy(COMMITTED)
    for path, value in replacements:
        _replace(report, path, value)
    problems = schema.validate(report)
    assert isinstance(problems, list)
    assert all(isinstance(problem, str) for problem in problems)


def test_a_report_that_is_not_a_mapping_is_one_problem():
    assert schema.validate([1]) == ["report: expected a mapping, got list"]


def test_missing_file_is_one_problem(tmp_path):
    assert schema.validate_file(tmp_path / "nope.json") == ["missing nope.json"]


def test_invalid_json_is_reported(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{not json")
    problems = schema.validate_file(path)
    assert len(problems) == 1
    assert "not valid JSON" in problems[0]


def test_cheap_emitters_emit_exactly_the_declared_keys():
    """The dict literals of the two cheap non-Observation sections carry
    every key the declaration declares (a missing one is a problem) and
    none it does not."""
    bench = _load(REPO_ROOT / "benchmarks" / "run_crypto_bench.py")
    for section, emitted in (
        ("multiexp", bench.run_multiexp_section()),
        ("comparison", bench.run_comparison_section()),
    ):
        assert schema.problems(schema.REPORT.keys[section], emitted, section) == []


def test_projection_rounds_recurses_and_matches_the_declaration():
    from repro.analysis.experiments import ChaosCellObservation, ChaosMatrixObservation

    cell = ChaosCellObservation(
        incidents=4,
        worker_losses=0,
        retried_attempts=3,
        recovered=True,
        recovered_identical=True,
    )
    section = schema.project(
        ChaosMatrixObservation(
            home_count=8,
            windows_executed=2,
            chaos_seed=20,
            max_attempts=4,
            matrix={"local/day/workers=1": cell},
            total_incidents=4,
            recovery_rate=0.99996,
            retry_overhead=1.50004,
            tamper_fail_closed=True,
            tamper_incident_classified=True,
        )
    )
    assert (section["recovery_rate"], section["retry_overhead"]) == (1.0, 1.5)
    assert section["matrix"]["local/day/workers=1"]["retried_attempts"] == 3
    assert schema.problems(schema.REPORT.keys["chaos"], section, "chaos") == []
