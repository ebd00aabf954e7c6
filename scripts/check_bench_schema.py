#!/usr/bin/env python
"""Validate ``BENCH_crypto.json`` against its declaration (part of `make docs-check`).

Usage::

    python scripts/check_bench_schema.py

``REPORT`` below declares every key of the report once: its type, whether
it is an identity certificate, and any floor it must clear.  Sections
distilled from an ``*Observation`` dataclass are declared on that dataclass
(``repro.analysis.experiments``: field name == JSON key); the rest are
spelled here.  ``validate`` is the only place a certificate or a floor is
tested — this script runs it on the committed file,
``benchmarks/run_crypto_bench.py`` on every report it writes, and
``scripts/docs_check.py`` holds ``docs/BENCHMARKS.md`` (what each key means)
to the same declaration.

Exits non-zero with a list of problems, so it can gate CI.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union, get_args, get_origin, get_type_hints

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import experiments  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_crypto.json"

#: what ``walk`` yields as the value of a declared key the report lacks.
MISSING = object()


@dataclass(frozen=True)
class Leaf:
    """One declared value.  ``type`` is ``int``, ``float`` (any number),
    ``bool``, ``str`` (non-empty) or ``dict`` (a free-form mapping).

    ``certificate``: must be ``True``.  ``floor``: must be ``>=`` it (``>``
    with ``strict``), but only ``when=(sibling, minimum)`` holds and, with
    ``largest``, only in the entry with the largest integer key.
    ``budget``: must be ``<= sibling - 1``.
    """

    type: type
    certificate: bool = False
    floor: Optional[float] = None
    strict: bool = False
    when: Optional[tuple] = None
    largest: bool = False
    budget: Optional[str] = None
    optional: bool = False
    nullable: bool = False


@dataclass(frozen=True)
class Record:
    """A mapping with exactly the declared keys."""

    keys: Mapping[str, "Node"]
    optional: bool = False


@dataclass(frozen=True)
class MapOf:
    """A mapping from data-dependent keys to one declared shape."""

    value: "Node"
    int_keys: bool = False
    min_len: int = 1
    optional = False


Node = Union[Leaf, Record, MapOf]


def _observation(cls) -> Record:
    """The declaration an Observation dataclass spells: field name == JSON key."""
    hints = get_type_hints(cls)
    return Record(
        {f.name: _field(hints[f.name], f.metadata) for f in dataclasses.fields(cls)}
    )


def _field(hint, meta: Mapping) -> Node:
    """One field's annotation plus its ``experiments._bench`` metadata."""
    if dataclasses.is_dataclass(hint):
        return _observation(hint)
    gates = {k: v for k, v in meta.items() if k not in ("digits", "min_len")}
    if get_origin(hint) is dict:
        key_type, value_type = get_args(hint)
        if value_type is object:
            return Leaf(dict)
        return MapOf(_field(value_type, gates), key_type is int, meta.get("min_len", 1))
    if get_origin(hint) is Union:  # Optional[...]
        return Leaf(get_args(hint)[0], nullable=True, **gates)
    return Leaf(hint, **gates)


_STATS = Record({"mean_s": Leaf(float), "stddev_s": Leaf(float), "rounds": Leaf(int)})
_HISTOGRAM = MapOf(Leaf(int))
_SCHEME = Record(
    {
        "table_bytes": Leaf(int),
        "garble_wall_seconds": Leaf(float),
        "and_gate_count": Leaf(int),
        "gate_histogram": _HISTOGRAM,
    }
)
_TOPOLOGY = Record(
    {
        "simulated_seconds": Leaf(float),
        "critical_path_rounds": Leaf(int),
        "hops": Leaf(int),
    }
)

#: The whole report.  Floors are conservative acceptance floors, well under
#: the measured values ``docs/BENCHMARKS.md`` quotes next to them.
REPORT = Record(
    {
        "scale": Leaf(str),
        "machine": Leaf(str),
        "datetime": Leaf(str),
        "benchmarks": MapOf(MapOf(_STATS)),
        "speedups": MapOf(MapOf(Leaf(float))),
        "comparison": MapOf(
            Record(
                {
                    "and_gate_count": Leaf(int),
                    "ot_count": Leaf(int),
                    "base_ot_count": Leaf(int),
                    "simulated_online_seconds_before": Leaf(float),
                    "simulated_online_seconds_after": Leaf(float),
                    "simulated_online_reduction": Leaf(float, floor=3.0),
                    "simulated_offline_seconds_per_instance": Leaf(float),
                    "simulated_offline_seconds_per_session": Leaf(float),
                    "outcomes_match": Leaf(bool, certificate=True),
                    "samples": Leaf(int),
                    # only when the micro-benchmarks of both paths ran
                    "wall_online_seconds_before": Leaf(float, optional=True),
                    "wall_online_seconds_after": Leaf(float, optional=True),
                    "wall_online_reduction": Leaf(float, optional=True),
                }
            ),
            int_keys=True,
        ),
        "garbling": Record(
            {
                "widths": MapOf(
                    Record(
                        {
                            "classic": _SCHEME,
                            "halfgates": _SCHEME,
                            "original_gate_histogram": _HISTOGRAM,
                            "outcomes_match": Leaf(bool, certificate=True),
                            "samples": Leaf(int),
                            "table_bytes_reduction": Leaf(float, floor=1.8),
                            # hash-count ratio (~1.2x), inside host noise: not gated
                            "garble_time_reduction": Leaf(float),
                        }
                    ),
                    int_keys=True,
                ),
                **_observation(experiments.SchemeInvarianceReport).keys,
            }
        ),
        "multiexp": Record(
            {
                "backend": Leaf(str),
                "modulus_bits": Leaf(int),
                "fixed_base_comb": Record(
                    {
                        "matches_pow": Leaf(bool, certificate=True),
                        "exponent_bits": Leaf(int),
                        "batch": Leaf(int),
                        "pow_seconds": Leaf(float),
                        "seconds": Leaf(float),
                        # the win is amortization: recorded, not gated
                        "speedup_vs_pow": Leaf(float, nullable=True),
                    }
                ),
            }
        ),
        "aggregation_topology": Record(
            {
                "requesters": MapOf(
                    Record(
                        {
                            "sums_identical": Leaf(bool, certificate=True),
                            "chain": _TOPOLOGY,
                            "tree:2": _TOPOLOGY,
                            "tree:4": _TOPOLOGY,
                            # expected ~n / log2(n): only the largest n is gated
                            "tree_vs_chain_speedup": Leaf(float, floor=2.0, largest=True),
                        }
                    ),
                    int_keys=True,
                ),
                "shard_invariance": MapOf(
                    _observation(experiments.TopologyShardInvariance)
                ),
            }
        ),
        "session_reuse": _observation(experiments.SessionReuseObservation),
        "pipelining": _observation(experiments.PipeliningObservation),
        "chaos": _observation(experiments.ChaosMatrixObservation),
        "planner": _observation(experiments.PlannerSweepObservation),
        # absent from --skip-parallel runs
        "parallel_runner": dataclasses.replace(
            _observation(experiments.ParallelDayObservation), optional=True
        ),
    }
)


def project(observation) -> dict:
    """An Observation as its report section: field name == JSON key, floats
    rounded to the declared ``digits``, mapping keys stringified, nested
    observations recursed."""

    def rendered(value, digits):
        if dataclasses.is_dataclass(value):
            return project(value)
        if isinstance(value, dict):
            return {str(key): rendered(item, digits) for key, item in value.items()}
        if isinstance(value, float) and digits is not None:
            return round(value, digits)
        return value

    return {
        f.name: rendered(getattr(observation, f.name), f.metadata.get("digits"))
        for f in dataclasses.fields(observation)
    }


def declared(node: Node) -> Iterator[tuple]:
    """Yield ``(key, node)`` for every key a record at or under ``node`` declares."""
    if isinstance(node, Record):
        for key, child in node.keys.items():
            yield key, child
            yield from declared(child)
    elif isinstance(node, MapOf):
        yield from declared(node.value)


def describe(key: str, node: Node) -> Optional[str]:
    """The floor on ``key`` (or on the key a dotted path ends in) as problems
    and ``docs/BENCHMARKS.md`` state it."""
    key = key.rpartition(".")[2]
    if isinstance(node, MapOf) and node.min_len > 1:
        return f"`{key}` has ≥ {node.min_len} entries"
    if not isinstance(node, Leaf) or (node.floor is None and node.budget is None):
        return None
    if node.budget is not None:
        text = f"`{key}` ≤ `{node.budget}` − 1"
    else:
        text = f"`{key}` {'>' if node.strict else '≥'} {node.floor}"
    if node.when is not None:
        text += f" when `{node.when[0]}` ≥ {node.when[1]}"
    return text + (" at the largest entry" if node.largest else "")


def _is(value, kind: type) -> bool:
    if kind in (int, float):  # bool is an int to isinstance, not to a report
        numbers = (int,) if kind is int else (int, float)
        return isinstance(value, numbers) and not isinstance(value, bool)
    return isinstance(value, kind)


def _is_int_key(key) -> bool:
    # 18 digits: no count in the report comes near, and int() raises past 4300
    return isinstance(key, str) and key.isascii() and key.isdigit() and len(key) <= 18


def floor_in_force(leaf: Leaf, siblings, largest: bool) -> Optional[tuple]:
    """``(operator, limit)`` of the floor ``leaf`` must clear at this position."""
    siblings = siblings or {}
    if leaf.when is not None:
        gauge = siblings.get(leaf.when[0])
        if not (_is(gauge, float) and gauge >= leaf.when[1]):
            return None
    if leaf.largest and not largest:
        return None
    if leaf.floor is not None:
        return (">" if leaf.strict else ">="), leaf.floor
    if leaf.budget is not None and _is(siblings.get(leaf.budget), int):
        return "<=", siblings[leaf.budget] - 1
    return None


def _clears(value, operator: str, limit) -> bool:
    return {">=": value >= limit, ">": value > limit, "<=": value <= limit}[operator]


def walk(node: Node, value, path: str = "", siblings=None, largest: bool = False):
    """Yield ``(path, node, value, siblings, largest)`` at every declared
    position of ``value``: each key of a record (``MISSING`` when absent)
    and each entry of a mapping, descending only into mappings.  ``siblings``
    is the enclosing record; ``largest`` says the enclosing integer-keyed
    entry has the largest key."""
    yield path, node, value, siblings, largest
    if not isinstance(value, dict) or isinstance(node, Leaf):
        return
    prefix = path + "." if path else ""
    if isinstance(node, Record):
        for key, child in node.keys.items():
            yield from walk(
                child, value.get(key, MISSING), prefix + key, value, largest
            )
        return
    counts = [int(key) for key in value if node.int_keys and _is_int_key(key)]
    top = max(counts, default=None)
    for key, item in value.items():
        at_top = top is not None and _is_int_key(key) and int(key) == top
        yield from walk(node.value, item, f"{prefix}{key}", None, at_top)


_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    str: "a string",
    dict: "a mapping",
}


def _problems(path: str, node: Node, value, siblings, largest: bool) -> Iterator[str]:
    if value is MISSING:
        if not node.optional:
            yield "missing"
    elif isinstance(node, Leaf):
        if value is None and node.nullable:
            return
        if not _is(value, node.type):
            yield f"expected {_TYPE_NAMES[node.type]}, got {type(value).__name__}"
            return
        if value == "":
            yield "is empty"
        if node.certificate and value is not True:
            yield "is not true"
        floor = floor_in_force(node, siblings, largest)
        if floor is not None and not _clears(value, *floor):
            yield f"{value!r} violates {describe(path, node)}"
    elif not isinstance(value, dict):
        yield f"expected a mapping, got {type(value).__name__}"
    elif isinstance(node, Record):
        for key in value:
            if key not in node.keys:
                yield f"undeclared key {key!r}"
    else:
        if len(value) < node.min_len:
            yield f"has {len(value)} entries, needs at least {node.min_len}"
        for key in value:
            if node.int_keys and not _is_int_key(key):
                yield f"key {key!r} is not an integer"


def problems(node: Node, value, path: str = "") -> list:
    """Every way ``value`` departs from ``node``: one ``path: what`` string each."""
    return [
        f"{visit[0] or 'report'}: {problem}"
        for visit in walk(node, value, path)
        for problem in _problems(*visit)
    ]


def validate(report) -> list:
    return problems(REPORT, report)


def measured_floors(report) -> Iterator[str]:
    """One line per floor ``report`` is held to: the measured value, then the floor."""
    for path, node, value, siblings, largest in walk(REPORT, report):
        if isinstance(node, Leaf) and floor_in_force(node, siblings, largest):
            yield f"{path} = {value!r}  ({describe(path, node)})"


def validate_file(path: Path = BENCH_PATH) -> list:
    if not path.exists():
        return [f"missing {path.name}"]
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path.name} is not valid JSON: {exc}"]
    return validate(report)


def main() -> int:
    found = validate_file()
    if found:
        print("check-bench-schema: FAILED")
        for problem in found:
            print(f"  - {problem}")
        return 1
    print(f"check-bench-schema: OK ({BENCH_PATH.name} matches its declaration)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
