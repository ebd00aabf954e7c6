"""The invariant rules: each one encodes a standing ROADMAP invariant.

Every rule here exists because a past PR fixed (or a review almost missed)
a bug that was a *pattern*: an unguarded read-modify-write on a refiller
counter (PR 8), a silently-swallowed exception, a seedable RNG one refactor
away from minting key material.  The rules are deliberately syntactic —
stdlib ``ast``, no type inference — so every check is fast, deterministic,
and explainable; path scoping plus ``# staticcheck: ignore[...] -- reason``
suppressions handle the seams where an invariant is waived on purpose.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .engine import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    UNUSED_SUPPRESSION,
    ModuleContext,
    Rule,
)
from .findings import Finding

__all__ = ["DEFAULT_RULES", "default_rules", "rule_by_id"]


def _is_seedable_random(node: ast.AST, ctx: ModuleContext) -> bool:
    """``random.Random(...)`` (or an alias of it) — the seedable generator."""
    return (
        isinstance(node, ast.Call)
        and ctx.qualname(node.func) == "random.Random"
    )


def _rng_like(name: str) -> bool:
    return "rng" in name.lower()


class CsprngDefaultRule(Rule):
    id = "csprng-default"
    summary = "crypto code must not default to a seedable random.Random"
    rationale = """\
ROADMAP invariant: pool material is CSPRNG-only.  Randomizer obfuscators,
wire labels and OT pads must come from random.SystemRandom or secrets —
a seedable Mersenne Twister that leaks into key material lets a restarted
per-worker stream reuse obfuscators across shards and link ciphertexts.

Flags, in modules under src/repro/crypto/: any construction of
random.Random(...) and any random.seed(...) call; everywhere scanned: a
seedable Random passed as an rng= keyword argument (a crypto seam fed a
deterministic generator at the call site), an rng-named parameter whose
*default value* is a seedable Random, the fallback idiom
`rng or random.Random(...)`, and — in crypto modules — an
`rng: ... = None` parameter whose body neither falls back to
SystemRandom/secrets nor delegates the rng onward.

Deterministic seams (protocol-randomness derivation, the planner's seeded
comparator sizing probe, benchmark reproducibility) are real and allowed:
suppress with a reason, or pin in the baseline."""
    node_types = (ast.Call, ast.FunctionDef, ast.AsyncFunctionDef)

    def _in_crypto(self, ctx: ModuleContext) -> bool:
        return ctx.in_dir("src/repro/crypto/")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_rng_params(node, ctx)
            return
        assert isinstance(node, ast.Call)
        if ctx.qualname(node.func) == "random.seed" and self._in_crypto(ctx):
            yield ctx.finding(
                self, node, "random.seed() reseeds the shared module RNG in a crypto module"
            )
            return
        if not _is_seedable_random(node, ctx):
            return
        parent = ctx.parents.get(node)
        if self._in_crypto(ctx):
            yield ctx.finding(
                self,
                node,
                "seedable random.Random constructed in a crypto module; "
                "use random.SystemRandom or secrets",
            )
        elif isinstance(parent, ast.keyword) and _rng_like(parent.arg or ""):
            yield ctx.finding(
                self,
                node,
                f"seedable random.Random passed as {parent.arg}= at a crypto seam",
            )
        elif isinstance(parent, ast.arguments):
            yield ctx.finding(
                self,
                node,
                "parameter defaults to a seedable random.Random; default to "
                "None with a SystemRandom/secrets fallback instead",
            )
        elif isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.Or):
            names = [v for v in parent.values if isinstance(v, ast.Name)]
            if any(_rng_like(name.id) for name in names):
                yield ctx.finding(
                    self,
                    node,
                    "rng fallback is a seedable random.Random; fall back to "
                    "random.SystemRandom() instead",
                )

    def _check_rng_params(
        self, node: ast.FunctionDef, ctx: ModuleContext
    ) -> Iterator[Finding]:
        """In crypto modules: ``rng=None`` must fall back to a CSPRNG.

        The body satisfies the rule when it references SystemRandom or the
        secrets module (the fallback), passes the rng name onward to
        another call, or stores it on an attribute (delegation — the
        callee or the consuming method owns the fallback).
        """
        if not self._in_crypto(ctx):
            return
        args = node.args
        pairs: List[Tuple[ast.arg, Optional[ast.AST]]] = []
        positional = list(args.posonlyargs) + list(args.args)
        defaults: List[Optional[ast.AST]] = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        pairs.extend(zip(positional, defaults))
        pairs.extend(zip(args.kwonlyargs, args.kw_defaults))
        for arg, default in pairs:
            if not _rng_like(arg.arg):
                continue
            if not (isinstance(default, ast.Constant) and default.value is None):
                continue
            if self._body_handles_none_rng(node, arg.arg, ctx):
                continue
            yield ctx.finding(
                self,
                node,
                f"{node.name}() takes {arg.arg}=None but its body neither "
                "falls back to SystemRandom/secrets nor delegates the rng",
            )

    @staticmethod
    def _body_handles_none_rng(
        func: ast.FunctionDef, rng_name: str, ctx: ModuleContext
    ) -> bool:
        used = False
        for node in ast.walk(func):
            qual = ctx.qualname(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if qual is not None and (
                qual.endswith("SystemRandom") or qual == "secrets" or qual.startswith("secrets.")
            ):
                return True
            if isinstance(node, ast.Call):
                argument_names = [
                    a.id for a in node.args if isinstance(a, ast.Name)
                ] + [
                    kw.value.id
                    for kw in node.keywords
                    if isinstance(kw.value, ast.Name)
                ]
                if rng_name in argument_names:
                    return True
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id == rng_name
                and any(isinstance(t, ast.Attribute) for t in node.targets)
            ):
                return True
            if isinstance(node, ast.Name) and node.id == rng_name:
                used = True
        # An rng the body never touches needs no fallback.
        return not used


class WallclockPurityRule(Rule):
    id = "wallclock-purity"
    summary = "no wall-clock reads in simulation-pure modules"
    rationale = """\
ROADMAP invariant: bit-identity is the determinism certificate.  Every
quantity that feeds TrafficStats, the cost model, or RunReport.identical_to
must be a pure function of the protocol's event sequence — a time.time()
/ perf_counter() / monotonic() read anywhere in that dataflow makes two
identical runs diverge and voids the certificate.

Wall clocks are allowed exactly where wall time is the *point*: the
runner's wall-seconds telemetry (deliberately outside identical_to), the
supervisor's retry backoff, and benchmarks/ and scripts/ wholesale.
Everything else under src/repro/ is simulation-pure and scanned."""
    node_types = (ast.Call,)

    #: modules where wall-clock use is the point, not a leak.
    ALLOWED_PATHS = frozenset(
        {
            "src/repro/runtime/runner.py",
            "src/repro/runtime/supervisor.py",
        }
    )
    WALLCLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.sleep",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
        }
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_dir("src/repro/") and ctx.rel_path not in self.ALLOWED_PATHS

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        qual = ctx.qualname(node.func)
        if qual in self.WALLCLOCK_CALLS:
            yield ctx.finding(
                self,
                node,
                f"{qual}() in a simulation-pure module: wall-clock reads here "
                "break the bit-identity certificate",
            )


class NoThreadRule(Rule):
    id = "no-thread"
    summary = "src/repro starts no thread"
    rationale = """\
ROADMAP invariant: no thread in src/repro.  Offline material is staged
inline and SocketTransport pumps both ends of its connection on the
calling thread (delivery is promised only at flush(), so nothing needs
receipt to run concurrently).  With no second thread there is no
thread-shared state to guard, which is what the former lock-discipline
rule checked: an attribute mutated both on a thread target and on the
main thread had to be mutated under a lock on both sides (the refiller
lost-update race).

Flags any threading.Thread(...) construction under src/repro/.  If a
thread is ever needed again, restore the lock-discipline rule from git
history in the same change and hold the new thread's shared state to it."""
    node_types = (ast.Call,)

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_dir("src/repro/")

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.qualname(node.func) == "threading.Thread":
            yield ctx.finding(
                self,
                node,
                "threading.Thread in src/repro: restore the lock-discipline rule "
                "from git history before adding a thread",
            )


class SilentExceptRule(Rule):
    id = "silent-except"
    summary = "broad except handlers must re-raise, record, or count"
    rationale = """\
ROADMAP invariant: drained-pool fallbacks are counted, never silent — and
the same goes for every other degraded path.  A bare `except:` or
`except Exception:` whose body quietly substitutes a fallback hides real
faults from the supervisor's incident classification (PR 7) and from the
bit-identity certificate's fallback counters.

A broad handler passes when it: binds the exception and actually *uses* it
(propagation), re-raises, increments a counter (any augmented assignment),
or calls something whose name says it records (record/log/warn/incident/
count/note/abort/fail/retry/report).  Otherwise: narrow the exception type
to what the protected call actually raises."""
    node_types = (ast.ExceptHandler,)

    _RECORDING_HINTS = (
        "record", "incident", "log", "warn", "count", "note",
        "abort", "fail", "retry", "report",
    )

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if not self._is_broad(node.type, ctx):
            return
        if node.name and self._name_used(node.body, node.name):
            return
        if self._body_accounts(node.body):
            return
        caught = "bare except" if node.type is None else f"except {ast.unparse(node.type)}"
        yield ctx.finding(
            self,
            node,
            f"{caught} swallows the exception without re-raising, recording "
            "an incident, or counting it; narrow the type or account for it",
        )

    def _is_broad(self, type_node: Optional[ast.AST], ctx: ModuleContext) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt, ctx) for elt in type_node.elts)
        qual = ctx.qualname(type_node)
        return qual in {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}

    @staticmethod
    def _name_used(body: Sequence[ast.stmt], name: str) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Name)
                    and node.id == name
                    and isinstance(node.ctx, ast.Load)
                ):
                    return True
        return False

    def _body_accounts(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.AugAssign)):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else (
                        func.id if isinstance(func, ast.Name) else ""
                    )
                    lowered = name.lower()
                    if any(hint in lowered for hint in self._RECORDING_HINTS):
                        return True
        return False


class FrozenMutationRule(Rule):
    id = "frozen-mutation"
    summary = "no attribute assignment on frozen dataclass instances"
    rationale = """\
ProtocolConfig, FleetSpec, FaultPlan — every configuration contract in the
repo is a frozen dataclass *because* sharded workers, the planner and the
chaos replayer all assume a config's identity never changes after
construction (a mutated FaultPlan would replay a different fault sequence
than it recorded).  Runtime raises FrozenInstanceError on the plain
assignment, but only on the path that executes; `object.__setattr__` and
`setattr` bypass the guard silently.

Flags, within one function scope: `x = SomeFrozenClass(...)` (or a
parameter annotated with a frozen class) followed by `x.attr = ...`,
`setattr(x, ...)`, or `object.__setattr__(x, ...)`.  The
frozen-class registry is collected from every `@dataclass(frozen=True)`
definition in the scanned tree (plus the three contracts above).  The
sanctioned `object.__setattr__(self, ...)` idiom inside the class's own
__init__/__post_init__ is naturally exempt: `self` is never a tracked
binding."""
    node_types = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        body = node.body if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else []
        bindings: Dict[str, str] = {}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Parameters annotated with a frozen class are tracked too —
            # that is how plans/specs usually arrive in a function.
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                annotation = arg.annotation
                name = (
                    annotation.id
                    if isinstance(annotation, ast.Name)
                    else annotation.attr
                    if isinstance(annotation, ast.Attribute)
                    else None
                )
                if name in ctx.frozen_classes:
                    bindings[arg.arg] = name
        yield from self._walk(body, bindings, ctx)

    def _walk(
        self,
        stmts: Sequence[ast.stmt],
        bindings: Dict[str, str],
        ctx: ModuleContext,
    ) -> Iterator[Finding]:
        for stmt in stmts:
            # Nested scopes are dispatched to visit() on their own.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield from self._check_stmt(stmt, bindings, ctx)
            for child_body in self._nested_bodies(stmt):
                yield from self._walk(child_body, bindings, ctx)
            self._update_bindings(stmt, bindings, ctx)

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> List[Sequence[ast.stmt]]:
        bodies = []
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(stmt, attr, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                bodies.append(block)
        for handler in getattr(stmt, "handlers", []) or []:
            bodies.append(handler.body)
        return bodies

    def _check_stmt(
        self, stmt: ast.stmt, bindings: Dict[str, str], ctx: ModuleContext
    ) -> Iterator[Finding]:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in bindings
            ):
                cls = bindings[target.value.id]
                yield ctx.finding(
                    self,
                    stmt,
                    f"attribute assignment on frozen dataclass {cls} "
                    f"(instance {target.value.id!r}); build a new instance "
                    "with dataclasses.replace instead",
                )
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.qualname(node.func)
            if qual not in {"setattr", "object.__setattr__"}:
                continue
            if (
                node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in bindings
            ):
                cls = bindings[node.args[0].id]
                yield ctx.finding(
                    self,
                    node,
                    f"{qual}() on frozen dataclass {cls} (instance "
                    f"{node.args[0].id!r}) bypasses the frozen guard",
                )

    @staticmethod
    def _update_bindings(
        stmt: ast.stmt, bindings: Dict[str, str], ctx: ModuleContext
    ) -> None:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            cls: Optional[str] = None
            if isinstance(value, ast.Call):
                func = value.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else ""
                )
                if name in ctx.frozen_classes:
                    cls = name
            if cls is not None:
                bindings[target.id] = cls
            else:
                bindings.pop(target.id, None)


class HashSeedDeterminismRule(Rule):
    id = "hash-seed-determinism"
    summary = "no PYTHONHASHSEED-dependent order in report/serialization code"
    rationale = """\
ROADMAP invariant: session accounting and reports are shard-invariant, and
derived seeds must be identical across worker processes — which is why
KeyRing derivation uses SHA-256, not hash() (Python salts str/bytes
hashing per process).  The same trap applies to iteration: a bare set's
order is salted too, so a report or wire frame built by iterating one is
bit-identical only by luck.

Flags, in the report/serialization layers (src/repro/analysis, net,
blockchain, runtime): calls to builtin hash(), and iterating a set
expression — a set literal/comprehension or set(...) — in a for loop, a
comprehension, or an order-exposing call (list/tuple/enumerate/iter,
str.join).  sorted(set(...)) is the sanctioned spelling and is never
flagged; content hashing routes through hashlib.sha256."""
    node_types = (ast.Call, ast.For, ast.comprehension)

    SCOPE = (
        "src/repro/analysis/",
        "src/repro/net/",
        "src/repro/blockchain/",
        "src/repro/runtime/",
    )
    _ORDER_EXPOSING = frozenset({"list", "tuple", "enumerate", "iter"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_dir(*self.SCOPE)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.For) and self._is_set_expr(node.iter, ctx):
            yield self._order_finding(node.iter, "for loop", ctx)
        elif isinstance(node, ast.comprehension) and self._is_set_expr(node.iter, ctx):
            yield self._order_finding(node.iter, "comprehension", ctx)
        elif isinstance(node, ast.Call):
            qual = ctx.qualname(node.func)
            if qual == "hash":
                yield ctx.finding(
                    self,
                    node,
                    "builtin hash() is PYTHONHASHSEED-salted for str/bytes; "
                    "route identity through hashlib.sha256",
                )
            elif (
                qual in self._ORDER_EXPOSING
                and node.args
                and self._is_set_expr(node.args[0], ctx)
            ):
                yield self._order_finding(node.args[0], f"{qual}()", ctx)
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and self._is_set_expr(node.args[0], ctx)
            ):
                yield self._order_finding(node.args[0], "str.join", ctx)

    @staticmethod
    def _is_set_expr(node: ast.AST, ctx: ModuleContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and ctx.qualname(node.func) == "set"

    def _order_finding(self, node: ast.AST, where: str, ctx: ModuleContext) -> Finding:
        return ctx.finding(
            self,
            node,
            f"iterating a set in a {where}: PYTHONHASHSEED-dependent order "
            "in report/serialization code; wrap in sorted(...)",
        )


class NoPickleOnWireRule(Rule):
    id = "no-pickle-on-wire"
    summary = "no pickle import or call in the network and chaos layers"
    rationale = """\
ROADMAP aim: no byte from a socket reaches pickle.loads.  Unpickling runs
whatever the bytes say, so a peer that can write to a message connection
could execute code, and a corrupted frame raises whatever pickle feels
like instead of a FrameError the supervisor can classify.  Messages and
acknowledgements have a binary codec (Message.encode / Message.decode,
docs/WIRE.md); nothing under src/repro/net/ or src/repro/chaos/ may import
or call the pickle family again.

Scoped to those two packages on purpose: runtime/runner.py still pickles
shard payloads and outcomes between a parent and the workers it forked
itself, which is ROADMAP item 4(a), not a finding."""
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    SCOPE = ("src/repro/net/", "src/repro/chaos/")
    #: stdlib modules that rebuild arbitrary objects from bytes.
    PICKLE_MODULES = frozenset({"pickle", "_pickle", "shelve", "marshal"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_dir(*self.SCOPE)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            assert isinstance(node, ast.Call)
            modules = [ctx.qualname(node.func) or ""]
        for module in modules:
            if module.split(".")[0] in self.PICKLE_MODULES:
                yield ctx.finding(
                    self,
                    node,
                    f"{module} in the wire layers: frames and acks go through "
                    "the binary codec (Message.encode/decode), never pickle",
                )


class PowmodThroughSeamRule(Rule):
    id = "powmod-through-seam"
    summary = "crypto modular exponentiation goes through bigint.powmod"
    rationale = """\
ROADMAP aim: performance that is measured.  Paillier lifts and decryption,
Miller-Rabin rounds and the base-OT group operations are PEM's wall-clock
cost, and repro.crypto.bigint.powmod is the one seam that puts libcrypto's
constant-time Montgomery ladder behind all of them, over moduli kept
resident with their Montgomery contexts (about ten times faster than
builtin pow at 1024-bit moduli, three times at 128, same integers).  A
three-argument builtin pow written beside the seam silently returns that
call site to long division, and no test can notice: the answer is
identical, only the day gets slower.

Flags, under src/repro/crypto/ outside bigint.py itself: a call to builtin
pow with a modulus (three positional arguments or mod=) unless the
exponent is the literal -1 — a modular inverse, which the ladder does not
compute.  The independent decryption oracle (decrypt_raw_textbook) stays
on pow on purpose and carries the one waiver: it must not share the
library it cross-checks."""
    node_types = (ast.Call,)

    SCOPE = "src/repro/crypto/"
    SEAM = "src/repro/crypto/bigint.py"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_dir(self.SCOPE) and ctx.rel_path != self.SEAM

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.qualname(node.func) != "pow":
            return
        has_modulus = len(node.args) == 3 or any(
            keyword.arg == "mod" for keyword in node.keywords
        )
        if not has_modulus or (len(node.args) >= 2 and self._is_minus_one(node.args[1])):
            return
        yield ctx.finding(
            self,
            node,
            "three-argument builtin pow in a crypto module; route it through "
            "repro.crypto.bigint.powmod",
        )

    @staticmethod
    def _is_minus_one(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and node.operand.value == 1
        )


class _EngineRule(Rule):
    """Doc-only registration for findings the engine emits itself."""

    node_types = ()


class BadSuppressionRule(_EngineRule):
    id = BAD_SUPPRESSION
    summary = "malformed suppression comment"
    rationale = """\
Suppression policy: every `# staticcheck: ignore[rule-id] -- reason` must
name at least one *known* rule id and carry a non-empty reason after `--`.
A reasonless waiver is indistinguishable from a silenced bug two PRs
later; an unknown rule id means the waiver guards nothing.  Emitted by the
engine (not suppressible)."""


class UnusedSuppressionRule(_EngineRule):
    id = UNUSED_SUPPRESSION
    summary = "suppression that matches no finding"
    rationale = """\
A well-formed suppression whose rule no longer fires on its target line
has outlived the code it excused — left in place it would silently cover
the *next* violation someone writes there.  Delete it (or move it with the
code it belongs to).  Emitted by the engine (not suppressible)."""


class ParseErrorRule(_EngineRule):
    id = PARSE_ERROR
    summary = "module does not parse"
    rationale = """\
A file the engine cannot parse cannot be scanned, so a syntax error is
reported as a finding rather than silently skipping the module (silent
skips are exactly the failure mode this linter exists to kill)."""


DEFAULT_RULES: Tuple[type, ...] = (
    CsprngDefaultRule,
    WallclockPurityRule,
    NoThreadRule,
    SilentExceptRule,
    FrozenMutationRule,
    HashSeedDeterminismRule,
    NoPickleOnWireRule,
    PowmodThroughSeamRule,
    BadSuppressionRule,
    UnusedSuppressionRule,
    ParseErrorRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule (rules hold no state)."""
    return [cls() for cls in DEFAULT_RULES]


def rule_by_id(rule_id: str) -> Rule:
    """Look up one rule; raises KeyError with the known ids on a miss."""
    for cls in DEFAULT_RULES:
        if cls.id == rule_id:
            return cls()
    known = ", ".join(cls.id for cls in DEFAULT_RULES)
    raise KeyError(f"unknown rule id {rule_id!r} (known: {known})")
