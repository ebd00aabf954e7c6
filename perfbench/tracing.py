"""Outside-in tracing: spans around calls into each layer's public functions.

The wrappers are installed by the benchmark (class attributes and module
names are patched, then restored); ``src/`` carries no instrumentation.  A
span records name, start, end, its parent span and the trace id
``(pass, window)`` the driver set.  A span's *self time* is its duration
minus the part covered by its child spans on the same thread, so the self
times under one root add up to the root's duration and the remainder the
wrappers do not explain is itself a number (``protocols.window.self_s``).

Per-name totals (calls, total seconds, self seconds) are folded as spans
close; the span records themselves are kept in memory while
:attr:`Tracer.keep_spans` is set and written out as JSONL when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "SpanTotals"]

#: ``{span name: (calls, total seconds, self seconds)}``
SpanTotals = Dict[str, Tuple[int, float, float]]


class _ThreadState:
    """One thread's open-span stack, closed spans and per-name totals."""

    __slots__ = ("thread", "stack", "spans", "totals")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        #: open spans, innermost last: ``[name, start, child seconds, span id]``
        self.stack: List[list] = []
        #: closed spans: ``(id, parent id, name, start, end, self, trace id)``
        self.spans: List[tuple] = []
        self.totals: Dict[str, list] = {}


class Tracer:
    """Records spans around wrapped callables and counts at the same boundaries."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []
        #: append closed spans to memory (the driver clears this after the
        #: first traced pass so a long run keeps one pass of spans).
        self.keep_spans = True
        #: ``(pass, window)`` of the work in progress, set by the driver.
        self.trace_id: Tuple[int, int] = (0, -1)
        #: counts taken at span boundaries (return values, bytes).
        self.counters: Dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def wrap(
        self, name: str, function: Callable, result_counter: Optional[str] = None
    ) -> Callable:
        """``function`` recorded as one span named ``name`` per call.

        ``result_counter`` adds the call's integer return value to
        :attr:`counters` under that name.
        """
        get_state = self._state
        clock = time.perf_counter
        next_id = self._ids.__next__
        counters = self.counters

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = get_state()
            stack = state.stack
            frame = [name, 0.0, 0.0, next_id()]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                own = duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if self.keep_spans:
                    state.spans.append(
                        (
                            frame[3],
                            stack[-1][3] if stack else None,
                            name,
                            frame[1],
                            end,
                            own,
                            self.trace_id,
                        )
                    )
            if result_counter is not None:
                counters[result_counter] += result
            return result

        return traced

    def take_totals(self) -> SpanTotals:
        """Per-name ``(calls, total_s, self_s)`` over all threads since the last take."""
        merged: Dict[str, list] = {}
        with self._states_lock:
            for state in self._states:
                # Swap, don't clear: the state's own thread may be closing a span.
                taken, state.totals = state.totals, {}
                for name, (calls, total, own) in taken.items():
                    into = merged.setdefault(name, [0, 0.0, 0.0])
                    into[0] += calls
                    into[1] += total
                    into[2] += own
        # Child durations are sub-intervals of the parent's, so a negative
        # self time can only be float rounding.
        return {n: (c, t, max(0.0, s)) for n, (c, t, s) in merged.items()}

    def write_jsonl(self, path: Path, workload: str) -> int:
        """Write the spans kept in memory, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._states_lock:
            states = list(self._states)
        written = 0
        with path.open("w", encoding="utf-8") as handle:
            for state in states:
                for span_id, parent, name, start, end, own, (pass_, window) in state.spans:
                    handle.write(
                        json.dumps(
                            {
                                "id": span_id,
                                "parent": parent,
                                "name": name,
                                "start": start,
                                "end": end,
                                "self_s": own,
                                "thread": state.thread,
                                "trace": {
                                    "workload": workload,
                                    "pass": pass_,
                                    "window": window,
                                },
                            }
                        )
                    )
                    handle.write("\n")
                    written += 1
        return written

    # -- installing the wrappers -------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Callable) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer boundary listed in :func:`_layer_boundaries`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attribute, name, result_counter in _layer_boundaries():
            original = owner.__dict__[attribute]
            self._patch(owner, attribute, self.wrap(name, original, result_counter))
        self._install_run_window()
        self._install_gc_evaluate()

    def _install_run_window(self) -> None:
        """``run_window``, also stamping the window onto :attr:`trace_id`.

        The replay path calls ``run_window`` from inside ``execute_shard``,
        where the driver cannot see which window is in progress.
        """
        from repro.core.protocols.engine import PrivateTradingEngine

        run_window = self.wrap("protocols.window", PrivateTradingEngine.run_window)

        @functools.wraps(run_window)
        def traced_run_window(engine, window, *args, **kwargs):
            self.trace_id = (self.trace_id[0], window)
            return run_window(engine, window, *args, **kwargs)

        self._patch(PrivateTradingEngine, "run_window", traced_run_window)

    def _install_gc_evaluate(self) -> None:
        """``prepared_less_than``, also counting the instance's prepared bytes."""
        from repro.core.protocols import context

        counters = self.counters
        evaluate = self.wrap("crypto.gc.evaluate", context.prepared_less_than)

        def traced_prepared_less_than(prepared, garbler_value, evaluator_value):
            # Garbled tables plus the OT-extension correction columns this
            # instance put on the wire when it was prepared.
            counters["crypto.gc.table_bytes"] += prepared.offline_bytes
            return evaluate(prepared, garbler_value, evaluator_value)

        self._patch(context, "prepared_less_than", traced_prepared_less_than)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _layer_boundaries() -> List[Tuple[Any, str, str, Optional[str]]]:
    """``(owner, attribute, span name, result counter)`` for every wrapper.

    Module-level functions are patched in the namespace that *calls* them
    (``from x import f`` binds a private name), methods on their class.
    """
    import repro.data as data
    from repro.blockchain import ConsortiumChain, SettlementContract
    from repro.core import pem
    from repro.core.protocols import (
        context,
        distribution,
        engine,
        market_evaluation,
        pricing,
    )
    from repro.crypto import otext
    from repro.crypto.accel import FixedBaseTable, RandomizerPool
    from repro.crypto.gc_pool import ComparisonPool
    from repro.crypto.paillier import (
        PaillierCiphertext,
        PaillierPrivateKey,
        PaillierPublicKey,
    )
    from repro.net.message import Message
    from repro.net.network import SimulatedNetwork
    from repro.net.transport import LocalTransport, SocketTransport
    from repro.runtime.pipeline import WindowPipeline

    homomorphic = "crypto.paillier.homomorphic"
    return [
        (data, "generate_dataset", "data.generate_dataset", None),
        (pem, "states_for_window", "core.replay", None),
        (engine, "states_for_window", "core.replay", None),
        (context.ProtocolContext, "__init__", "protocols.setup", None),
        (engine, "run_market_evaluation", "protocols.p2_market_evaluation", None),
        (engine, "run_private_pricing", "protocols.p3_pricing", None),
        (engine, "run_private_distribution", "protocols.p4_distribution", None),
        (market_evaluation, "aggregate", "protocols.aggregate", None),
        (pricing, "aggregate", "protocols.aggregate", None),
        (distribution, "aggregate", "protocols.aggregate", None),
        (context, "generate_keypair", "crypto.keygen", None),
        (RandomizerPool, "warm", "crypto.accel.warm", None),
        (RandomizerPool, "reserve", "crypto.accel.reserve", "crypto.accel.reserved"),
        (RandomizerPool, "claim_reservation", "crypto.accel.claim", "crypto.accel.claimed"),
        (PaillierPublicKey, "raw_encrypt", "crypto.paillier.encrypt", None),
        (PaillierPrivateKey, "decrypt_raw", "crypto.paillier.decrypt", None),
        (PaillierCiphertext, "add_ciphertext", homomorphic, None),
        (PaillierCiphertext, "multiply_plaintext", homomorphic, None),
        (FixedBaseTable, "__init__", homomorphic, None),
        (FixedBaseTable, "powmod", homomorphic, None),
        (ComparisonPool, "warm", "crypto.gc_pool.warm", None),
        (ComparisonPool, "reserve", "crypto.gc_pool.reserve", None),
        (otext, "establish_correlation", "crypto.gc_pool.session", None),
        (SimulatedNetwork, "deliver", "net.send", None),
        (LocalTransport, "deliver", "net.transport.deliver", None),
        (SocketTransport, "deliver", "net.transport.deliver", None),
        (engine.PrivateTradingEngine, "build_network", "net.transport.open", None),
        (SimulatedNetwork, "close", "net.transport.open", None),
        (Message, "byte_size", "net.message.byte_size", None),
        (WindowPipeline, "advance", "runtime.pipeline.advance", "runtime.pipeline.claimed"),
        (SettlementContract, "settle_day", "blockchain.settle_day", None),
        (ConsortiumChain, "verify", "blockchain.verify", None),
    ]
