"""Shared execution context for the PEM cryptographic protocols.

A :class:`ProtocolContext` ties together, for one trading window:

* the agents' private window states (generation, load, battery, ``k``),
* one simulated-network :class:`~repro.net.network.Party` endpoint per agent,
* each agent's Paillier key pair (generated locally, public keys shared —
  the Initialization step of Protocol 1),
* the fixed-point codec used to put real-valued energy quantities into the
  integer plaintext space, and
* the cost-model charging hooks used to produce the simulated runtime of
  Figure 5.

The context deliberately does **not** give protocols random access to other
agents' states: protocol code must fetch private values through the owning
:class:`AgentRuntime`, which is what keeps the privacy-audit tests
meaningful.

Offline vs. online accounting
-----------------------------

The context is also where the cost model's two clocks are fed:

* ``TrafficStats.simulated_seconds`` — the *online critical path*:
  aggregation layers (serial chain hops, or concurrent tree layers under
  the latency-hiding model), communication rounds, homomorphic
  aggregation, the (pooled) garbled comparison, and the single mulmod of
  each pooled encryption.
* ``TrafficStats.offline_seconds`` — *idle-time precomputation*: every
  obfuscator produced by :meth:`ProtocolContext.warm_pools` /
  :meth:`ProtocolContext.warm_pool` is charged here via
  :meth:`ProtocolContext.charge_offline_precompute`, mirroring the paper's
  "encryption and decryption are independently executed in parallel during
  idle time".
* ``TrafficStats.gc_offline_seconds`` — the same split for the garbled
  comparison: :meth:`ProtocolContext.warm_comparisons` garbles the
  window's comparator instance and runs its base-OT session during setup,
  so :meth:`ProtocolContext.run_secure_less_than` leaves only
  symmetric-key evaluation on the online clock (drained pools fall back to
  the classic inline Yao protocol, counted in
  ``TrafficStats.gc_fallbacks``).

Pooled obfuscators obey a strict **one-shot invariant**: each precomputed
``r^n mod n^2`` value is handed to exactly one encryption (reuse would link
ciphertexts like a reused one-time pad — see :mod:`repro.crypto.accel`).
When a pool is drained, :meth:`ProtocolContext.encrypt` transparently falls
back to a full online exponentiation, charges the online clock for it, and
counts the event in ``TrafficStats.pool_fallbacks`` so under-provisioned
warm-ups are visible in traces rather than silently slowing the simulated
critical path.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ...chaos.plan import FaultPlan
from ...crypto.accel import RandomizerPool
from ...crypto.fixedpoint import DEFAULT_PRECISION, FixedPointCodec
from ...crypto.gc_pool import ComparisonPool
from ...crypto.secure_comparison import (
    SecureComparisonResult,
    prepared_less_than,
    secure_less_than,
)
from ...crypto.paillier import (
    PaillierCiphertext,
    PaillierKeyPair,
    PaillierPublicKey,
    generate_keypair,
)
from ...net.costmodel import CostModel
from ...net.message import MessageKind
from ...net.network import NetworkError, Party, SimulatedNetwork
from ..agent import AgentWindowState
from ..coalition import Coalitions
from ..params import MarketParameters, PAPER_PARAMETERS
from .topology import AggregationSchedule, AggregationTopology, resolve_topology

__all__ = ["ProtocolConfig", "KeyRing", "AgentRuntime", "ProtocolContext"]

#: Nonce range for the additive blinding in Private Market Evaluation.  Large
#: enough to statistically hide individual fixed-point net-energy values,
#: small enough that 300-agent sums stay far below the 64-bit comparison
#: width and the Paillier plaintext bound.
NONCE_BITS = 32


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunable parameters of a private PEM run.

    Attributes:
        key_size: Paillier key size in bits (the paper uses 512/1024/2048).
        precision: decimal digits of the fixed-point codec.
        ratio_scale: the integer ``k`` of Protocol 4 used to turn the local
            ``1/|sn_j|`` factor into an integer multiplier.
        key_pool_size: when set, agents share keys from a pool of this size
            instead of each generating its own pair.  This keeps large-scale
            benchmarks tractable without changing message counts or sizes;
            correctness/privacy tests use per-agent keys (``None``).
        seed: seed for protocol randomness (nonce and leader selection).
        comparison_bits: bit width of the garbled comparison circuit.
        use_randomizer_pools: route encryptions through per-key offline
            randomizer pools (the paper's idle-time pipelining); disable to
            model a deployment that exponentiates online.
        pool_headroom: baseline obfuscators precomputed per key during
            window setup; the protocols top chosen leaders' pools up with
            exact counts, so this only needs to cover stray encryptions.
        use_comparison_pool: prepare garbled-comparison instances (circuit
            garbling + OT-extension batches) during window setup so the
            online comparison is symmetric-key work only; disable to model
            a deployment that garbles on the critical path.
        comparison_pool_headroom: prepared comparisons per window.  Each
            window runs exactly one secure comparison (Protocol 2), so the
            default of 1 is exact; a drained pool falls back to the classic
            Yao protocol and is counted in ``TrafficStats.gc_fallbacks``.
        ot_extension_kappa: base OTs per window-scoped OT-extension
            session (the computational security parameter of the IKNP
            extension).
        aggregation_topology: shape of the encrypted-sum collection used
            by Protocols 2-4 — ``"chain"`` (the paper's serial chain,
            O(n) critical-path hops), ``"tree"``/``"tree:2"`` (binary
            aggregation tree) or ``"tree:<k>"`` (k-ary), whose layers
            aggregate concurrently on the simulated clock for an
            O(log n) critical path.  Results are bit-identical across
            topologies; only simulated communication time and the
            per-topology hop/round counters change.  See
            ``docs/TOPOLOGIES.md``.
        session_scope: lifetime of the protocol sessions behind the fixed
            setup costs — ``"window"`` (the seed behavior: every market
            window re-pays the 0.5 s coordination setup and a fresh
            base-OT session) or ``"day"`` (sessions are established once
            at the day's anchor window and reused across windows,
            amortizing both charges).  Economic results are identical
            across scopes; only the simulated clocks, the session wire
            bytes and the ``sessions_established``/``sessions_reused``
            counters change.  See ``docs/SESSIONS.md``.
        transport: the physical message fabric of the simulated network —
            ``"local"`` (synchronous in-process delivery) or ``"socket"``
            (length-prefixed loopback TCP).  Bit-identical results and
            statistics by construction; see :mod:`repro.net.transport`.
        garbling_scheme: the garbling scheme comparison pools prepare
            instances under — ``"classic"`` (the seed's point-and-permute
            path, four rows per binary gate, bit-identical to the pre-seam
            behavior) or ``"halfgates"`` (free-XOR labels + two-row
            half-gate AND tables over the lowered comparator, shrinking
            offline garbling time and garbled-table wire bytes).
            Comparison *outcomes* are identical across schemes on identical
            inputs; labels and table bytes necessarily differ.  The classic
            inline fallback of a drained pool is scheme-independent.
        fault_plan: optional seeded :class:`~repro.chaos.plan.FaultPlan`.
            When set, every window runs under the
            :class:`~repro.runtime.supervisor.WindowSupervisor`: the plan's
            faults are injected deterministically, failures are classified
            and retried (or failed closed), and every incident is recorded
            in ``RunReport.incidents``.  A run that recovers is
            bit-identical to the fault-free run; ``None`` (the default)
            leaves the execution path untouched.  See ``docs/CHAOS.md``.
    """

    key_size: int = 512
    precision: int = DEFAULT_PRECISION + 3
    ratio_scale: int = 10**12
    key_pool_size: Optional[int] = None
    seed: int = 7
    comparison_bits: int = 64
    use_randomizer_pools: bool = True
    pool_headroom: int = 2
    use_comparison_pool: bool = True
    comparison_pool_headroom: int = 1
    ot_extension_kappa: int = 128
    aggregation_topology: str = "chain"
    session_scope: str = "window"
    transport: str = "local"
    garbling_scheme: str = "classic"
    fault_plan: Optional[FaultPlan] = None


def _derived_rng(seed: int, *labels: object) -> random.Random:
    """A deterministic RNG derived from ``seed`` and a label path.

    Uses SHA-256 rather than ``hash()`` because Python salts string hashing
    per process (``PYTHONHASHSEED``): derived seeds must be identical across
    the worker processes of a sharded run.
    """
    material = "\x1f".join(str(label) for label in (seed, *labels)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest()[:16], "big"))


class KeyRing:
    """Generates and caches Paillier key pairs for the agents.

    With ``key_pool_size`` unset every agent gets its own key pair, exactly
    as in Protocol 1.  With a pool, pairs are generated once and agents are
    assigned a slot by a stable digest of their id — message counts,
    ciphertext sizes and protocol structure are unchanged, which is all the
    performance benchmarks rely on.

    **Order independence.**  All key material is derived from
    ``config.seed`` plus the *identity* of the key (agent id or pool slot),
    never from the order in which agents first appear.  A worker process
    that executes only windows 5 and 9 of a day therefore reconstructs
    exactly the keys the serial run would use for those windows, which is
    what makes sharded runs (:mod:`repro.runtime`) bit-identical to serial
    ones.

    **Randomizer draws are NOT derived.**  Pool randomizers come from the
    system CSPRNG: a derived per-key stream would restart at the same
    position in every worker process, making two shards hand the *same*
    obfuscator to two different ciphertexts — a one-shot-invariant breach
    that links them (see :mod:`repro.crypto.accel`).  Randomizer values
    influence no result, byte count or clock, so OS entropy costs no
    determinism.
    """

    def __init__(self, config: ProtocolConfig) -> None:
        self._config = config
        self._per_agent: Dict[str, PaillierKeyPair] = {}
        self._pool: Dict[int, PaillierKeyPair] = {}
        #: offline randomizer pools, one per distinct public key (keyed by
        #: the modulus ``n``).  The keyring generated every private key, so
        #: each pool samples obfuscators via the owner's half-exponent path.
        self._randomizer_pools: Dict[int, RandomizerPool] = {}
        #: offline garbled-comparison pools, one per circuit bit width.
        #: Like the randomizer pools they draw all label/choice randomness
        #: from the system CSPRNG (a derived stream would garble identical
        #: circuits in two worker processes — see repro.crypto.gc_pool).
        self._comparison_pools: Dict[int, ComparisonPool] = {}

    def _pool_slot(self, agent_id: str) -> int:
        digest = hashlib.sha256(agent_id.encode()).digest()
        return int.from_bytes(digest[:8], "big") % self._config.key_pool_size

    def keypair_for(self, agent_id: str) -> PaillierKeyPair:
        """Return the (cached) key pair owned by one agent.

        Key assignment depends only on ``agent_id`` (see the class docstring).
        """
        if agent_id in self._per_agent:
            return self._per_agent[agent_id]
        seed = self._config.seed
        if self._config.key_pool_size:
            slot = self._pool_slot(agent_id)
            keypair = self._pool.get(slot)
            if keypair is None:
                keypair = generate_keypair(
                    self._config.key_size, _derived_rng(seed, "key-pool-slot", slot)
                )
                self._pool[slot] = keypair
        else:
            keypair = generate_keypair(
                self._config.key_size, _derived_rng(seed, "agent-key", agent_id)
            )
        self._per_agent[agent_id] = keypair
        if keypair.public_key.n not in self._randomizer_pools:
            # No rng passed: randomizers must come from the system CSPRNG
            # (a derived stream would collide across worker processes).
            self._randomizer_pools[keypair.public_key.n] = RandomizerPool(
                keypair.public_key,
                private_key=keypair.private_key,
            )
        return keypair

    def randomizer_pool(self, public_key: PaillierPublicKey) -> RandomizerPool:
        """Return the (long-lived) randomizer pool for one public key.

        Keys minted by :meth:`keypair_for` already have a pool (with the
        owner's half-exponent sampler); for a foreign public key one is created
        lazily, drawing randomizers from the system CSPRNG like every other
        pool.
        """
        pool = self._randomizer_pools.get(public_key.n)
        if pool is None:
            pool = RandomizerPool(public_key)
            self._randomizer_pools[public_key.n] = pool
        return pool

    @property
    def randomizer_pools(self) -> List[RandomizerPool]:
        """All pools the keyring owns (one per distinct public key)."""
        return list(self._randomizer_pools.values())

    def comparison_pool(self, bit_width: int) -> ComparisonPool:
        """Return the (long-lived) prepared-comparison pool for one width."""
        pool = self._comparison_pools.get(bit_width)
        if pool is None:
            pool = ComparisonPool(
                bit_width,
                kappa=self._config.ot_extension_kappa,
                scheme=self._config.garbling_scheme,
            )
            self._comparison_pools[bit_width] = pool
        return pool

    @property
    def comparison_pools(self) -> List[ComparisonPool]:
        """All garbled-comparison pools the keyring owns (one per width)."""
        return list(self._comparison_pools.values())

    @property
    def offline_pools(self) -> List[object]:
        """Every pool of offline material the ring owns (both kinds)."""
        return list(self._randomizer_pools.values()) + list(
            self._comparison_pools.values()
        )

    def claim_reservations(self, window: int) -> int:
        """Release every pool's material pre-staged for ``window``.

        Called by the pipelined scheduler when ``window`` actually begins:
        the obfuscators and prepared comparisons a pipeline stage computed
        for this window (when the previous window began) join the pools'
        reservoirs, so this window's ``warm``/``refill`` pops them instead
        of computing inline.  Idempotent, wall-clock
        only — accounting is untouched.  Returns the number of values
        claimed across all pools.
        """
        return sum(pool.claim_reservation(window) for pool in self.offline_pools)

    def recycle_pools(self, keep_sessions: bool = False) -> int:
        """Move every pool's unused entries back to its reservoir.

        Called by the engine at the start of each trading window so the
        per-window offline accounting (how many obfuscators ``warm_pools``
        produces, and whether a fresh OT-extension session is charged) is a
        deterministic function of the window alone, never of which windows
        happened to run earlier in the same process.  The recycled values
        are not wasted — they re-enter through the reservoir (still handed
        out at most once), only the *accounting* restarts from a cold pool.
        Returns the number of entries recycled (obfuscators plus prepared
        comparisons).

        ``keep_sessions`` (day-scoped runs) leaves the comparison pools'
        OT-extension sessions open across the boundary — the session
        charge is then paid once at the day's anchor window instead of
        once per window (see :mod:`repro.net.session`); the per-instance
        garbling accounting still restarts cold either way.
        """
        recycled = sum(pool.recycle() for pool in self._randomizer_pools.values())
        recycled += sum(
            pool.recycle(close_session=not keep_sessions)
            for pool in self._comparison_pools.values()
        )
        return recycled


@dataclass
class AgentRuntime:
    """One agent's endpoint inside a protocol run."""

    state: AgentWindowState
    party: Party
    keypair: PaillierKeyPair
    #: the blinding nonce used in both rounds of Private Market Evaluation.
    nonce: int = 0

    @property
    def agent_id(self) -> str:
        return self.state.agent_id

    @property
    def public_key(self):
        return self.keypair.public_key

    @property
    def private_key(self):
        return self.keypair.private_key


class ProtocolContext:
    """Everything Protocols 2-4 need for one trading window.

    Args:
        coalitions: the already-formed coalitions of the window (Protocol 1
            line 4; role claims are public in the paper's model).
        network: the simulated network to run over.
        config: protocol configuration.
        params: market parameters.
        keyring: optional shared :class:`KeyRing` (reused across windows so
            agents keep their long-lived keys).
        rng: protocol randomness (leader selection, nonces); defaults to a
            generator seeded from ``config.seed`` and the window index.
    """

    def __init__(
        self,
        coalitions: Coalitions,
        network: SimulatedNetwork,
        config: ProtocolConfig = ProtocolConfig(),
        params: MarketParameters = PAPER_PARAMETERS,
        keyring: Optional[KeyRing] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.coalitions = coalitions
        self.network = network
        self.config = config
        self.params = params
        self.codec = FixedPointCodec(precision=config.precision)
        # staticcheck: ignore[csprng-default] -- protocol randomness (leader
        # selection, nonces) is deliberately seeded per (seed, window) so runs
        # replay bit-identically; key material never flows from this stream —
        # KeyRing derivation is SHA-256-based and pool material is CSPRNG-only.
        self.rng = rng or random.Random((config.seed, coalitions.window).__hash__())
        self.keyring = keyring or KeyRing(config)
        #: the aggregation topology Protocols 2-4 collect encrypted sums
        #: along (resolved once so a typo fails at context construction).
        self.topology: AggregationTopology = resolve_topology(config.aggregation_topology)

        self.sellers: List[AgentRuntime] = []
        self.buyers: List[AgentRuntime] = []
        self._by_id: Dict[str, AgentRuntime] = {}
        self._register_agents()
        if config.use_randomizer_pools:
            self.warm_pools()
        if config.use_comparison_pool:
            self.warm_comparisons()

    # -- setup -------------------------------------------------------------------

    def _register_agents(self) -> None:
        seller_ids = set(self.coalitions.seller_ids)
        ordered = list(self.coalitions.sellers) + list(self.coalitions.buyers)
        for state in ordered:
            party_id = state.agent_id
            try:
                party = self.network.party(party_id)
            except NetworkError:
                # Unknown party: this agent's first window on this network.
                # ``party()`` raises NetworkError and nothing else — a
                # broader catch here once masked real registration faults.
                party = self.network.register(party_id)
            runtime = AgentRuntime(
                state=state,
                party=party,
                keypair=self.keyring.keypair_for(party_id),
                nonce=self.rng.getrandbits(NONCE_BITS),
            )
            self._by_id[party_id] = runtime
            if party_id in seller_ids:
                self.sellers.append(runtime)
            else:
                self.buyers.append(runtime)

    def warm_pools(self, target_per_key: Optional[int] = None) -> int:
        """Warm every distinct key's randomizer pool for this window.

        Part of window setup: agents precompute obfuscators during idle
        time so the protocols' online encryptions collapse to one modular
        multiplication each.  The default target is a small per-key
        baseline (``pool_headroom``): most keys are never aggregation
        targets in a given window, and the protocols top the chosen
        leaders' pools up with *exact* counts once contributors are known
        (see ``warm_pool``), so warming every key to the worst case here
        would be O(agents^2) wasted exponentiations with per-agent keys.
        A drained pool still falls back to online exponentiation.

        Returns the number of obfuscators actually precomputed (the work
        charged to the offline clock).
        """
        if not self.config.use_randomizer_pools:
            return 0
        if target_per_key is None:
            target_per_key = self.config.pool_headroom
        seen: set = set()
        produced = 0
        for runtime in self.all_agents:
            key = runtime.public_key
            if key.n in seen:
                continue
            seen.add(key.n)
            produced += self.keyring.randomizer_pool(key).warm(target_per_key)
        self.charge_offline_precompute(produced)
        return produced

    def warm_comparisons(self, target: Optional[int] = None) -> int:
        """Prepare this window's garbled-comparison instances (offline).

        Garbling, the window's base-OT session and the OT-extension batches
        all happen here — idle time, charged to the dedicated
        ``gc_offline_seconds`` clock — so the online comparison of
        Protocol 2 is left with symmetric-key evaluation and label
        transfer only.  Returns the number of instances prepared.
        """
        if not self.config.use_comparison_pool:
            return 0
        if target is None:
            target = self.config.comparison_pool_headroom
        pool = self.keyring.comparison_pool(self.config.comparison_bits)
        sessions_before = pool.sessions_started
        produced = pool.warm(target)
        new_sessions = pool.sessions_started - sessions_before
        if new_sessions:
            # A window-scoped warm-up opened (and pays for) a fresh
            # OT-extension session; day-scoped runs never reach this —
            # their session is established once by the engine at the
            # day's anchor window and counted there.
            self.network.record_session_established(new_sessions)
        self.charge_comparison_offline(
            pool.and_gate_count,
            produced,
            new_sessions=new_sessions,
        )
        return produced

    def warm_pool(self, public_key, count: int) -> int:
        """Top one key's pool up to ``count`` entries (exact-need warm-up)."""
        if not self.config.use_randomizer_pools:
            return 0
        produced = self.keyring.randomizer_pool(public_key).warm(count)
        self.charge_offline_precompute(produced)
        return produced

    def encrypt(self, public_key, plaintext: int) -> PaillierCiphertext:
        """Encrypt under ``public_key``, preferring the offline pool.

        The cost model is charged for the online path actually taken: a
        single modular multiplication when a pooled obfuscator was
        available, a full exponentiation otherwise.  A drained pool is not
        silent — every fallback is also counted in
        :attr:`~repro.net.stats.TrafficStats.pool_fallbacks` so traces make
        under-provisioned warm-ups visible.
        """
        if self.config.use_randomizer_pools:
            pool = self.keyring.randomizer_pool(public_key)
            before = pool.fallback_count
            ciphertext = pool.encrypt(plaintext)
            pooled = pool.fallback_count == before
            if not pooled:
                self.network.record_pool_fallback()
            self.charge_encryptions(1, pooled=pooled)
            return ciphertext
        ciphertext = public_key.encrypt(plaintext, rng=self.rng)
        self.charge_encryptions(1)
        return ciphertext

    # -- lookup ------------------------------------------------------------------

    def runtime(self, agent_id: str) -> AgentRuntime:
        return self._by_id[agent_id]

    @property
    def all_agents(self) -> List[AgentRuntime]:
        return self.sellers + self.buyers

    def choose_seller(self, exclude: Sequence[str] = ()) -> AgentRuntime:
        """Randomly choose a seller (Protocol 2 line 1 / Protocol 4 line 2)."""
        candidates = [s for s in self.sellers if s.agent_id not in exclude]
        if not candidates:
            raise ValueError("no eligible seller to choose from")
        return self.rng.choice(candidates)

    def choose_buyer(self, exclude: Sequence[str] = ()) -> AgentRuntime:
        """Randomly choose a buyer (Protocol 2 line 11 / Protocol 3 line 1)."""
        candidates = [b for b in self.buyers if b.agent_id not in exclude]
        if not candidates:
            raise ValueError("no eligible buyer to choose from")
        return self.rng.choice(candidates)

    # -- cost-model charging hooks -------------------------------------------------

    @property
    def cost_model(self) -> Optional[CostModel]:
        return self.network.cost_model

    def charge_encryptions(self, count: int, pooled: bool = False) -> None:
        if self.cost_model is not None:
            self.network.charge_crypto_time(
                self.cost_model.encryption_cost(count, pooled=pooled)
            )

    def charge_offline_precompute(self, count: int) -> None:
        """Charge ``count`` obfuscator precomputations to the offline clock."""
        if self.cost_model is not None and count:
            self.network.charge_offline_time(
                self.cost_model.offline_precompute_cost(count)
            )

    def charge_comparison_offline(
        self, gate_count: int, count: int, new_sessions: int = 0
    ) -> None:
        """Charge prepared-comparison work to the ``gc_offline_seconds`` clock.

        ``count`` instances were garbled (plus their OT-extension batches)
        and ``new_sessions`` window-scoped base-OT sessions were opened.
        """
        if self.cost_model is None:
            return
        seconds = 0.0
        if count:
            seconds += self.cost_model.comparison_offline_cost(gate_count, count)
        if new_sessions:
            seconds += new_sessions * self.cost_model.comparison_session_cost(
                self.config.ot_extension_kappa
            )
        if seconds:
            self.network.charge_gc_offline_time(seconds)

    def charge_decryptions(self, count: int) -> None:
        if self.cost_model is not None:
            self.network.charge_crypto_time(self.cost_model.decryption_cost(count))

    def charge_homomorphic_ops(self, count: int) -> None:
        if self.cost_model is not None:
            self.network.charge_crypto_time(self.cost_model.aggregation_cost(count))

    def charge_comparison(
        self, gate_count: int, ot_count: int, pooled: bool = False
    ) -> None:
        if self.cost_model is not None:
            self.network.charge_crypto_time(
                self.cost_model.comparison_cost(gate_count, ot_count, pooled=pooled)
            )

    def run_secure_less_than(self, garbler_value: int, evaluator_value: int) -> SecureComparisonResult:
        """Run this window's secure ``garbler_value < evaluator_value`` test.

        Prefers a prepared instance from the window's comparison pool (the
        online phase is then symmetric-key only, charged with
        ``pooled=True``); a drained pool falls back to the classic Yao
        protocol — garbling and public-key OTs on the online clock —
        counted in ``TrafficStats.gc_fallbacks`` so under-provisioned
        preparation is visible in traces, never silently absorbed.
        """
        bits = self.config.comparison_bits
        if self.config.use_comparison_pool:
            prepared = self.keyring.comparison_pool(bits).take()
            if prepared is not None:
                result = prepared_less_than(prepared, garbler_value, evaluator_value)
                self.charge_comparison(result.and_gate_count, bits, pooled=True)
                return result
            self.network.record_gc_fallback()
        result = secure_less_than(
            garbler_value, evaluator_value, bit_width=bits, rng=self.rng
        )
        self.charge_comparison(result.and_gate_count, bits)
        return result

    def charge_aggregation(
        self,
        schedule: AggregationSchedule,
        bytes_per_hop: int,
        delivered: bool = True,
    ) -> None:
        """Charge one executed aggregation schedule to the critical path.

        The latency-hiding model charges one message time per schedule
        layer (hops within a layer are concurrent) plus the delivery hop —
        ``schedule.critical_path_depth`` message times in total, which for
        the chain equals the seed's ``hop_count`` charge bit for bit.
        Also records the per-topology hop/round counters
        (:class:`~repro.net.stats.TrafficStats`); ``delivered`` says
        whether a delivery message was actually sent (Protocol 4's root
        re-broadcasts instead, charged separately as a round).
        """
        hops = schedule.merge_hop_count + (1 if delivered else 0)
        self.network.record_aggregation(
            schedule.topology, hops, schedule.critical_path_depth
        )
        if self.cost_model is not None:
            self.network.charge_crypto_time(
                self.cost_model.layered_aggregation_cost(
                    schedule.critical_path_depth, bytes_per_hop
                )
            )

    def charge_round(self, bytes_per_message: int) -> None:
        """Charge one parallel communication round to the critical path."""
        if self.cost_model is not None:
            self.network.charge_crypto_time(self.cost_model.round_cost(bytes_per_message))

    def charge_window_setup(self) -> None:
        """Charge the fixed per-window protocol session overhead."""
        if self.cost_model is not None:
            self.network.charge_crypto_time(self.cost_model.window_setup_cost())

    def ciphertext_bytes(self, public_key) -> int:
        """Wire size of one ciphertext under the given public key."""
        return public_key.ciphertext_byte_length()

    # -- helpers used by several protocols -----------------------------------------

    def encode_energy(self, kwh: float) -> int:
        """Fixed-point encode an energy quantity."""
        return self.codec.encode(kwh)

    def broadcast_from(
        self, sender: AgentRuntime, recipients: Sequence[AgentRuntime], kind: MessageKind, **metadata
    ) -> None:
        """Convenience broadcast of a metadata-only message."""
        sender.party.broadcast([r.agent_id for r in recipients], kind, metadata=metadata)
