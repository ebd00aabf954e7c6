"""Shared lazily-cached heavyweight objects for the test suite.

Crypto-heavy test modules used to re-derive key material and re-run whole
seeded trading days per module (some even at *import* time, charged to
every pytest invocation regardless of what was selected).  Everything here
is memoized per process and computed on first use:

* :func:`shared_keypair` — Paillier key pairs by (bits, seed).  The 256-
  and 512-bit pairs used by the property suites are derived once for the
  whole session instead of once per module.
* :func:`shared_correlation` / :func:`small_comparison_pool` — small-kappa
  OT-extension material for garbled-circuit tests.
* :func:`safe_prime_group` — a seeded OT group smaller than the product's
  fixed 512-bit one (not cached: it is the thing some tests measure).
* :func:`tiny_market` — the canonical small seeded trading day (12 homes,
  720 windows, 4 market windows) plus an engine factory, shared by the
  runtime determinism suites.
* :func:`tiny_market_serial_report` — the serial baseline ``RunReport``
  over that day.  Several modules compare sharded runs against the same
  serial run; treat it as **read-only**.
* :func:`book_from_trades` / :func:`pair_energies` — a ``TradeBook``
  built from explicit trades, and a book read back as a
  ``{(seller, buyer): energy}`` dict.

Cached objects are shared across modules, so tests must not mutate them;
anything a test consumes (pool draws, prepared comparisons) must come from
a fresh engine built by the factory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Sequence, Tuple

from repro.core import PAPER_PARAMETERS
from repro.core.market import Trade, TradeBook
from repro.core.protocols import PrivateTradingEngine, ProtocolConfig
from repro.crypto import generate_keypair, generate_prime, is_probable_prime
from repro.crypto.gc_pool import ComparisonPool
from repro.crypto.ot import OTGroup
from repro.crypto.otext import BaseOTCorrelation, establish_correlation
from repro.data import TraceConfig, generate_dataset

#: Small key size used across unit tests (fast but structurally identical).
TEST_KEY_SIZE = 128

#: Small OT-extension security parameter for tests (the math is identical
#: at any kappa; the public-key base OTs dominate test wall-clock).
TEST_KAPPA = 16

#: The canonical market windows of the tiny trading day (midday region of
#: the seeded dataset, where coalitions reliably form).
TINY_MARKET_WINDOWS: Tuple[int, ...] = (330, 360, 390, 420)


@lru_cache(maxsize=None)
def shared_keypair(bits: int = TEST_KEY_SIZE, seed: int = 42):
    """A session-cached Paillier key pair (derive once, share everywhere)."""
    return generate_keypair(bits, random.Random(seed))


@lru_cache(maxsize=None)
def shared_correlation(kappa: int = TEST_KAPPA, seed: int = 2024) -> BaseOTCorrelation:
    """A session-cached deterministic base-OT correlation for GC tests."""
    return establish_correlation(kappa, rng=random.Random(seed))


def small_comparison_pool(bit_width: int, kappa: int = TEST_KAPPA) -> ComparisonPool:
    """A fresh small-kappa comparison pool (pools are stateful — not cached)."""
    return ComparisonPool(bit_width, kappa=kappa)


def safe_prime_group(bits: int, rng: random.Random) -> OTGroup:
    """An OT group over a fresh ``bits``-bit safe prime ``p = 2q + 1``.

    Every draw comes from ``rng``, so a seeded group is reproducible.
    ``g = 4`` is a square, hence a generator of the order-``q`` subgroup.
    """
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and is_probable_prime(p, rng=rng):
            return OTGroup(p=p, q=q, g=4)


@dataclass(frozen=True)
class TinyMarket:
    """The shared small trading day: dataset, market windows, engine factory.

    ``engine()`` returns a *fresh* engine per call (engines own mutable
    pools/keyrings); the dataset and window selection are shared.
    """

    dataset: object
    windows: Tuple[int, ...]
    engine: Callable[[], PrivateTradingEngine]


@lru_cache(maxsize=None)
def tiny_dataset(home_count: int = 12, window_count: int = 720, seed: int = 9):
    """The seeded dataset behind :func:`tiny_market` (cached per shape)."""
    return generate_dataset(
        TraceConfig(home_count=home_count, window_count=window_count, seed=seed)
    )


def tiny_market(
    key_size: int = TEST_KEY_SIZE,
    key_pool_size: int = 4,
    seed: int = 21,
    session_scope: str = "window",
    transport: str = "local",
) -> TinyMarket:
    """The canonical tiny market used by the runtime determinism suites.

    ``session_scope`` / ``transport`` select the Session-API and transport
    variants of the same market (defaults are the seed behavior).
    """

    def build() -> PrivateTradingEngine:
        return PrivateTradingEngine(
            params=PAPER_PARAMETERS,
            config=ProtocolConfig(
                key_size=key_size,
                key_pool_size=key_pool_size,
                seed=seed,
                # Small kappa keeps the per-engine base-OT session cheap;
                # the extension math is identical at any kappa.
                ot_extension_kappa=TEST_KAPPA,
                session_scope=session_scope,
                transport=transport,
            ),
        )

    return TinyMarket(dataset=tiny_dataset(), windows=TINY_MARKET_WINDOWS, engine=build)


@lru_cache(maxsize=None)
def tiny_market_serial_report():
    """Serial (workers=1) baseline report over :func:`tiny_market`.

    Shared across modules as the canonical comparison target for sharded
    runs — read-only by convention.
    """
    market = tiny_market()
    return market.engine().run_windows_report(market.dataset, market.windows, workers=1)


def book_from_trades(
    trades: Sequence[Trade], seller_ids: Sequence[str], buyer_ids: Sequence[str]
) -> TradeBook:
    """The book holding exactly ``trades``, in their order, over the given coalitions."""
    sellers = {seller_id: index for index, seller_id in enumerate(seller_ids)}
    buyers = {buyer_id: index for index, buyer_id in enumerate(buyer_ids)}
    return TradeBook(
        seller_ids,
        buyer_ids,
        [sellers[trade.seller_id] for trade in trades],
        [buyers[trade.buyer_id] for trade in trades],
        [trade.energy_kwh for trade in trades],
        [trade.payment for trade in trades],
    )


def pair_energies(book: TradeBook) -> Dict[Tuple[str, str], float]:
    """``{(seller, buyer): energy}`` over a book's trades."""
    return {(trade.seller_id, trade.buyer_id): trade.energy_kwh for trade in book}
