"""The bigint seam: libcrypto's ``BN_mod_exp`` against builtin ``pow``.

The backend's whole contract is "same integers as ``pow``, faster": a
property test over every input class the dispatcher distinguishes, thread
and fork safety (no shared scratch state; the call keeps the GIL), the fallback
when the library is missing or broken, end-to-end identity of a seeded day
and of seeded key generation under both backends, and no leaked ``BIGNUM``.
"""

import ctypes
import multiprocessing
import os
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from repro.crypto import bigint
from repro.crypto.paillier import generate_keypair


@pytest.fixture
def restore_backend():
    previous = bigint.backend()
    yield
    bigint.set_backend(previous)


@pytest.fixture(scope="module")
def libcrypto():
    """The autodetected libcrypto backend; skips where the library is absent."""
    detected = bigint._detect_backend()
    if detected.name != "libcrypto":
        pytest.skip("libcrypto is not loadable on this host")
    return detected


def _mixed_cases(count: int, seed: int):
    """``(base, exponent, modulus, pow answer)`` across the dispatcher's classes."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        bits = rng.choice((8, 64, 127, 128, 129, 256, 512, 1024))
        modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | rng.choice((0, 1, 1, 1))
        base = rng.getrandbits(bits + rng.choice((0, 0, 40)))
        exponent = rng.getrandbits(rng.choice((0, 1, 16, bits)))
        cases.append((base, exponent, modulus, pow(base, exponent, modulus)))
    return cases


# -- same integers as pow ----------------------------------------------------------------


def test_autodetect_picks_libcrypto_when_the_loader_finds_it(restore_backend):
    expected = "python" if bigint._load_libcrypto() is None else "libcrypto"
    bigint.set_backend(None)
    assert bigint.backend().name == expected
    assert bigint.powmod(3, 20, 1000) == pow(3, 20, 1000)


@st.composite
def _powmod_inputs(draw):
    bits = draw(
        st.one_of(
            st.integers(1, 2200),
            st.sampled_from((1, 2, 64, 127, 128, 129, 256, 1024, 2048)),
        )
    )
    modulus = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    base = draw(
        st.one_of(
            st.integers(0, modulus - 1),
            st.integers(modulus, modulus << 70),
            st.sampled_from((0, 1, modulus - 1, modulus)),
        )
    )
    exponent = draw(
        st.one_of(st.integers(0, 1 << 64), st.integers(0, 1 << bits), st.just(0))
    )
    return base, exponent, modulus


@settings(max_examples=400, deadline=None)
@given(_powmod_inputs())
def test_powmod_equals_builtin_pow(libcrypto, inputs):
    base, exponent, modulus = inputs
    assert libcrypto.powmod(base, exponent, modulus) == pow(base, exponent, modulus)


def test_powmod_edge_cases_equal_builtin_pow(libcrypto):
    odd = (1 << 255) - 19
    for base, exponent, modulus in (
        (0, 0, odd),
        (0, 5, odd),
        (5, 0, odd),
        (odd, 3, odd),
        (odd + 2, 3, odd),
        (7, 3, 1),
        (7, 0, 1),
        (7, 3, odd + 1),  # even modulus above the crossover
        (7, 3, (1 << 127) - 1),  # odd, one bit under the crossover
        (7, 3, (1 << 127) + 1),  # odd, exactly at the crossover
        (-7, 3, odd),
        (7, -1, odd),
        (7, 3, -odd),
    ):
        assert libcrypto.powmod(base, exponent, modulus) == pow(base, exponent, modulus)
    with pytest.raises(ValueError):
        libcrypto.powmod(7, 3, 0)


# -- threads and forks -------------------------------------------------------------------


def test_concurrent_threads_get_their_own_answers(libcrypto):
    """4 threads x 2000 mixed-width calls; the backend shares no scratch state."""
    cases = _mixed_cases(2000, seed=5)
    wrong = []

    def worker(offset: int) -> None:
        rotated = cases[offset:] + cases[:offset]
        wrong.extend(
            case for case in rotated if libcrypto.powmod(*case[:3]) != case[3]
        )

    threads = [threading.Thread(target=worker, args=(i * 500,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_forked_child_computes_the_same_integers(libcrypto):
    cases = _mixed_cases(300, seed=6)
    libcrypto.powmod(*cases[0][:3])  # the parent has used the library first
    context = multiprocessing.get_context("fork")
    mismatches = context.Value("i", -1)

    def child() -> None:
        mismatches.value = sum(
            libcrypto.powmod(*case[:3]) != case[3] for case in cases
        )

    process = context.Process(target=child)
    process.start()
    process.join(timeout=120)
    assert not process.is_alive()
    assert process.exitcode == 0
    assert mismatches.value == 0


# -- fallback ----------------------------------------------------------------------------


class _BrokenLibrary:
    """The real library minus one symbol, or with a ``BN_mod_exp`` that lies."""

    def __init__(self, missing=None, lying=False):
        self._real = ctypes.PyDLL(bigint._SONAMES[0])
        self._missing = missing
        self._lying = lying

    def __getattr__(self, symbol):
        if symbol == self._missing:
            raise AttributeError(symbol)
        if symbol == "BN_mod_exp" and self._lying:

            class Liar:
                restype = argtypes = None

                def __call__(self, *args):
                    return 1  # "success" without writing the result

            return Liar()
        return getattr(self._real, symbol)


def _one_window():
    market = helpers.tiny_market()
    return market.engine().run_windows_report(market.dataset, market.windows[:1])


@pytest.mark.parametrize(
    "loader",
    [
        pytest.param(lambda: None, id="library-not-found"),
        pytest.param(
            lambda: _BrokenLibrary(missing="BN_bn2binpad"), id="symbol-missing"
        ),
        pytest.param(lambda: _BrokenLibrary(lying=True), id="self-test-fails"),
    ],
)
def test_broken_library_falls_back_to_pure_python(
    monkeypatch, restore_backend, libcrypto, loader
):
    reference = _one_window()
    monkeypatch.setattr(bigint, "_load_libcrypto", loader)
    bigint.set_backend(None)
    assert bigint.backend().name == "python"
    assert bigint.powmod(3, (1 << 200) + 1, (1 << 255) - 19) == pow(
        3, (1 << 200) + 1, (1 << 255) - 19
    )
    report = _one_window()
    assert report.traces[0].result.clearing is not None
    assert report.identical_to(reference)


# -- both backends are one behaviour -----------------------------------------------------


def test_seeded_day_is_identical_under_both_backends(restore_backend, libcrypto):
    dataset = helpers.tiny_dataset(home_count=8)
    windows = helpers.TINY_MARKET_WINDOWS

    def day():
        engine = helpers.tiny_market().engine()
        return engine.run_windows_report(dataset, windows)

    bigint.set_backend(libcrypto)
    fast = day()
    bigint.set_backend(bigint._PurePythonBackend())
    slow = day()
    assert any(trace.result.clearing is not None for trace in fast.traces)
    assert fast.identical_to(slow)
    assert fast.stats.total_bytes == slow.stats.total_bytes > 0
    assert fast.stats.snapshot() == slow.stats.snapshot()


def test_seeded_keygen_yields_the_same_primes_under_both_backends(
    restore_backend, libcrypto
):
    """Same Miller-Rabin verdicts, hence the same witness draws and primes."""
    keys = []
    for candidate in (libcrypto, bigint._PurePythonBackend()):
        bigint.set_backend(candidate)
        rng = random.Random(7)
        private = generate_keypair(512, rng=rng).private_key
        keys.append((private.p, private.q, rng.random()))
    assert keys[0] == keys[1]


# -- no leaks ----------------------------------------------------------------------------


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_every_bignum_is_freed_including_on_the_error_path(libcrypto, monkeypatch):
    # Odd 128- to 256-bit moduli: the BN_mod_exp path at its cheapest.
    cases = [
        case[:3]
        for case in _mixed_cases(128, seed=8)
        if 128 <= case[2].bit_length() <= 256 and case[2] & 1
    ]
    assert len(cases) > 8

    def exercise(calls: int) -> None:
        for index in range(calls):
            libcrypto.powmod(*cases[index % len(cases)])

    def exercise_failures(calls: int) -> None:
        with monkeypatch.context() as patch:
            patch.setattr(libcrypto, "_mod_exp", lambda *args: 0)
            for index in range(calls):
                with pytest.raises(ArithmeticError):
                    libcrypto.powmod(*cases[index % len(cases)])

    exercise(2_000)
    exercise_failures(200)
    before = _rss_bytes()
    exercise(180_000)
    exercise_failures(20_000)
    assert _rss_bytes() - before < 1 << 20
