"""The bigint seam: libcrypto's Montgomery ladder against builtin ``pow``.

The backend's whole contract is "same integers as ``pow``, faster": a
property test over every input class the dispatcher distinguishes, the
resident modulus records (hits, misses and least-recently-used evictions
against a model), thread and fork safety of the records and the shared
``BN_CTX`` under the module lock, the fallback when the library is missing
or broken, end-to-end identity of a seeded day and of seeded key generation
under both backends, and no leaked ``BIGNUM`` or ``BN_MONT_CTX``.
"""

import ctypes
import multiprocessing
import os
import random
import sys
import threading
import weakref
from collections import OrderedDict
from unittest import mock

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


def _fresh_backend():
    """A libcrypto backend with no resident records of its own yet."""
    return bigint._LibcryptoBackend(bigint._load_libcrypto())


def _odd_moduli(count: int, seed: int, widths=(128, 129, 256, 512, 1024)):
    """Distinct odd moduli above the crossover: each one takes the resident path."""
    rng = random.Random(seed)
    moduli = set()
    while len(moduli) < count:
        bits = rng.choice(widths)
        moduli.add(rng.getrandbits(bits) | (1 << (bits - 1)) | 1)
    return sorted(moduli)


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


# -- resident modulus records ------------------------------------------------------------

_RESIDENT_POOL = _odd_moduli(7, seed=9)
# One bit under the crossover, even, narrow: these never become resident.
_BYPASSED = ((1 << 127) - 1, 1 << 200, 1_000_003)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_RESIDENT_POOL + list(_BYPASSED)),
            st.integers(0, 1 << 1100),
            st.integers(0, 1 << 600),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_resident_records_follow_an_lru_model_and_equal_pow(libcrypto, calls):
    """Seven moduli through three slots: hits, misses and evictions all equal ``pow``."""
    fresh = _fresh_backend()
    model = OrderedDict()
    with mock.patch.object(bigint, "_RESIDENT_MODULI", 3):
        for modulus, base, exponent in calls:
            assert fresh.powmod(base, exponent, modulus) == pow(base, exponent, modulus)
            if modulus in _RESIDENT_POOL:
                model.pop(modulus, None)
                model[modulus] = None
                if len(model) > 3:
                    model.popitem(last=False)
    assert list(fresh._resident) == list(model)


def test_a_per_agent_key_day_stays_resident(restore_backend, libcrypto):
    """8 homes with their own keys: each modulus is admitted once, never evicted.

    The bound is sized from this working set (three moduli per key plus the
    base-OT group); shrinking it below that turns every call into a miss.
    """
    fresh = _fresh_backend()
    bigint.set_backend(fresh)
    admitted, admit = [], fresh._admit
    fresh._admit = lambda modulus: admitted.append(modulus) or admit(modulus)
    dataset = helpers.tiny_dataset(home_count=8)
    engine = helpers.tiny_market(key_pool_size=None).engine()
    for home in dataset.homes:
        engine.keyring.keypair_for(home.profile.home_id)
    report = engine.run_windows_report(dataset, helpers.TINY_MARKET_WINDOWS)
    assert any(trace.result.clearing is not None for trace in report.traces)
    assert len(set(admitted)) == len(admitted) == len(fresh._resident)


# -- threads and forks -------------------------------------------------------------------


def test_threads_sharing_a_few_moduli_under_eviction_pressure(libcrypto):
    """4 threads over 5 moduli with room for 2, switching as often as CPython allows.

    Without the module lock a thread could run its exponentiation on a record
    another thread has just evicted and freed.
    """
    fresh = _fresh_backend()
    moduli = _odd_moduli(5, seed=10)
    rng = random.Random(10)
    cases = [(rng.getrandbits(1100), rng.getrandbits(300), moduli[i % 5]) for i in range(1500)]
    answers = [pow(*case) for case in cases]
    wrong = []

    def worker(offset: int) -> None:
        for index in range(len(cases)):
            k = (index + offset) % len(cases)
            if fresh.powmod(*cases[k]) != answers[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    threads = [threading.Thread(target=worker, args=(i * 7,)) for i in range(4)]
    with mock.patch.object(bigint, "_RESIDENT_MODULI", 2):
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(fresh._resident) == 2


def test_concurrent_threads_get_their_own_answers(libcrypto):
    """4 threads x 2000 mixed-width calls through one backend's records and ``BN_CTX``."""
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


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_fork_while_another_thread_is_inside_powmod(libcrypto):
    """The child inherits a held lock, renews it, and computes the right integers."""
    fresh = _fresh_backend()
    cases = _mixed_cases(200, seed=11)
    entered, release = threading.Event(), threading.Event()
    real_mod_exp, holder = fresh._mod_exp, []

    def stalling_mod_exp(*args):
        if threading.current_thread() is holder[0]:
            entered.set()
            release.wait(timeout=60)
        return real_mod_exp(*args)

    fresh._mod_exp = stalling_mod_exp  # this backend is private to the test
    modulus = _odd_moduli(1, seed=11)[0]
    holder.append(threading.Thread(target=fresh.powmod, args=(3, 5, modulus)))
    holder[0].start()
    context = multiprocessing.get_context("fork")
    mismatches = context.Value("i", -1)

    def child() -> None:
        mismatches.value = sum(fresh.powmod(*case[:3]) != case[3] for case in cases)

    process = context.Process(target=child)
    try:
        assert entered.wait(timeout=60)
        assert bigint._LOCK.locked()  # the fork below copies a held lock
        process.start()
        process.join(timeout=60)
        deadlocked = process.is_alive()
        if deadlocked:
            process.kill()
            process.join()
    finally:
        release.set()
        holder[0].join(timeout=60)
    assert not deadlocked
    assert process.exitcode == 0
    assert mismatches.value == 0


# -- fallback ----------------------------------------------------------------------------


class _BrokenLibrary:
    """The real library minus one symbol, or with an exponentiation that lies."""

    def __init__(self, missing=None, lying=False):
        self._real = ctypes.PyDLL(bigint._SONAMES[0])
        self._missing = missing
        self._lying = lying

    def __getattr__(self, symbol):
        if symbol == self._missing:
            raise AttributeError(symbol)
        if symbol == "BN_mod_exp_mont_consttime" and self._lying:

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
            lambda: _BrokenLibrary(missing="BN_mod_exp_mont_consttime"),
            id="symbol-missing",
        ),
        pytest.param(
            lambda: _BrokenLibrary(missing="BN_MONT_CTX_set"), id="mont-symbol-missing"
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


def _cases_over(moduli, count: int, seed: int):
    """``(base, exponent, modulus, pow answer)`` for ``count`` calls cycling ``moduli``."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        base, exponent = rng.getrandbits(300), rng.getrandbits(128)
        modulus = moduli[i % len(moduli)]
        cases.append((base, exponent, modulus, pow(base, exponent, modulus)))
    return cases


_needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc"
)


@_needs_proc
def test_every_record_and_bignum_is_freed_including_on_the_error_path(libcrypto):
    fresh = _fresh_backend()
    # 8 moduli stay resident; 64 cycled through the 16 slots miss on every call.
    hits = _cases_over(_odd_moduli(8, seed=8, widths=(128, 256)), 64, seed=8)
    misses = _cases_over(_odd_moduli(64, seed=12, widths=(128, 256)), 256, seed=12)
    failing = {
        "_mont_set": _cases_over(_odd_moduli(64, seed=14, widths=(128, 256)), 256, seed=14),
        "_mod_exp": _cases_over(_odd_moduli(64, seed=15, widths=(128, 256)), 256, seed=15),
    }

    def exercise(cases, calls: int) -> None:
        wrong = sum(
            fresh.powmod(*case[:3]) != case[3]
            for case in (cases[index % len(cases)] for index in range(calls))
        )
        assert wrong == 0

    def exercise_failures(symbol: str, calls: int) -> None:
        cases = failing[symbol]
        with mock.patch.object(fresh, symbol, lambda *args: 0):
            for index in range(calls):
                case = cases[index % len(cases)]
                with pytest.raises(ArithmeticError):
                    fresh.powmod(*case[:3])
                # A failed record is never cached; a failed exponentiation
                # leaves its (sound) record resident.
                assert (case[2] in fresh._resident) == (symbol == "_mod_exp")

    def round_(scale: int) -> None:
        exercise(hits, 40 * scale)
        exercise(misses, 40 * scale)
        exercise_failures("_mont_set", 10 * scale)
        exercise_failures("_mod_exp", 10 * scale)

    with mock.patch.object(bigint, "_RESIDENT_MODULI", 16):
        round_(50)
        before = _rss_bytes()
        round_(1_000)
        after = _rss_bytes()
    assert len(fresh._resident) == 16
    assert after - before < 1 << 20


@_needs_proc
def test_replaced_backends_release_their_records(restore_backend, libcrypto):
    """100 ``set_backend(None)`` swaps, each backend left holding 32 2048-bit records."""
    moduli = _odd_moduli(32, seed=13, widths=(2048,))

    def swap_and_fill() -> None:
        bigint.set_backend(None)
        for modulus in moduli:
            assert bigint.powmod(3, 65537, modulus) == pow(3, 65537, modulus)

    for _ in range(3):
        swap_and_fill()
    before = _rss_bytes()
    for _ in range(100):
        swap_and_fill()
    after = _rss_bytes()
    replaced = weakref.ref(bigint.backend())
    bigint.set_backend(None)
    assert replaced() is None
    assert after - before < 1 << 20
