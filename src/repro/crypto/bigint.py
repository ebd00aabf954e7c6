"""The bigint seam: one ``powmod`` behind every hot modular exponentiation.

PEM's wall-clock cost at the paper's key sizes is modular exponentiation —
obfuscator lifts, CRT decryption, Miller–Rabin rounds, the base-OT group
operations.  CPython's three-argument ``pow`` does long division at every
step; OpenSSL's Montgomery ladder (fixed windows, assembler inner loops)
computes the same integers about ten times faster at 1024-bit moduli.
``libcrypto`` is already mapped into every process by :mod:`hashlib`, so
the seam binds it over :mod:`ctypes` — no new dependency.

Backends
--------

* ``libcrypto`` — ``BN_mod_exp_mont_consttime``, the constant-time ladder
  (the exponents are ``p``, ``q``, ``p - 1``: secrets), over *resident*
  moduli.  A window uses few moduli many times (each key's ``n²``, ``p²``
  and ``q²``), so the backend keeps one record per modulus in a bounded
  least-recently-used cache: the modulus ``BIGNUM``, flagged
  ``BN_FLG_CONSTTIME`` before its ``BN_MONT_CTX`` is derived (``p²`` and
  ``q²`` are secret, as OpenSSL's RSA code treats its primes), and its
  byte width.  A call converts only the base and the exponent, runs in the
  backend's one ``BN_CTX``, and frees its per-call ``BIGNUM`` objects with
  ``BN_clear_free``; evicted records and those of a collected backend are
  freed the same way.  It hands a call to builtin ``pow`` when the modulus
  is even (Montgomery needs an odd one), when an operand is negative, or
  when the modulus is narrower than :data:`CROSSOVER_BITS`.  Measured on a
  lift's shape (exponent half the modulus width, modulus resident),
  ``pow`` -> libcrypto: 64-bit 7.2 -> 8.6 µs, 128-bit 20.7 -> 6.0 µs,
  1024-bit 1902 -> 154 µs; a Miller–Rabin round on a fresh 64-bit
  candidate is 13.9 -> 16.2 µs.  That choice is a property of the input,
  never a setting.
* ``python`` — builtin ``pow``; the portability fallback.

Autodetection (:func:`backend`) tries the library's sonames directly
(``ctypes.util.find_library`` forks ``ldconfig``), checks every symbol it
binds, runs one self-test against ``pow`` and falls back to ``python`` if
any step fails.  Both backends return the same integers and draw nothing
from any RNG, so the simulated clock, every charged second, every byte and
every certificate are independent of which one is active.

The library is bound as a ``ctypes.PyDLL``: a call keeps the GIL, exactly as
the builtin ``pow`` it replaces does.  A ``CDLL`` would drop and retake it
around each of the ``BN_*`` calls of one exponentiation, and whenever
another thread of the process is busy in Python every retake waits out
that thread's switch interval — measured, 300 exponentiations at a 512-bit
modulus beside one busy thread: 45-49 ms holding the GIL, 86-116 ms
releasing it (a cost set by which thread wakes first).  Another thread can
still run *between* those calls, so one module
lock covers the record lookup and the exponentiation that uses it: no
thread evicts a record, or enters the shared ``BN_CTX``, under another.
A forked child renews the lock (``os.register_at_fork``, where the
platform forks), since the fork may have copied it held by a thread the
child does not have.

This module imports nothing from :mod:`repro`, so :mod:`.primes`,
:mod:`.paillier`, :mod:`.ot` and :mod:`.accel` can all import it without a
cycle.  The one deliberate bypass is
:meth:`~repro.crypto.paillier.PaillierPrivateKey.decrypt_raw_textbook`: the
independent oracle for the CRT path must not share the library it
cross-checks.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from typing import Any, Optional, Tuple

__all__ = ["CROSSOVER_BITS", "backend", "set_backend", "powmod"]

#: Narrowest modulus (in bits) the libcrypto backend takes; measured, see
#: the module docstring.
CROSSOVER_BITS = 128

#: Moduli the libcrypto backend keeps resident.  Sized from the measured
#: working sets: a window's calls reuse at most 24 distinct moduli on the
#: perfbench workloads (``live_paillier_1024``: n², p² and q² of 8 per-agent
#: keys; ``live_gc_128``: 4 pooled keys' 12 plus the base-OT group's 2).
#: Key generation's Miller–Rabin candidates pass through and are evicted.
#: A day with more keys than this cycles the cache and misses, which costs
#: what a call did before moduli were kept resident.
_RESIDENT_MODULI = 32

_MIN_MODULUS = 1 << (CROSSOVER_BITS - 1)
_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.so")
_BN_FLG_CONSTTIME = 0x04

#: Held across one lookup plus the exponentiation that uses the record, so
#: no record is evicted and the shared ``BN_CTX`` is not re-entered under a
#: thread that is still using it.
_LOCK = threading.Lock()


def _renew_lock() -> None:
    """A forked child gets a fresh lock: its copy may be held by a thread it lacks."""
    global _LOCK
    _LOCK = threading.Lock()


# Unix-only; a process that cannot fork needs no renewed lock.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_lock)

#: One resident modulus: its ``BIGNUM``, its ``BN_MONT_CTX`` and its byte width.
_Record = Tuple[int, int, int]


class _PurePythonBackend:
    """Builtin ``pow``: the portability fallback."""

    name = "python"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)


class _LibcryptoBackend:
    """``BN_mod_exp_mont_consttime`` from a loaded ``libcrypto`` (see module docstring).

    Raises :class:`AttributeError` at construction if the library lacks a
    symbol, which :func:`_detect_backend` turns into the fallback.
    """

    name = "libcrypto"

    def __init__(self, lib: Any) -> None:
        import ctypes  # whoever loaded ``lib`` has imported it already

        ptr, c_int = ctypes.c_void_p, ctypes.c_int

        def bind(symbol: str, restype: Any, *argtypes: Any) -> Any:
            function = getattr(lib, symbol)
            function.restype = restype
            function.argtypes = argtypes
            return function

        self._buffer = ctypes.create_string_buffer
        self._bin2bn = bind("BN_bin2bn", ptr, ctypes.c_char_p, c_int, ptr)
        self._bn2binpad = bind("BN_bn2binpad", c_int, ptr, ctypes.c_char_p, c_int)
        self._new = bind("BN_new", ptr)
        self._clear_free = bind("BN_clear_free", None, ptr)
        self._set_flags = bind("BN_set_flags", None, ptr, c_int)
        self._mont_new = bind("BN_MONT_CTX_new", ptr)
        self._mont_set = bind("BN_MONT_CTX_set", c_int, ptr, ptr, ptr)
        self._mont_free = bind("BN_MONT_CTX_free", None, ptr)
        self._mod_exp = bind(
            "BN_mod_exp_mont_consttime", c_int, ptr, ptr, ptr, ptr, ptr, ptr
        )
        ctx_free = bind("BN_CTX_free", None, ptr)
        self._ctx = bind("BN_CTX_new", ptr)()
        if not self._ctx:
            raise MemoryError("libcrypto could not allocate a BN_CTX")
        #: modulus -> record, least recently used first.
        self._resident: OrderedDict[int, _Record] = OrderedDict()
        # No thread can be inside a backend that is being collected, so the
        # release takes no lock; at exit the process memory goes as a whole.
        weakref.finalize(
            self, _release, self._resident, self._ctx,
            self._mont_free, self._clear_free, ctx_free,
        ).atexit = False  # fmt: skip

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        # One comparison rejects negative, zero and narrow moduli alike.
        if modulus < _MIN_MODULUS or not modulus & 1 or base < 0 or exponent < 0:
            return pow(base, exponent, modulus)
        if base >= modulus:
            base %= modulus
        exponent_width = (exponent.bit_length() + 7) // 8
        bin2bn, clear_free = self._bin2bn, self._clear_free
        with _LOCK:
            record = self._resident.get(modulus)
            if record is None:
                record = self._admit(modulus)
            else:
                self._resident.move_to_end(modulus)
            m, mont, width = record
            b = e = r = None
            try:
                b = bin2bn(base.to_bytes(width, "big"), width, None)
                e = bin2bn(exponent.to_bytes(exponent_width, "big"), exponent_width, None)
                r = self._new()
                if not (b and e and r):
                    raise MemoryError("libcrypto could not allocate a BIGNUM")
                if self._mod_exp(r, b, e, m, self._ctx, mont) != 1:
                    raise ArithmeticError("BN_mod_exp_mont_consttime failed")
                out = self._buffer(width)
                if self._bn2binpad(r, out, width) != width:
                    raise ArithmeticError("BN_bn2binpad failed")
                return int.from_bytes(out.raw, "big")
            finally:
                # The frees are NULL-safe, so the error path releases whatever
                # was allocated before the failure.
                clear_free(r)
                clear_free(e)
                clear_free(b)

    def _admit(self, modulus: int) -> _Record:
        """Build ``modulus``'s record and make it resident, evicting the oldest.

        A record whose allocation or ``BN_MONT_CTX_set`` fails is freed and
        never cached.
        """
        width = (modulus.bit_length() + 7) // 8
        m = self._bin2bn(modulus.to_bytes(width, "big"), width, None)
        mont = self._mont_new()
        try:
            if not (m and mont):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            # p² and q² are secret: flag them before the context is derived,
            # as OpenSSL's RSA code does for its primes.
            self._set_flags(m, _BN_FLG_CONSTTIME)
            if self._mont_set(mont, m, self._ctx) != 1:
                raise ArithmeticError("BN_MONT_CTX_set failed")
        except BaseException:
            self._mont_free(mont)
            self._clear_free(m)
            raise
        if len(self._resident) >= _RESIDENT_MODULI:
            _, (old_m, old_mont, _) = self._resident.popitem(last=False)
            self._mont_free(old_mont)
            self._clear_free(old_m)
        record = self._resident[modulus] = (m, mont, width)
        return record


def _release(
    resident: OrderedDict[int, _Record],
    ctx: int,
    mont_free: Any,
    clear_free: Any,
    ctx_free: Any,
) -> None:
    """Free a collected backend's resident records and its ``BN_CTX``."""
    for m, mont, _ in resident.values():
        mont_free(mont)
        clear_free(m)
    resident.clear()
    ctx_free(ctx)


def _load_libcrypto() -> Optional[Any]:
    """The GIL-holding ``PyDLL`` of the first soname that loads, else ``None``."""
    try:
        import ctypes
    except ImportError:
        return None
    for soname in _SONAMES:
        try:
            return ctypes.PyDLL(soname)
        except OSError:
            continue
    return None


# 2^255 - 19 and 2^521 - 1: an odd modulus above the crossover with an
# exponent wider than one limb, so the self-test takes the resident path.
_SELF_TEST = (0x1234567890ABCDEF, (1 << 521) - 1, (1 << 255) - 19)


def _detect_backend() -> object:
    """libcrypto when it loads, binds and agrees with ``pow``; else pure Python."""
    lib = _load_libcrypto()
    if lib is not None:
        try:
            candidate = _LibcryptoBackend(lib)
            if candidate.powmod(*_SELF_TEST) == pow(*_SELF_TEST):
                return candidate
        except (AttributeError, ArithmeticError, MemoryError):
            pass
    return _PurePythonBackend()


_backend: Optional[object] = None


def backend() -> object:
    """The active bigint backend (an object with ``name`` and ``powmod``)."""
    global _backend
    if _backend is None:
        _backend = _detect_backend()
    return _backend


def set_backend(new_backend: Optional[object]) -> object:
    """Install a bigint backend (tests/mocks); ``None`` re-runs autodetect.

    Returns the previously active backend so callers can restore it.
    """
    global _backend
    previous = backend()
    _backend = new_backend if new_backend is not None else _detect_backend()
    return previous


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent % modulus`` through the active backend."""
    return backend().powmod(base, exponent, modulus)
