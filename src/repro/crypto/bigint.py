"""The bigint seam: one ``powmod`` behind every hot modular exponentiation.

PEM's wall-clock cost at the paper's key sizes is modular exponentiation —
obfuscator lifts, CRT decryption, Miller–Rabin rounds, the base-OT group
operations.  CPython's three-argument ``pow`` does long division at every
step; OpenSSL's ``BN_mod_exp`` (Montgomery multiplication, fixed windows,
assembler inner loops) computes the same integers about ten times faster at
1024-bit moduli.  ``libcrypto`` is already mapped into every process by
:mod:`hashlib`, so the seam binds it over :mod:`ctypes` — no new dependency.

Backends
--------

* ``libcrypto`` — ``BN_mod_exp`` with ``BN_FLG_CONSTTIME`` set on the
  exponent (the exponents are ``p``, ``q``, ``p - 1``: secrets) and every
  ``BIGNUM`` released with ``BN_clear_free``.  It hands a call to builtin
  ``pow`` when the modulus is even (Montgomery needs an odd one), when an
  operand is negative, or when the modulus is narrower than
  :data:`CROSSOVER_BITS` — below that the ``int`` <-> ``BIGNUM`` conversion
  costs more than the exponentiation saves (measured: 64-bit moduli
  7.6 -> 17.8 µs, 128-bit 19 -> 13.5 µs, 1024-bit 2129 -> 174 µs).  That
  choice is a property of the input, never a setting.
* ``python`` — builtin ``pow``; the portability fallback.

Autodetection (:func:`backend`) tries the library's sonames directly
(``ctypes.util.find_library`` forks ``ldconfig``), checks every symbol it
binds, runs one self-test against ``pow`` and falls back to ``python`` if
any step fails.  Both backends return the same integers and draw nothing
from any RNG, so the simulated clock, every charged second, every byte and
every certificate are independent of which one is active.

The library is bound as a ``ctypes.PyDLL``: a call keeps the GIL, exactly as
the builtin ``pow`` it replaces does.  A ``CDLL`` would drop and retake it
around each of the dozen ``BN_*`` calls of one exponentiation, and whenever
another thread of the process is busy in Python (the window pipeline's stage
thread, a pool refiller) every retake waits out that thread's switch
interval — measured, 300 exponentiations at a 512-bit modulus beside one
busy thread: 45-49 ms holding the GIL, 86-116 ms releasing it (a cost set
by which thread wakes first), and the pipelined two-worker replay ran 4.6 %
slower.  The backend still keeps no shared scratch state: every ``BIGNUM``
and the ``BN_CTX`` live for one call.

This module imports nothing from :mod:`repro`, so :mod:`.primes`,
:mod:`.paillier`, :mod:`.ot` and :mod:`.accel` can all import it without a
cycle.  The one deliberate bypass is
:meth:`~repro.crypto.paillier.PaillierPrivateKey.decrypt_raw_textbook`: the
independent oracle for the CRT path must not share the library it
cross-checks.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["CROSSOVER_BITS", "backend", "set_backend", "powmod"]

#: Narrowest modulus (in bits) the libcrypto backend takes; measured, see
#: the module docstring.
CROSSOVER_BITS = 128

_MIN_MODULUS = 1 << (CROSSOVER_BITS - 1)
_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1", "libcrypto.so")
_BN_FLG_CONSTTIME = 0x04


class _PurePythonBackend:
    """Builtin ``pow``: the portability fallback."""

    name = "python"

    @staticmethod
    def powmod(base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)


class _LibcryptoBackend:
    """``BN_mod_exp`` from a loaded ``libcrypto`` (see module docstring).

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
        self._ctx_new = bind("BN_CTX_new", ptr)
        self._ctx_free = bind("BN_CTX_free", None, ptr)
        self._mod_exp = bind("BN_mod_exp", c_int, ptr, ptr, ptr, ptr, ptr)

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        # One comparison rejects negative, zero and narrow moduli alike.
        if modulus < _MIN_MODULUS or not modulus & 1 or base < 0 or exponent < 0:
            return pow(base, exponent, modulus)
        if base >= modulus:
            base %= modulus
        width = (modulus.bit_length() + 7) // 8
        exponent_width = (exponent.bit_length() + 7) // 8
        bin2bn, clear_free = self._bin2bn, self._clear_free
        b = e = m = r = ctx = None
        try:
            b = bin2bn(base.to_bytes(width, "big"), width, None)
            e = bin2bn(exponent.to_bytes(exponent_width, "big"), exponent_width, None)
            m = bin2bn(modulus.to_bytes(width, "big"), width, None)
            r = self._new()
            ctx = self._ctx_new()
            if not (b and e and m and r and ctx):
                raise MemoryError("libcrypto could not allocate a BIGNUM")
            self._set_flags(e, _BN_FLG_CONSTTIME)
            if self._mod_exp(r, b, e, m, ctx) != 1:
                raise ArithmeticError("BN_mod_exp failed")
            out = self._buffer(width)
            if self._bn2binpad(r, out, width) != width:
                raise ArithmeticError("BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            # The frees are NULL-safe, so the error path releases whatever
            # was allocated before the failure.
            self._ctx_free(ctx)
            clear_free(r)
            clear_free(m)
            clear_free(e)
            clear_free(b)


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
# exponent wider than one limb, so the self-test takes the BN_mod_exp path.
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
