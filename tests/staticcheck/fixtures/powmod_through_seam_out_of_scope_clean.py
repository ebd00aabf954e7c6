# staticcheck-fixture: path=src/repro/crypto/bigint.py expect=clean
"""Clean: the seam itself is where builtin pow is the fallback."""


def powmod(base, exponent, modulus):
    return pow(base, exponent, modulus)
