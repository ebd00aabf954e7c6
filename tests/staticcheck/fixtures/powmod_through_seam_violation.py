# staticcheck-fixture: path=src/repro/crypto/example.py expect=powmod-through-seam
"""Violation: a modular exponentiation that bypasses the bigint seam."""


def lift(t, p):
    return pow(t, p, p * p)


def lift_keyword(t, p):
    return pow(t, p, mod=p * p)
