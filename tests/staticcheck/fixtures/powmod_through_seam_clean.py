# staticcheck-fixture: path=src/repro/crypto/example.py expect=clean
"""Clean: the seam, a modular inverse, a plain power and a waived oracle."""
from .bigint import powmod


def lift(t, p):
    return powmod(t, p, p * p)


def inverse(x, m):
    return pow(x, -1, m)


def square(x):
    return pow(x, 2)


def oracle(c, lam, n_squared):
    # staticcheck: ignore[powmod-through-seam] -- independent oracle
    return pow(c, lam, n_squared)
