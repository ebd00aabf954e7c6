"""Unit tests for the fixed-point codec."""

import pytest

from repro.crypto.fixedpoint import DEFAULT_PRECISION, FixedPointCodec


def test_default_precision():
    codec = FixedPointCodec()
    assert codec.precision == DEFAULT_PRECISION
    assert codec.scale == 10**DEFAULT_PRECISION


def test_encode_decode_simple():
    codec = FixedPointCodec(precision=3)
    assert codec.encode(1.234) == 1234
    assert codec.decode(1234) == pytest.approx(1.234)


def test_encode_negative():
    codec = FixedPointCodec(precision=2)
    assert codec.encode(-3.14159) == -314
    assert codec.decode(-314) == pytest.approx(-3.14)


def test_encode_rounding():
    codec = FixedPointCodec(precision=0)
    assert codec.encode(2.5) == 2  # round-half-to-even (Python round())
    assert codec.encode(3.5) == 4
    assert codec.encode(2.4) == 2
    assert codec.encode(2.6) == 3


def test_invalid_precision_rejected():
    with pytest.raises(ValueError):
        FixedPointCodec(precision=-1)
    with pytest.raises(ValueError):
        FixedPointCodec(precision=19)


def test_nan_rejected():
    with pytest.raises(ValueError):
        FixedPointCodec().encode(float("nan"))
