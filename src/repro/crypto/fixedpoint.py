"""Fixed-point encoding of real values for homomorphic arithmetic.

The PEM protocols aggregate real-valued quantities (net energy in kWh,
preference parameters ``k_i``, battery terms) inside Paillier ciphertexts,
which only hold integers.  The paper notes that "the random numbers are
scaled to fixed precision over a closed field"; this module provides that
scaling.  Values are multiplied by ``10**precision`` and rounded, so that
additions of encodings correspond to additions of the underlying reals.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FixedPointCodec", "DEFAULT_PRECISION"]

#: Default number of decimal digits preserved by the codec.  Four digits is
#: ample for kWh quantities measured by residential smart meters.
DEFAULT_PRECISION = 4


@dataclass(frozen=True)
class FixedPointCodec:
    """Encode/decode reals as scaled integers.

    Attributes:
        precision: number of decimal digits kept after the point.
    """

    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        if self.precision < 0 or self.precision > 18:
            raise ValueError(f"precision must be in [0, 18], got {self.precision}")

    @property
    def scale(self) -> int:
        """The integer scale factor ``10**precision``."""
        return 10 ** self.precision

    def encode(self, value: float) -> int:
        """Encode a real value as a scaled integer (round-half-to-even)."""
        if value != value:  # NaN check without importing math
            raise ValueError("cannot encode NaN")
        scaled = value * self.scale
        return int(round(scaled))

    def decode(self, encoded: int) -> float:
        """Decode a scaled integer back to a float."""
        return encoded / self.scale
