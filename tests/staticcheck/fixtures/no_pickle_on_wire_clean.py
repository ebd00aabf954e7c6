# staticcheck-fixture: path=src/repro/chaos/example.py expect=clean
"""Clean: the wire layers frame bytes with struct and a codec."""
import struct

_HEADER = struct.Struct(">I")


def frame(message):
    encoded = message.encode()
    return _HEADER.pack(len(encoded)) + encoded
