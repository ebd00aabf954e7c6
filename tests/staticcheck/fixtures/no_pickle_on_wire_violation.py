# staticcheck-fixture: path=src/repro/net/example.py expect=no-pickle-on-wire
"""Violation: socket bytes reach pickle, aliased or not."""
import pickle
from pickle import loads as revive


def dispatch(frame, sinks):
    message = revive(frame)
    sinks[message.recipient](message)
    return pickle.dumps(None)
