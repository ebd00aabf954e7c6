# staticcheck-fixture: path=src/repro/runtime/runner.py expect=clean
"""Clean: the runner's shard payloads are outside the rule's scope."""
import pickle


def ship(outcome):
    return pickle.dumps(outcome)
