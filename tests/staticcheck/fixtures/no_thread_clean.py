# staticcheck-fixture: path=src/repro/crypto/example_ok.py expect=clean
"""Clean: a lock for threaded callers is not a thread."""
import threading

_LOCK = threading.Lock()


def guarded(work):
    with _LOCK:
        return work()
