# staticcheck-fixture: path=src/repro/runtime/example.py expect=no-thread
"""Violation: a worker thread started from library code."""
from threading import Thread


class Refiller:
    def __init__(self):
        self.total_stocked = 0
        self._thread = Thread(target=self._loop, daemon=True)

    def _loop(self):
        self.total_stocked += 1
