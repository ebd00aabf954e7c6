"""``python -m perfbench`` from the repository root.

The benchmark contract's command names no path outside ``perfbench/``, so
the package puts ``src/`` on the import path itself (a no-op under
``PYTHONPATH=src``).  Forked workers and child interpreters started with
``-m perfbench`` come through here too.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from perfbench.cli import main  # noqa: E402 - needs the path above

if __name__ == "__main__":
    sys.exit(main())
