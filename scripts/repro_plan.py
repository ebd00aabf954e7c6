#!/usr/bin/env python
"""``repro plan`` entry point — plan the cost-optimal PEM deployment.

Thin wrapper so the planner is reachable without installing the package:

    python scripts/repro_plan.py --hosts 4 --cores-per-host 4 \
        --agents 64 --windows 12 --profile lan

Equivalent to ``python -m repro.planning`` with ``src/`` on the path.
See ``docs/PLANNER.md`` for the fleet-spec flags, the executed
certificate (``--execute K``) and how to read the output.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.planning.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
