"""Set-up probe: what a user of the CLI waits for before the first op.

    python3 bench/probe.py

Starts the interpreter, imports `hhdeform.cli` from this checkout's `src/`
and prints "ready".  `bench/worker.py` times process start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import hhdeform.cli  # noqa: E402,F401

print("ready", flush=True)
