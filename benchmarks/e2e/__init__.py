"""End-to-end benchmark of the whole EVEREST chain.

One command (``python -m benchmarks.e2e run``) drives five seeded
workloads — a cold compile, a warm compile, a fault-free workflow, a
workflow under chaos with a journal, and a job-store service drain —
and reports the end-to-end metrics declared in ``BENCHMARK.json`` plus
a per-layer attribution taken from outside, by wrapping the public
functions of each layer in harness spans. ``README.md`` next to this
file is the manual.

The package puts ``<repo>/src`` on ``sys.path`` itself: the contract
command names no path outside this directory, so it cannot set
``PYTHONPATH``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

#: When this interpreter started on the harness, before the program's
#: modules were imported: ``setup_s`` counts the imports from here.
STARTED = time.perf_counter()

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
