"""``python -m benchmarks.e2e`` and ``python3 benchmarks/e2e/__main__.py``.

The second form is what ``BENCHMARK.json`` names: run as a script, the
interpreter puts this directory first on ``sys.path``; the checkout
root goes there instead so the package imports under its real name.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
