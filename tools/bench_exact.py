"""Hold a fresh end-to-end run to the committed trajectory's exact results.

``BENCH_e2e.json`` at the repository root is a full report of the
end-to-end benchmark (``python -m benchmarks.e2e run --runs 5 --out
BENCH_e2e.json``). This re-runs the harness once at that report's seed
and ``--seconds``, compares the two reports with the harness's own
``compare``, prints every row, and exits 1 only when an "exact results"
row differs, a workload has no completed run, or an op failed. Timing
verdicts are printed but do not set the exit status: ``setup_s`` does
not resolve between two runs yet (ROADMAP 1(d)).

Usage::

    python tools/bench_exact.py [REPORT]      # default: BENCH_e2e.json
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.compare import compare_reports  # noqa: E402

#: Rows of ``compare_reports`` that hold deterministic results.
_EXACT = ("exact results", "no completed runs", "failed ops")


def main(argv) -> int:
    """Run, compare and print; the exit status."""
    committed = Path(argv[0]) if argv else ROOT / "BENCH_e2e.json"
    before = json.loads(committed.read_text())
    with tempfile.TemporaryDirectory() as workdir:
        fresh = Path(workdir) / "fresh.json"
        subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e", "run",
             "--seed", str(before["seed"]),
             "--seconds", repr(before["seconds"]), "--out", str(fresh)],
            cwd=ROOT, check=False)
        after = json.loads(fresh.read_text())
    rows, _ = compare_reports(before, after)
    print("\n".join(rows))
    differing = [row for row in rows[1:]
                 if any(marker in row for marker in _EXACT)
                 and not row.endswith(" same")]
    missing = set(before["workloads"]) - set(after["workloads"])
    for row in differing:
        print(f"EXACT RESULTS DIFFER: {row}")
    for name in sorted(missing):
        print(f"EXACT RESULTS DIFFER: {name} not run")
    return 1 if differing or missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
