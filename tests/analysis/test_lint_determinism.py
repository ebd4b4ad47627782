"""Regression tests: ``repro lint`` output is byte-identical across
runs and formats, with or without ``--stats``.

The report is the interface scripts and CI grep against, so the
ordering guarantee (sorted directory walk + fully-sorted rendering) is
load-bearing: any nondeterminism here breaks diffable lint baselines.
"""

import os

import pytest

from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

KERNEL = """
kernel k{n}(X: tensor<8xf32>) -> tensor<8xf32> {{
  Y = relu(X)
  return Y
}}
"""

SENSITIVE = """
kernel leak(X: tensor<4xf32> @sensitive) -> tensor<4xf32> {
  Y = relu(X)
  return Y
}
"""


@pytest.fixture
def tree(tmp_path):
    """A nested spec tree mixing clean, warning and error targets."""
    root = tmp_path / "specs"
    (root / "deep" / "deeper").mkdir(parents=True)
    (root / "a.edsl").write_text(KERNEL.format(n=0))
    (root / "deep" / "b.edsl").write_text(KERNEL.format(n=1))
    (root / "deep" / "deeper" / "c.edsl").write_text(SENSITIVE)
    for fixture in ("cycle.json", "overcapacity.json",
                    "oob_access.ir", "dead_branch.ir",
                    "shape_mismatch.json"):
        source = os.path.join(FIXTURES, fixture)
        with open(source, "r", encoding="utf-8") as handle:
            (root / "deep" / fixture).write_text(handle.read())
    return str(root)


def _run(capsys, *argv):
    code = main(["lint", *argv])
    captured = capsys.readouterr()
    return code, captured.out


@pytest.mark.parametrize("format_", ["text", "json"])
def test_repeated_runs_are_byte_identical(capsys, tree, format_):
    first = _run(capsys, tree, "--format", format_)
    second = _run(capsys, tree, "--format", format_)
    assert first == second
    assert first[0] == 1


def test_stats_leaves_stdout_and_exit_code_alone(capsys, tree):
    # the timing table goes to stderr only
    assert _run(capsys, tree, "--stats") == _run(capsys, tree)


def test_argument_order_does_not_reorder_findings(capsys, tree):
    # expansion sorts within each argument; equal argument lists in
    # any order over disjoint trees produce stable per-file blocks
    racy = os.path.join(FIXTURES, "conc_race_ww.json")
    cycle = os.path.join(FIXTURES, "cycle.json")
    first = _run(capsys, racy, cycle)
    second = _run(capsys, racy, cycle)
    assert first == second
