"""``tools/test_only.py`` on a tiny tree: a hit, a kept hit, a stale entry."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "test_only.py"
HIT = "pkg/mod.py::only_tested"


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def only_tested():\n    return 2\n"
    )
    (tmp_path / "src" / "pkg" / "app.py").write_text(
        "from pkg.mod import used\n\nused()\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tested\n\n"
        "def test_it():\n    assert only_tested() == 2\n"
    )
    return tmp_path


def scan(tree, keep):
    path = tree / "keep.json"
    path.write_text(json.dumps(keep))
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(tree), "--keep",
         str(path)],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout


def test_a_test_only_function_is_reported(tree):
    code, out = scan(tree, [])
    assert code == 1
    assert out.splitlines() == [
        f"src/{HIT.split('::')[0]}:5: class 1 test-only: {HIT}"]


def test_a_keep_listed_hit_is_not_reported(tree):
    code, out = scan(tree, [{"key": HIT, "class": 1, "why": "reason"}])
    assert (code, out) == (0, "")


def test_an_entry_that_is_no_longer_a_hit_is_stale(tree):
    code, out = scan(tree, [
        {"key": HIT, "class": 1, "why": "reason"},
        {"key": "pkg/mod.py::used", "class": 1, "why": "reason"},
    ])
    assert code == 1
    assert out.splitlines() == [
        "keep.json: stale class 1 entry: pkg/mod.py::used "
        "(no longer a hit)"]



#: how a consumer builds the record -> the fields it leaves unset
CONSTRUCTIONS = {
    "unset": ('Rec("x")', ["first", "second"]),
    "keyword": ('Rec("x", second=4)', ["first"]),
    "positional": ('Rec("x", 3)', ["second"]),
    "subclass": ('Sub("x", 3)', ["second"]),
    "replace": ('replace(Rec("x"), first=3)', ["second"]),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTIONS))
def test_a_dataclass_field_is_a_parameter_of_its_constructor(tmp_path,
                                                               case):
    construction, unset = CONSTRUCTIONS[case]
    subclass = "@dataclass\nclass Sub(Rec):\n    pass\n\n\n"
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "rec.py").write_text(
        "from dataclasses import dataclass, replace\n\n\n@dataclass\n"
        "class Rec:\n    name: str\n    first: int = 1\n"
        "    second: int = 2\n\n\n" + subclass * (case == "subclass")
        + f"rec = {construction}\nprint(rec.name, rec.first, rec.second)\n")
    code, out = scan(tmp_path, [])
    assert code == 1
    assert out.splitlines() == [
        f"src/pkg/rec.py:{7 if field == 'first' else 8}: class 2 "
        f"unreferenced: pkg/rec.py::Rec.__init__({field}=)"
        for field in unset
    ]


def test_an_attribute_an_op_is_created_with_and_nothing_reads(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "ir.py").write_text(
        'def build(b, op):\n    attributes = {"read": 1}\n'
        '    attributes["local"] = 2\n'
        '    b.create("a", attributes=attributes)\n'
        '    Operation("b", attributes={"display": 3})\n'
        '    op.set_attr("kept", 4)\n')
    (tmp_path / "src" / "pkg" / "app.py").write_text(
        'from pkg.ir import build\n\nbuild(0, 0).attr("read")\n')
    code, out = scan(tmp_path, [
        {"key": "pkg/ir.py::ir[kept]", "class": 4, "why": "reason"}])
    assert (code, out.splitlines()) == (1, [
        "src/pkg/ir.py:4: class 4 unreferenced: pkg/ir.py::ir[local]",
        "src/pkg/ir.py:5: class 4 unreferenced: pkg/ir.py::ir[display]"])
