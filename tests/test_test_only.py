"""``tools/test_only.py`` on a tiny tree: a hit, a kept hit, a stale entry;
and each entry of ``tools/gone.json`` on a copy of its scope's file."""

from __future__ import annotations

import ast
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "test_only.py"
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
    (tree / "tools").mkdir(exist_ok=True)
    (tree / "tools" / "gone.json").write_text("[]")
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


@pytest.mark.parametrize("caller, printed", [
    ("benchmarks/test_x.py",
     ["src/pkg/mod.py:5: class 1 test-only: pkg/mod.py::only_tested"]),
    ("benchmarks/e2e/helper.py", []),
], ids=["benchmark-test", "e2e-helper"])
def test_a_file_pytest_collects_is_on_the_test_side_wherever_it_lives(
        tree, caller, printed):
    (tree / "tests" / "test_mod.py").unlink()
    (tree / caller).parent.mkdir(parents=True)
    (tree / caller).write_text(
        "from pkg.mod import only_tested\n\nonly_tested()\n")
    code, out = scan(tree, [])
    assert (code, out.splitlines()) == (int(bool(printed)), printed)


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


def planted_trees() -> dict:
    """``{case: ({file: text}, printed lines)}`` of planted_trees.txt."""
    text = (ROOT / "tests" / "planted_trees.txt").read_text("utf-8")
    trees = {}
    for case in text.split("\n=== ")[1:]:
        name, *files = case.split("\n--- ")
        files = [file.partition("\n") for file in files]
        trees[name] = (
            {file: re.sub("(?m)^>>> .*", "", body) for file, _, body in files},
            re.findall("(?m)^>>> (.*)", case))
    return trees


TREES = planted_trees()


@pytest.mark.parametrize("case", sorted(TREES))
def test_a_planted_tree_prints_exactly_its_lines(tmp_path, case):
    files, printed = TREES[case]
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    for name, text in files.items():
        (tmp_path / "src" / "pkg" / name).write_text(text)
    code, out = scan(tmp_path, [])
    assert (code, out.splitlines()) == (int(bool(printed)), printed)


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


_spec = importlib.util.spec_from_file_location("test_only_tool", TOOL)
tool = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tool
_spec.loader.exec_module(tool)

GONE = json.loads((ROOT / tool.GONE).read_text(encoding="utf-8"))


def sample(pattern: str) -> str:
    """A line ``pattern`` finds: its last alternative, less its anchors,
    word bounds and optional characters, unescaped."""
    text = re.sub(r"\\b|[$^]|.\?", "", pattern.split("|")[-1])
    return re.sub(r"\\(.)", r"\1", text)


def violation(kind: str, name: str) -> list:
    """The lines of the least code that is ``name`` of ``kind``."""
    if kind == "def":
        return [f"def {name}():", "    pass"]
    if kind == "import":
        return [f"import {name}"]
    if kind == "call":
        return [name.replace("=)", "=0)") if "(" in name else f"{name}()"]
    if kind == "keyword":
        return ["lambda **kwargs: print(**kwargs)" if name == "**"
                else f"print({name}=0)"]
    if kind == "string":
        line = sample(name)
        assert re.search(name, line)
        return [f"_ = {line!r}"]
    if kind == "loop":
        return ["for _ in (): pass", "_ = [_ for _ in ()]"]
    return [name]


def scope_file(scope: str) -> str:
    """The file a scope's copy holds: its own, or a directory's first."""
    path = scope.partition("::")[0]
    if (ROOT / path).is_dir():
        return min(p.relative_to(ROOT).as_posix()
                   for p in (ROOT / path).rglob("*.py"))
    return path


def anchor(source: str, qual: str) -> ast.AST:
    node = ast.parse(source)
    for part in qual.split("."):
        node = next(n for n in node.body if getattr(n, "name", "") == part)
    return node


def plant(target: Path, qual: str, planted: list) -> None:
    """Write ``planted`` at the end of ``qual`` in ``target`` (of the
    file when ``qual`` is empty)."""
    lines = target.read_text(encoding="utf-8").splitlines()
    where, indent = len(lines), ""
    if qual:
        node = anchor("\n".join(lines), qual)
        where, indent = node.end_lineno, " " * node.body[-1].col_offset
    lines[where:where] = [indent + line for line in planted]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")


def gone_check(root: Path, capsys, monkeypatch):
    """``main``'s exit code and output on ``root`` with the four-class
    scan finding nothing: only the gone-list can fail it."""
    monkeypatch.setattr(tool, "scan", lambda consumers, tests: [])
    keep = root / "keep.json"
    keep.write_text("[]")
    code = tool.main(["--root", str(root), "--keep", str(keep)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("variant", ["planted", "in-words", "renamed"])
@pytest.mark.parametrize("entry", GONE, ids=[
    f"{i:02d}-pr{e['pr']}-{e['kind']}" for i, e in enumerate(GONE)])
def test_a_gone_entry_fires_on_code_and_on_a_lost_anchor(
        tmp_path, capsys, monkeypatch, entry, variant):
    for scope in entry["scope"]:
        rel = scope_file(scope)
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, tmp_path / rel)
    (tmp_path / tool.GONE).parent.mkdir(exist_ok=True)
    (tmp_path / tool.GONE).write_text(json.dumps([entry]))
    scope = entry["scope"][0]
    path, _, qual = scope.partition("::")
    target = tmp_path / scope_file(scope)
    lines = target.read_text(encoding="utf-8").splitlines()
    label = f"{entry['reason']} (PR {entry['pr']})"
    if variant == "renamed":
        if qual:
            node = anchor("\n".join(lines), qual)
            lines[node.lineno - 1] = re.sub(
                rf"\b(def|class) {node.name}\b", rf"\1 {node.name}_renamed",
                lines[node.lineno - 1], count=1)
            target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            (tmp_path / path).rename(tmp_path / f"{path}_renamed")
        code, out = gone_check(tmp_path, capsys, monkeypatch)
        assert code == 1
        assert f"{tool.GONE}: missing anchor {scope}: {label}" in out
        return
    planted = [line for name in entry["names"] or [""]
               for line in violation(entry["kind"], name)]
    planted *= entry.get("at_most", 0) + 1
    if variant == "in-words":
        planted = [f"# {line}" for line in planted] + [
            "def _documented():", '    """' + "\n".join(planted) + '"""']
    plant(target, qual, planted)
    code, out = gone_check(tmp_path, capsys, monkeypatch)
    if variant == "in-words":
        assert (code, out) == (0, "")
        return
    assert code == 1
    for name in entry["names"] or ["for", "listcomp"]:
        assert f": gone {entry['kind']} {name!r}" in out
    assert all(line.endswith(label) for line in out.splitlines())


def test_an_import_matches_in_every_spelling_but_words(
        tmp_path, capsys, monkeypatch):
    analysis = tmp_path / "src" / "repro" / "core" / "analysis"
    analysis.mkdir(parents=True)
    (analysis / "lint.py").write_text(
        '"""import repro.core.dse"""\n'
        "from ..dse import space\n"
        "from repro.core import dse\n"
        "import repro.core.dse.space as s\n"
        "from repro.core.dsl import kernel\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / tool.GONE).write_text(json.dumps([{
        "names": ["repro.core.dse"], "kind": "import",
        "scope": ["src/repro/core/analysis"], "reason": "r", "pr": 0}]))
    code, out = gone_check(tmp_path, capsys, monkeypatch)
    assert code == 1
    assert [line.split(":")[1] for line in out.splitlines()] == ["2", "3", "4"]


@pytest.mark.parametrize("name, rel, qual, line", [
    ("tasks_executed.inc(worker=)", "src/repro/workflow/recovery.py",
     "_Run.place", "self.tasks_executed.inc(worker=task_name)"),
    ("graph.dependencies", "src/repro/workflow/recovery.py",
     "_Run.mark_ready", "self.graph.dependencies(task_name)"),
    ("cache.put", "src/repro/core/dse/cost_model.py", "bound_for",
     "cache.put(key, None)"),
    ("role_slots", "src/repro/platform/node.py", "build_power9_node",
     "make_vu9p(name, role_slots=1)"),
])
def test_a_whole_file_entry_fires_outside_its_one_allowed_site(
        tmp_path, capsys, monkeypatch, name, rel, qual, line):
    (entry,) = [e for e in GONE if e["names"] == [name]]
    (tmp_path / rel).parent.mkdir(parents=True)
    shutil.copy(ROOT / rel, tmp_path / rel)
    (tmp_path / "tools").mkdir()
    (tmp_path / tool.GONE).write_text(json.dumps([entry]))
    assert gone_check(tmp_path, capsys, monkeypatch) == (0, "")
    plant(tmp_path / rel, qual, [line])
    code, out = gone_check(tmp_path, capsys, monkeypatch)
    assert code == 1
    assert "(2 hits, at most 1)" in out


def test_the_gone_list_covers_this_script_but_the_scan_does_not(
        tmp_path, capsys, monkeypatch):
    own = tmp_path / "tools" / "test_only.py"
    own.parent.mkdir()
    own.write_text(TOOL.read_text(encoding="utf-8") + "\n\n"
                   "def all_of():\n    pass\n", encoding="utf-8")
    (tmp_path / tool.GONE).write_text(json.dumps(
        [e for e in GONE if "all_of" in e["names"]]))
    scanned = []
    monkeypatch.setattr(tool, "SELF", own.resolve())
    monkeypatch.setattr(tool, "scan", lambda consumers, tests: scanned.extend(
        f.rel for f in consumers + tests) or [])
    keep = tmp_path / "keep.json"
    keep.write_text("[]")
    code = tool.main(["--root", str(tmp_path), "--keep", str(keep)])
    assert (code, scanned) == (1, [])
    assert "tools/test_only.py:" in capsys.readouterr().out


def test_a_root_without_a_gone_list_is_an_error(tree):
    (tree / "keep.json").write_text("[]")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--root", str(tree), "--keep",
         str(tree / "keep.json")], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "gone.json" in done.stderr
