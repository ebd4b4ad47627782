"""The import direction of ``src/repro``, stated once.

Three checks over the same module list:

* every module can be the *first* ``repro`` import of an interpreter
  (no module works only because an entry point imported another one
  before it);
* every ``repro`` import in the source, nested ones included, points
  at the importer's own layer or a lower one in :data:`LAYERS`;
* function-level ``repro`` imports exist only in the files, counts and
  directions :data:`DEFERRED` names.

There is no exemption list: a new upward edge is fixed in ``src/``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: lowest layer first; a module belongs to the longest prefix naming it
#: and imports only from its own layer or the ones above it in this list.
LAYERS = (
    ("repro.errors", "repro.diagnostics", "repro.utils"),
    ("repro.obs",),
    ("repro.platform",),
    ("repro.core.timing", "repro.core.store", "repro.core.variants"),
    ("repro.core.ir",),
    ("repro.core.hls",),
    ("repro.core.ir.passes",),
    ("repro.core.dsl", "repro.core.frontend"),
    ("repro.core.analysis",),
    ("repro.core.dse",),
    ("repro.core.backend",),
    ("repro.core.pipeline_exec", "repro.core.compiler"),
    ("repro.workflow.graph",),
    ("repro.chaos",),
    ("repro.workflow",),
    ("repro.runtime",),
    ("repro.sanitize",),
    ("repro.apps",),
    ("repro.obs.driver",),
    ("repro.cli", "repro.__main__"),
)

#: the only function-level ``repro`` imports: file -> (count, what they
#: may load). ``cli`` loads a subsystem only one subcommand drives, one
#: statement per function: the durable-run opener, the traced run, the
#: sanitizer report, ``chaos`` and its ``--policy`` type, ``runs`` and
#: ``service``.
DEFERRED = {
    "repro.cli": (7, ("repro.workflow", "repro.obs.driver", "repro.sanitize")),
}


def _modules():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    found = {}
    for path in sorted(SRC.glob("repro/**/*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()


def _within(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


def _rank(name):
    """Index in :data:`LAYERS` of the longest prefix naming *name*."""
    best = max(
        ((len(prefix), rank) for rank, layer in enumerate(LAYERS)
         for prefix in layer if _within(name, prefix)),
        default=None,
    )
    return None if best is None else best[1]


def _repro_imports(name, path):
    """``(line, imported module, inside a function)`` per name a
    ``repro`` import statement of *path* binds."""

    def targets(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        base = node.module or ""
        if node.level:  # relative: resolve against the importing package
            package = name.split(".")
            if path.name != "__init__.py":
                package = package[:-1]
            package = package[: len(package) - node.level + 1]
            base = ".".join(package + ([base] if base else []))
        return [
            f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES else base
            for alias in node.names
        ]

    def walk(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in targets(child):
                    if _within(target, "repro"):
                        yield child.lineno, target, nested
            else:
                yield from walk(child, nested or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    return list(walk(ast.parse(path.read_text()), False))


_SWEEP = """
import importlib, json, sys
from importlib.machinery import SourceFileLoader
compiled = {}
compile_source = SourceFileLoader.source_to_code
def compile_once(loader, data, path, *args, **kwargs):
    if path not in compiled:
        compiled[path] = compile_source(loader, data, path, *args, **kwargs)
    return compiled[path]
SourceFileLoader.source_to_code = compile_once
failed = {}
for name in json.loads(sys.stdin.read()):
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as error:
        failed[name] = f"{type(error).__name__}: {error}"
print(json.dumps(failed))
"""


def test_every_module_imports_first():
    # one child, not one per module: the start-up of numpy/networkx is
    # paid once, and dropping every ``repro*`` entry from sys.modules
    # before each import makes that module the first one loaded. The
    # child keeps each module's code object, so a module is compiled
    # once however often it is re-executed (nothing writes bytecode).
    names = [name for name in MODULES if name != "repro.__main__"]
    child = subprocess.run(
        [sys.executable, "-c", _SWEEP], input=json.dumps(names), text=True,
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {}


def test_every_import_points_down_the_layer_table():
    unplaced = [name for name in MODULES
                if _rank(name) is None and _repro_imports(name, MODULES[name])]
    assert unplaced == [], "modules with imports but no layer"
    upward = [
        f"{name}:{line} imports {target}"
        for name, path in MODULES.items()
        for line, target, _ in _repro_imports(name, path)
        if _rank(target) is None or _rank(target) > _rank(name)
    ]
    assert upward == []


def test_leaves_import_nothing_from_repro():
    for leaf in ("repro.diagnostics", "repro.core.timing"):
        assert _repro_imports(leaf, MODULES[leaf]) == []


def test_function_level_imports_are_the_named_ones():
    deferred = {}
    for name, path in MODULES.items():
        for line, target, inside in _repro_imports(name, path):
            if inside:
                deferred.setdefault(name, {}).setdefault(line, []).append(target)
    statements = {name: len(lines) for name, lines in deferred.items()}
    assert statements == {name: count for name, (count, _) in DEFERRED.items()}
    for name, lines in deferred.items():
        allowed = DEFERRED[name][1]
        for line, targets in lines.items():
            assert all(any(_within(target, prefix) for prefix in allowed)
                       for target in targets), f"{name}:{line} loads {targets}"
