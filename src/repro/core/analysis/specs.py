"""Loaders turning user-facing specs into lintable targets.

``python -m repro lint`` accepts:

* a ``.edsl`` file of kernel-DSL source — compiled to an IR module;
* a ``.ir`` file of printed IR — parsed back to a module, so lowered
  kernel-form fixtures (explicit loops, ``hw.partition`` directives)
  lint without a DSL front end;
* a ``.py`` file — every string constant that looks like kernel-DSL
  source (``kernel name(...)``) is extracted via the ``ast`` module
  and compiled, so the shipped examples lint without being executed;
* a ``.json`` file — a workflow description for the DAG linter (see
  :func:`repro.core.analysis.wfcheck.lint_workflow_spec`);
* a directory — recursively expanded to all of the above.

Each target is a :class:`LintTarget` carrying either an IR module or a
workflow spec; load failures become DSL001 diagnostics instead of
exceptions so a single bad file does not hide findings in the rest.

Expansion is fully deterministic: directory walks sort both the
subdirectory and the file lists, so ``repro lint`` over a tree emits
byte-identical reports on any filesystem and any worker count.
"""

from __future__ import annotations

import ast as python_ast
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir.parser import parse_module
from repro.diagnostics import Diagnostics
from repro.errors import EverestError

_KERNEL_RE = re.compile(r"\bkernel\s+\w+\s*\(")

_EXTENSIONS = (".edsl", ".ir", ".py", ".json")


@dataclass
class LintTarget:
    """One lintable unit: an IR module or a workflow spec."""

    name: str
    kind: str  # "module" | "workflow"
    module: Optional[object] = None
    spec: Optional[Dict] = None


def extract_kernel_sources(python_source: str) -> List[str]:
    """Kernel-DSL string constants embedded in python source."""
    sources: List[str] = []
    try:
        tree = python_ast.parse(python_source)
    except SyntaxError:
        return sources
    for node in python_ast.walk(tree):
        if (
            isinstance(node, python_ast.Constant)
            and isinstance(node.value, str)
            and _KERNEL_RE.search(node.value)
        ):
            sources.append(node.value)
    return sources


def _load_module_target(
    name: str, source: str, diagnostics: Diagnostics
) -> Optional[LintTarget]:
    try:
        module = compile_kernel(source)
    except EverestError as exc:
        diagnostics.error(
            "DSL001",
            f"cannot compile kernel source: {exc}",
            anchor=name,
            analysis="loader",
        )
        return None
    return LintTarget(name=name, kind="module", module=module)


def _load_ir_target(
    name: str, source: str, diagnostics: Diagnostics
) -> Optional[LintTarget]:
    try:
        module = parse_module(source)
    except EverestError as exc:
        diagnostics.error(
            "DSL001",
            f"cannot parse IR: {exc}",
            anchor=name,
            analysis="loader",
        )
        return None
    return LintTarget(name=name, kind="module", module=module)


def expand_spec_files(path: str) -> List[str]:
    """Deterministically expand one CLI path into spec files.

    A directory yields every ``_EXTENSIONS`` file beneath it with both
    the directory and file walk order sorted; anything else (including
    a nonexistent path — its error is reported at load time) passes
    through unchanged.
    """
    if not os.path.isdir(path):
        return [path]
    found: List[str] = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for filename in sorted(files):
            if filename.endswith(_EXTENSIONS):
                found.append(os.path.join(root, filename))
    return found


def load_targets_from_text(
    path: str, text: str, diagnostics: Diagnostics
) -> List[LintTarget]:
    """Targets for one spec file whose contents are already in hand.

    This is the unit the incremental lint cache keys on: pure in
    ``(path, text)``, so a warm ``repro lint --incremental`` replays
    the stored findings without parsing or compiling anything.
    """
    targets: List[LintTarget] = []
    if path.endswith(".edsl"):
        target = _load_module_target(path, text, diagnostics)
        if target:
            targets.append(target)
    elif path.endswith(".ir"):
        target = _load_ir_target(path, text, diagnostics)
        if target:
            targets.append(target)
    elif path.endswith(".py"):
        for index, source in enumerate(extract_kernel_sources(text)):
            target = _load_module_target(
                f"{path}#{index}", source, diagnostics
            )
            if target:
                targets.append(target)
    elif path.endswith(".json"):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            diagnostics.error(
                "DSL001", f"invalid JSON: {exc}",
                anchor=path, analysis="loader",
            )
            return targets
        if not isinstance(spec, dict):
            diagnostics.error(
                "DSL001", "workflow spec must be a JSON object",
                anchor=path, analysis="loader",
            )
            return targets
        targets.append(LintTarget(name=path, kind="workflow", spec=spec))
    else:
        diagnostics.error(
            "DSL001",
            f"unsupported spec type (expected one of {_EXTENSIONS})",
            anchor=path, analysis="loader",
        )
    return targets


def read_spec_text(
    path: str, diagnostics: Diagnostics
) -> Optional[str]:
    """The file's text, or None with a DSL001 recorded."""
    if not os.path.exists(path):
        diagnostics.error(
            "DSL001", "no such file or directory",
            anchor=path, analysis="loader",
        )
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        diagnostics.error(
            "DSL001", f"cannot read spec: {exc}",
            anchor=path, analysis="loader",
        )
        return None

