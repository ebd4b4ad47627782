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

:func:`lint_files` is the ``repro lint`` driver over these loaders:
check selection, the per-file incremental cache entries and the thread
fan-out. :func:`load_kernel_sources` reads a spec for the commands
that compile it rather than lint it.
"""

from __future__ import annotations

import ast as python_ast
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.analysis import (
    ALL_CHECKS,
    CONCURRENCY_CHECKS,
    analyze_module,
    lint_concurrency_spec,
    lint_workflow_spec,
)
from repro.core.analysis.cache import AnalysisCache
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir.parser import parse_module
from repro.core.ir.verifier import verify_diagnostics
from repro.core.store import decode
from repro.diagnostics import Diagnostics
from repro.errors import AnalysisError, EverestError, SpecificationError
from repro.obs import current_metrics

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


def load_kernel_sources(path: str) -> List[str]:
    """Kernel-DSL source blocks found in a ``.edsl`` or ``.py`` file.

    An unreadable file, or one holding no kernel-DSL source, raises
    :class:`~repro.errors.SpecificationError`.
    """
    diagnostics = Diagnostics()
    text = read_spec_text(path, diagnostics)
    if text is None:
        [finding] = diagnostics.items
        raise SpecificationError(f"{path}: {finding.message}")
    sources = (
        extract_kernel_sources(text) if path.endswith(".py") else [text]
    )
    if not sources:
        raise SpecificationError(f"{path}: no kernel-DSL source found")
    return sources


# ---------------------------------------------------------------------
# The lint driver.


@dataclass
class LintRun:
    """What :func:`lint_files` found: the findings of every file, the
    targets they held and the incremental cache's hits and misses."""

    diagnostics: Diagnostics
    targets: int = 0
    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class _Checks:
    """The checks one lint runs, by the kind of target they apply to."""

    module: Tuple[str, ...]
    workflow: bool
    concurrency: Tuple[str, ...]

    @property
    def signature(self) -> str:
        """The selection's part of a per-file cache key."""
        return "|".join((",".join(self.module),
                         "wf" if self.workflow else "",
                         ",".join(self.concurrency)))


def _select_checks(only: Iterable[str]) -> _Checks:
    """The checks ``--only`` values select: comma-separated,
    case-insensitive, every check when there are none. Beside the IR
    analyses, ``wf`` and the concurrency checks apply to workflow
    specs."""
    known = {*ALL_CHECKS, "wf", *CONCURRENCY_CHECKS}
    selected = {token.strip().lower()
                for entry in only for token in entry.split(",")} - {""}
    unknown = selected - known
    if unknown:
        raise AnalysisError(f"unknown check(s) {sorted(unknown)}; "
                            f"choose from {sorted(known)}")
    if not selected:
        selected = known
    return _Checks(
        module=tuple(sorted(selected & set(ALL_CHECKS))),
        workflow="wf" in selected,
        concurrency=tuple(sorted(selected & set(CONCURRENCY_CHECKS))),
    )


def _lint_entry(payload) -> Tuple[Diagnostics, int]:
    """A per-file lint entry; a payload without its findings and
    target count, or with either damaged, is rejected (a miss)."""
    return (Diagnostics.from_dicts(payload["diagnostics"]),
            decode(int, payload["targets"]))


def _lint_file(checks: _Checks, cache: Optional[AnalysisCache],
               path: str) -> Tuple[Diagnostics, int, bool]:
    """``(findings, target count, cache hit?)`` of one spec file."""
    diagnostics = Diagnostics()
    text = read_spec_text(path, diagnostics)
    if text is None:
        return diagnostics, 0, False
    key = None
    if cache is not None:
        # The path is part of the key: loader diagnostics anchor on
        # it, so one file's findings must never replay for an
        # identical copy elsewhere in the tree.
        key = AnalysisCache.source_key(
            f"{path}\x1f{text}", (checks.signature,)
        )
        entry = cache.read(key, _lint_entry)
        if entry is not None:
            return (*entry, True)
    targets = load_targets_from_text(path, text, diagnostics)
    for target in targets:
        try:
            if target.kind == "module" and checks.module:
                verify_diagnostics(target.module, diagnostics)
                analyze_module(target.module, diagnostics,
                               checks=checks.module)
            elif target.kind == "workflow":
                if checks.workflow:
                    lint_workflow_spec(target.spec, diagnostics)
                if checks.concurrency:
                    lint_concurrency_spec(target.spec, diagnostics,
                                          checks=checks.concurrency)
        except Exception as exc:  # a crash must not hide the rest
            diagnostics.error(
                "DSL001", f"cannot lint target: {exc}",
                anchor=target.name, analysis="loader",
            )
    if key is not None:
        cache.put(key, {
            "diagnostics": [item.to_dict() for item in diagnostics],
            "targets": len(targets),
        })
    return diagnostics, len(targets), False


def lint_files(paths: Sequence[str], only: Iterable[str] = (),
               cache: Optional[AnalysisCache] = None,
               workers: int = 1) -> LintRun:
    """Lint every spec file ``paths`` expand to (see
    :func:`expand_spec_files`), in that order.

    ``only`` holds ``--only`` values (an unknown check raises
    :class:`~repro.errors.AnalysisError`). With a ``cache`` each file's
    findings are memoized by path, contents and selected checks, so a
    warm run loads nothing it has seen; its traffic is published as
    ``analysis.cache_hits`` / ``analysis.cache_misses`` with
    ``layer="source"``. ``workers > 1`` lints files on that many
    threads, with the same result.
    """
    lint = partial(_lint_file, _select_checks(only), cache)
    files = [found for path in paths for found in expand_spec_files(path)]
    if workers > 1 and len(files) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lint, files))
    else:
        outcomes = [lint(path) for path in files]
    run = LintRun(Diagnostics())
    for diagnostics, targets, hit in outcomes:
        run.diagnostics.extend(diagnostics)
        run.targets += targets
        run.hits += hit
        run.misses += not hit
    if cache is not None:
        metrics = current_metrics()
        metrics.counter(
            "analysis.cache_hits", "analysis cache hits",
        ).inc(run.hits, layer="source")
        metrics.counter(
            "analysis.cache_misses", "analysis cache misses",
        ).inc(run.misses, layer="source")
    return run
