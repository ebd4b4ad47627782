"""Committed records of results pinned across releases.

A *suite* is one kind of pinned result — an exploration's JSON, a
package's contents, an execution trace, a cache key's recipe — made
per *key* (a kernel and space, a seed and policy, a recipe) by the one
producer function a test module registers for that key with
:func:`suite`. ``tests/goldens/<suite>.jsonl`` holds the
records one row per line, ``[key, path, row]``: the path names a field
of the key's record or an element of a list field, so ``git diff``
names the key and row that moved.

A test calls :func:`check`, which runs the producer and compares its
rows with the committed ones; a failure names the suite, the key and
the first rows that moved, never a hash or a whole record. The same
producers write the records::

    python -m tests.goldens record [SUITE ...]   # rewrite the records
    python -m tests.goldens diff [SUITE ...]     # list moved keys, rows

``diff`` exits 1 when a row moved. A re-record is a commit of its own
whose CHANGES.md entry names the moved keys.

Every producer runs under :func:`produce`, in pytest or not: with
fresh SSA value names (buffer names such as ``v14`` show up in bounds
payloads, reports and infeasibility reasons), no memoized bounds,
memory-only caches and a private ``XDG_CACHE_HOME``, so a record made
outside pytest equals one made inside and nothing reaches the user's
``~/.cache``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest

from repro import cli
from repro.core.analysis.cache import configure_analysis_cache
from repro.core.analysis.perf import clear_bounds_memo
from repro.core.dse.cache import clear_caches, configure
from repro.core.ir import ops

RECORDS = Path(__file__).resolve().parent / "goldens"
#: Fields that name a row in a failure, first present wins.
_IDENTITY = ("knobs", "task", "anchor", "buffer", "kind", "action")
#: Moved rows a report spells out per key.
_FIRST = 5
_ABSENT = object()
_SUITES = {}


def suite(name, keys):
    """Register the decorated ``producer(key, **options)`` as the one
    source of suite ``name``'s records of ``keys``, one per key; test
    modules may register other keys of the same suite."""
    def register(producer):
        _SUITES.setdefault(name, {}).update(dict.fromkeys(keys, producer))
        return producer
    return register


def printed(argv, directory="."):
    """``repro argv`` run from ``directory``: exit code, stdout lines."""
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        patch.chdir(directory)
        code = cli.main(argv)
    return code, out.getvalue().split("\n")


def _memory_only() -> None:
    configure(cache_dir=None)
    clear_caches()
    configure_analysis_cache(cache_dir=None)
    clear_bounds_memo()


def produce(name, key, **options):
    """Suite ``name``'s record of ``key``, as plain JSON data."""
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as home:
        patch.setenv("XDG_CACHE_HOME", home)
        patch.setattr(ops, "_value_counter", itertools.count())
        _memory_only()
        try:
            return json.loads(json.dumps(_SUITES[name][key](key, **options)))
        finally:
            _memory_only()


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _rows(value, depth: int = 1, path: str = ""):
    """``(path, row)`` of one key's record: its fields or elements
    (depth 1) and the elements of a list field (2) are rows of their
    own; anything deeper stays inside its row."""
    if isinstance(value, dict) and value and depth < 2:
        for field in sorted(value):
            yield from _rows(value[field], depth + 1,
                             f"{path}.{field}" if path else field)
    elif isinstance(value, list) and value and depth < 3:
        for index, item in enumerate(value):
            yield from _rows(item, depth + 1, f"{path}[{index}]")
    else:
        yield path, value


def _path(name) -> Path:
    return RECORDS / f"{name}.jsonl"


@functools.lru_cache(maxsize=None)
def _records(name):
    records = defaultdict(list)
    text = _path(name).read_text("utf-8") if _path(name).exists() else ""
    for key, path, row in map(json.loads, text.splitlines()):
        records[key].append((path, row))
    return records


def _changes(old, new):
    """``(field, old, new)`` for each field of a row that moved; the
    whole row, with no field, unless both sides are objects."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [("", old, new)]
    return [(field, old.get(field, _ABSENT), new.get(field, _ABSENT))
            for field in sorted(set(old) | set(new))
            if old.get(field, _ABSENT) != new.get(field, _ABSENT)]


def _change(where, old, new) -> str:
    """``where old -> new``, each side cut to 60 characters from
    shortly before the first one that differs."""
    texts = ["(none)" if side is _ABSENT else _compact(side)
             for side in (old, new)]
    skip = max(0, len(os.path.commonprefix(texts)) - 20)
    old, new = (("..." if skip else "") + text[skip:skip + 60]
                for text in texts)
    return f"{where} {old} -> {new}".lstrip()


def _label(row) -> str:
    if isinstance(row, dict):
        return next((row[field] for field in _IDENTITY
                     if isinstance(row.get(field), str)), "")
    return row[0] if isinstance(row, list) and row and isinstance(
        row[0], str) else ""


def moved(name, key, value):
    """What moved between the committed record of ``key`` and
    ``value``, as report lines; empty when they are equal."""
    stored = _records(name).get(key)
    fresh = list(_rows(json.loads(json.dumps(value))))
    if stored == fresh:
        return []
    if stored is None:
        return [f"golden {name}[{key}]: no committed record"]
    before, after = dict(stored), dict(fresh)
    paths = {**before, **after}
    rows = [(path, before.get(path, _ABSENT), after.get(path, _ABSENT))
            for path in paths
            if before.get(path, _ABSENT) != after.get(path, _ABSENT)]
    report = [f"golden {name}[{key}]: {len(rows)} of {len(paths)} rows "
              f"moved" + (f"; first {_FIRST}:" if len(rows) > _FIRST else ":")]
    for path, old, new in rows[:_FIRST]:
        label = _label(old if new is _ABSENT else new)
        changes = _changes(old, new)
        report.append(
            f"  {path or '(record)'}" + (f" ({label})" if label else "")
            + ": " + ", ".join(_change(*change) for change in changes[:3])
            + (f" (+{len(changes) - 3} more)" if len(changes) > 3 else ""))
    return report


def check(name, key, value=_ABSENT, **options):
    """Fail the calling test unless ``value`` — by default what the
    producer makes of ``key`` and ``options`` — equals suite ``name``'s
    committed record of ``key``; returns the value."""
    value = produce(name, key, **options) if value is _ABSENT else value
    report = moved(name, key, value)
    if report:
        report.append(f"(a deliberate change re-records with "
                      f"`python -m tests.goldens record {name}`)")
        pytest.fail("\n".join(report), pytrace=False)
    return value


def main(argv=None) -> int:
    for path in sorted(RECORDS.parent.rglob("test_*.py")):
        if "@goldens.suite(" in path.read_text(encoding="utf-8"):
            module = path.relative_to(RECORDS.parent.parent).with_suffix("")
            importlib.import_module(".".join(module.parts))
    parser = argparse.ArgumentParser(
        prog="python -m tests.goldens",
        description="Write or compare the committed golden records.")
    parser.add_argument("action", choices=("record", "diff"))
    parser.add_argument("suites", nargs="*", metavar="SUITE",
                        help=f"{', '.join(sorted(_SUITES))} (default: all)")
    args = parser.parse_args(argv)
    status = 0
    for name in args.suites or sorted(_SUITES):
        if name not in _SUITES:
            parser.error(f"unknown suite {name!r}")
        keys = list(_SUITES[name])
        fresh = {key: produce(name, key) for key in keys}
        reports = [moved(name, key, fresh[key]) for key in keys]
        changed = [key for key, report in zip(keys, reports) if report]
        if args.action == "record":
            _path(name).parent.mkdir(exist_ok=True)
            _path(name).write_text("".join(
                _compact([key, path, row]) + "\n" for key in keys
                for path, row in _rows(fresh[key])), encoding="utf-8")
        else:
            print("".join(f"{line}\n" for report in reports
                          for line in report), end="")
            status = status or int(bool(changed))
        print(f"{name}: {len(keys)} keys, moved: "
              f"{', '.join(changed) or 'none'}")
    return status


if __name__ == "__main__":
    # Producers register with ``tests.goldens``, the module the test
    # files import, not with this ``__main__`` copy.
    from tests import goldens

    sys.exit(goldens.main())
