"""Structural mutation of ``ContentStore`` shards: a read is the
original record or a counted miss, never an exception.

A cache directory is populated by compiling four seeded end-to-end
kernels (their cost points, analysis entries and bounds) and analysing
each lowered to kernel form (entries with loop and access facts), then one
envelope line is mutated: one payload attribute dropped, duplicated or
retyped, the line truncated, or its payload swapped with a line of
another kind or of its own. Every line but a truncated one is sealed
afresh, so the mutation reaches the payload decoder, except a swap
within one kind, which keeps the crcs as written: both payloads are
well formed for their kind, and only the crc over the key tells them
apart. Every key is then read back through a fresh store with its
kind's decoder, and a compile over the mutated directory must give the
cold run's fronts and bounds.

One mutation is left out because no reader can tell it from a sound
entry: dropping an attribute whose field has a default (the codec
reads it as that default, which is how older payloads still load).
"""

from __future__ import annotations

import itertools
import json
import shutil
import tempfile
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.inputs import kernel_input
from repro.core.analysis import _cached_entry, analyze_module_cached
from repro.core.analysis.absint import AnalysisFacts
from repro.core.analysis.cache import configure_analysis_cache
from repro.core.analysis.perf import (
    StaticBounds,
    clear_bounds_memo,
    kernel_bounds,
)
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import DEFAULT_PREPARED_CAPACITY, configure
from repro.core.dse.space import DesignSpace
from repro.core.ir import ops
from repro.core.store import ContentStore, decode, seal, unseal
from repro.core.variants import CostEstimate, VariantKnobs
from repro.obs.driver import pipeline_from_sources
from tests.dse.oracle import annotated_module, seeded_source
from tests.conftest import examples

#: (seed, op index): a chain, the model import, a reduction, a matmul.
KERNELS = ((1, 0), (1, 1), (1, 4), (1, 7))


@dataclass
class AnalysisEntry:
    """What ``analyze_module_cached`` stores under one key."""

    diagnostics: list
    facts: AnalysisFacts


#: kind -> (the record its payload holds, the reader the caller uses)
KINDS = {
    "cost": (CostEstimate, partial(decode, CostEstimate)),
    "analysis": (AnalysisEntry, _cached_entry),
    "perf": (StaticBounds, partial(decode, StaticBounds)),
}


def compile_all(root: Path):
    """``{kernel: (front_json, bounds, kernel-form analysis)}`` of the
    four kernels, compiled over the cache directories under ``root``."""
    configure(cache_dir=root / "dse",
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    configure_analysis_cache(root / "analysis")
    clear_bounds_memo()
    results = {}
    saved = ops._value_counter
    try:
        for seed, index in KERNELS:
            name = kernel_input(seed, index).name
            app = EverestCompiler(
                space=DesignSpace.small(), emit_artifacts=False,
            ).compile(pipeline_from_sources(
                name, [seeded_source(seed, index)]))
            # bounds name buffers from a process-global counter, which
            # pricing a miss advances: restart it, so a bound derived
            # after a miss names what the cold one did
            ops._value_counter = itertools.count()
            bounds = kernel_bounds(app.module, name)
            ops._value_counter = itertools.count()
            diagnostics, facts, _ = analyze_module_cached(annotated_module(
                app.module, VariantKnobs(target="fpga", unroll=2)))
            results[name] = (
                app.exploration[name].front_json(), bounds,
                [item.to_dict() for item in diagnostics], facts,
            )
    finally:
        ops._value_counter = saved
    return results


def shard_lines(root: Path):
    """``[(shard path, line number, envelope)]`` of every shard line."""
    return [(path, number, unseal(line))
            for path in sorted(root.glob("*/*/*.json"))
            for number, line in enumerate(path.read_text().splitlines())]


def read_back(entries):
    """``{key: record or None}`` through fresh stores, one per cache
    directory; a None must be counted as a miss."""
    stores = {}
    records = {}
    for path, _number, entry in entries:
        directory = path.parents[1]
        if directory not in stores:
            stores[directory] = ContentStore(directory)
        store = stores[directory]
        misses = store.stats.misses
        record = store.read(entry["key"], KINDS[entry["kind"]][1])
        assert (record is None) == (store.stats.misses == misses + 1)
        records[entry["key"]] = record
    return records


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """The cold directory, its lines, what reads them and the cold
    results."""
    root = tmp_path_factory.mktemp("cold")
    cold = compile_all(root)
    entries = shard_lines(root)
    assert {entry["kind"] for _path, _number, entry in entries} == set(KINDS)
    assert any(function["accesses"] and function["loops"]
               for _path, _number, entry in entries
               if entry["kind"] == "analysis"
               for function in entry["payload"]["facts"]["functions"].values())
    assert len({entry["key"] for _path, _n, entry in entries}) \
        == len(entries)
    records = read_back(entries)
    assert None not in records.values()
    return root, entries, records, cold


def attributes(hint, value, path=()):
    """``(path, required)`` of every record attribute in a payload;
    ``required`` when the field has no default."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        for item in fields(hint):
            if item.init and item.name in value:
                yield path + (item.name,), (
                    item.default is MISSING
                    and item.default_factory is MISSING)
                yield from attributes(hints[item.name], value[item.name],
                                      path + (item.name,))
        return
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union and value is not None:
        (inner,) = [arg for arg in args if arg is not type(None)]
        yield from attributes(inner, value, path)
    elif origin in (list, tuple):
        for position, element in enumerate(value):
            yield from attributes(args[0] if origin is list
                                  else args[position],
                                  element, path + (position,))
    elif origin is dict:
        for name, element in value.items():
            yield from attributes(args[1], element, path + (name,))


def retyped(value, choice: int):
    """``value`` as a JSON type its annotation rejects."""
    if choice == 0 or isinstance(value, str):
        return [value]
    if choice == 1:
        return json.dumps(value)
    return 1 if isinstance(value, bool) else True


def _parent(payload, path):
    for step in path[:-1]:
        payload = payload[step]
    return payload


class Twice(dict):
    """A JSON object that the encoder writes with one attribute twice."""

    def __init__(self, attributes, twin):
        super().__init__(attributes)
        self.twin = twin

    def items(self):
        return [*super().items(), (self.twin, self[self.twin])]


def mutate(entries, data):
    """Mutate one line; returns ``{line text by (path, number)}`` and
    the keys that must now read as a miss."""
    lines = {(path, number): seal(entry) for path, number, entry in entries}
    index = data.draw(st.integers(0, len(entries) - 1), label="line")
    path, number, entry = entries[index]
    entry = json.loads(json.dumps(entry))
    record = KINDS[entry["kind"]][0]
    found = list(attributes(record, entry["payload"]))
    mutation = data.draw(st.sampled_from(
        ("drop", "duplicate", "retype", "truncate", "swap", "swap-same-kind")),
        label="mutation")
    missed = {entry["key"]}
    if mutation == "truncate":
        text = lines[path, number]
        cut = data.draw(st.integers(1, len(text) - 1), label="cut")
        lines[path, number] = text[:cut]
        return lines, missed
    if mutation.startswith("swap"):
        # another kind's payload, or a different one of its own kind
        others = [position for position, (_p, _n, other)
                  in enumerate(entries)
                  if (other["kind"] == entry["kind"]) == (
                      mutation == "swap-same-kind")
                  and other["payload"] != entry["payload"]]
        other_path, other_number, other = entries[data.draw(
            st.sampled_from(others), label="other")]
        other = json.loads(json.dumps(other))
        entry["payload"], other["payload"] = (
            other["payload"], entry["payload"])
        missed.add(other["key"])
        for where, record in (((path, number), entry),
                              ((other_path, other_number), other)):
            # a swap within one kind keeps the crcs as written
            text = seal(record)
            lines[where] = (text[:-14] + lines[where][-14:]
                            if mutation == "swap-same-kind" else text)
        return lines, missed
    if mutation == "drop":
        required = [where for where, needed in found if needed]
        where = data.draw(st.sampled_from(required), label="attribute")
        del _parent(entry["payload"], where)[where[-1]]
    else:
        where, _needed = data.draw(st.sampled_from(found), label="attribute")
        holder = _parent(entry["payload"], where)
        if mutation == "retype":
            holder[where[-1]] = retyped(holder[where[-1]], data.draw(
                st.integers(0, 2), label="type"))
        else:
            # the attribute twice, with its own value: the last wins
            inside = ("payload",) + where
            _parent(entry, inside[:-1])[inside[-2]] = Twice(
                holder, where[-1])
            missed = set()
    lines[path, number] = seal(entry)
    return lines, missed


@settings(max_examples=examples(100), deadline=None)
@given(data=st.data())
def test_a_mutated_line_is_the_original_or_a_counted_miss(populated, data):
    root, entries, originals, cold = populated
    lines, missed = mutate(entries, data)
    with tempfile.TemporaryDirectory() as workdir:
        mutated = Path(workdir) / "cache"
        shutil.copytree(root, mutated)
        texts = {}
        for (path, _number), text in sorted(lines.items()):
            texts.setdefault(mutated / path.relative_to(root), []).append(
                text + "\n")
        for path, shard in texts.items():
            path.write_text("".join(shard))
        moved = [(mutated / path.relative_to(root), number, entry)
                 for path, number, entry in entries]
        read = read_back(moved)
        for key, original in originals.items():
            assert read[key] == (None if key in missed else original)
        assert compile_all(mutated) == cold
