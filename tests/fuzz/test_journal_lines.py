"""Byte-level mutation of a recorded run journal and its snapshots: a
read is what was written, a prefix of it, or a coded refusal — never
an exception of any other kind, never a record that was not written.

A file of ``tests/workflow/fixtures/journal_pr18`` is copied and
damaged once: one byte flipped, the file cut short, or one line
written twice. :func:`read_records` must return a prefix of the
journal's records (with or without a torn tail) or raise ``WF007``
(corruption) or ``WF008`` (format version); :func:`read_snapshot` the
snapshot as written, None (skipped), or ``WF008``.

An ``event`` line formatted in its fixed shape (:func:`event_line`)
is the line the generic encoder seals for the same record, whatever
the names and numbers it holds, and unseals to that record.
"""

import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import unseal
from repro.errors import JournalError
from repro.workflow.journal import (
    JOURNAL_FILE, encode_record, event_line, list_snapshots, read_records,
    read_snapshot,
)
from tests.conftest import examples

RUN = (Path(__file__).resolve().parents[1] / "workflow" / "fixtures"
       / "journal_pr18")
FILES = [RUN / JOURNAL_FILE] + [path for _seq, path in list_snapshots(RUN)]


@settings(max_examples=examples(600), deadline=None)
@given(data=st.data())
def test_a_damaged_file_reads_as_written_or_is_refused_by_code(
        tmp_path_factory, data):
    source = data.draw(st.sampled_from(FILES), label="file")
    raw = source.read_bytes()
    lines = raw.splitlines(keepends=True)
    where = data.draw(st.integers(0, len(raw) - 1), label="byte")
    line = data.draw(st.integers(0, len(lines) - 1), label="line")
    flipped = raw[where] ^ data.draw(st.integers(1, 255), label="mask")
    path = tmp_path_factory.getbasetemp() / source.name
    path.write_bytes(data.draw(st.sampled_from((
        raw[:where] + bytes([flipped]) + raw[where + 1:],
        raw[:where],
        b"".join(lines[:line + 1] + lines[line:]),
    )), label="flip, cut or duplicate"))
    journal = source.name == JOURNAL_FILE
    read = read_records if journal else read_snapshot
    try:
        got = read(path)
    except JournalError as exc:
        assert exc.code in (("WF007", "WF008") if journal else ("WF008",))
        return
    if journal:
        assert got[0] == read(source)[0][:len(got[0])]
    else:
        assert got in (None, read(source))


#: Names with non-ASCII, quotes, backslashes, control characters and
#: lone surrogates.
NAMES = st.text(st.characters(exclude_categories=()), max_size=12) | \
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "t\u2028\u00e9\U0001f600",
                     "\ud800", 'a"b\\c\n'])
#: Times at the float edges (-0.0, subnormal, huge, NaN, inf) and ints
#: past 2**53.
TIMES = st.floats() | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from(
    [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 2 ** 53 + 1])


def _has_nan(value) -> bool:
    if isinstance(value, dict):
        return any(map(_has_nan, value.values()))
    return isinstance(value, float) and math.isnan(value)


@settings(max_examples=examples(300), deadline=None)
@given(seq=st.integers(0, 2 ** 40), phase=NAMES, name=NAMES,
       category=NAMES, ts=TIMES, dur=TIMES,
       task=st.none() | NAMES | st.integers() | st.booleans())
def test_an_event_line_is_the_sealed_record(seq, phase, name, category,
                                             ts, dur, task):
    data = {"phase": phase, "name": name, "category": category, "ts": ts,
            "dur": dur, "args": {} if task is None else {"task": task}}
    line = event_line(seq, phase, name, category, ts, dur, task)
    assert line == encode_record(seq, "event", data)
    record = unseal(line)
    assert encode_record(record["seq"], record["type"],
                         record["data"]) == line
    if not _has_nan(data):
        assert record == {"seq": seq, "type": "event", "data": data}
