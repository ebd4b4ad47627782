"""Byte-level mutation of a recorded run journal and its snapshots: a
read is what was written, a prefix of it, or a coded refusal — never
an exception of any other kind, never a record that was not written.

A file of ``tests/workflow/fixtures/journal_pr18`` is copied and
damaged once: one byte flipped, the file cut short, or one line
written twice. :func:`read_records` must return a prefix of the
journal's records (with or without a torn tail) or raise ``WF007``
(corruption) or ``WF008`` (format version); :func:`read_snapshot` the
snapshot as written, None (skipped), or ``WF008``.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.workflow.journal import (
    JOURNAL_FILE, list_snapshots, read_records, read_snapshot,
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
