"""The journal's policy above the shared line reader: a sealed line or
snapshot is taken only when it holds what the journal expects there,
and a journal that is there but cannot be read is an error, never an
empty run that a resume would start over.
"""

import shutil
from pathlib import Path

import pytest

from repro.core.store import seal
from repro.errors import JournalError
from repro.workflow.journal import (
    JOURNAL_FILE,
    JOURNAL_VERSION,
    SNAPSHOT_VERSION,
    read_records,
    read_snapshot,
    replay_journal,
    snapshot_path,
)

RUN = Path(__file__).resolve().parent / "fixtures" / "journal_pr18"


@pytest.fixture
def journal(tmp_path):
    """A copy of the recorded journal, without its snapshots."""
    return Path(shutil.copy(RUN / JOURNAL_FILE, tmp_path / JOURNAL_FILE))


def test_a_sealed_snapshot_of_no_state_falls_back_to_full_replay(journal):
    full, _info = replay_journal(journal.parent, use_snapshots=False)
    path = snapshot_path(journal.parent, 5)
    path.write_text(seal({"snapshot_version": SNAPSHOT_VERSION,
                          "journal_version": JOURNAL_VERSION,
                          "seq": 5, "state": []}))
    assert read_snapshot(path) is None
    state, info = replay_journal(journal.parent)
    assert info.snapshot_seq == -1
    assert state == full


@pytest.mark.parametrize("record", [
    {"data": {}}, {"type": "event", "data": []},
], ids=["no-type", "data-is-a-list"])
def test_a_sealed_line_of_another_shape_is_damage(journal, record):
    """As the last line it is a torn tail, before another a ``WF007``
    naming its byte offset — never a record, never a ``KeyError``."""
    lines = journal.read_bytes().splitlines(keepends=True)
    head = b"".join(lines[:3])
    line = (seal(dict(record, seq=3)) + "\n").encode()
    journal.write_bytes(head + line)
    assert read_records(journal) == (read_records(RUN / JOURNAL_FILE)[0][:3],
                                     True)
    journal.write_bytes(head + line + b"".join(lines[3:]))
    with pytest.raises(JournalError) as caught:
        read_records(journal)
    assert caught.value.code == "WF007"
    assert f"byte offset {len(head)} " in str(caught.value)


def test_a_journal_that_cannot_be_read_raises(tmp_path):
    assert read_records(tmp_path / JOURNAL_FILE) == ([], False)
    (tmp_path / JOURNAL_FILE).mkdir()
    with pytest.raises(OSError):
        read_records(tmp_path / JOURNAL_FILE)
