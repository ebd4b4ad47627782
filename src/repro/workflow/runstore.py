"""On-disk store of durable workflow runs.

Layout, under a root directory (default
``$XDG_STATE_HOME/repro-runs`` or ``~/.local/state/repro-runs``)::

    <root>/<run-id>/
        meta.json            # recipe: how to rebuild this run
        journal.jsonl        # write-ahead event journal
        snapshot-<seq>.json  # periodic ReplayState snapshots
        archive-<n>/         # journal+snapshots of crashed attempts

``meta.json`` is written *before* execution starts, so a run killed at
any journal offset — including offset zero — still records how to
rebuild its graph, pool and fault schedule deterministically; the CLI
reads it back for ``repro run --resume`` / ``repro runs``. Resuming
archives the crashed attempt's journal and snapshots (they remain on
disk for audit) and starts a fresh journal that the re-executed run
fills end to end. :meth:`RunStore.open` is how callers (``repro
chaos|run``, the service launcher) start or resume a run: it resumes a
run id only for the kind and recipe that recorded it.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import JournalError
from repro.workflow.journal import (
    JOURNAL_FILE,
    ReplayInfo,
    RunJournal,
    journal_error,
    list_snapshots,
    replay_journal,
)
from repro.workflow.replay import ReplayState

META_FILE = "meta.json"


def default_runs_dir() -> Path:
    """``$XDG_STATE_HOME/repro-runs`` or ``~/.local/state/repro-runs``."""
    base = os.environ.get("XDG_STATE_HOME")
    root = Path(base) if base else Path.home() / ".local" / "state"
    return root / "repro-runs"


@dataclass
class RunInfo:
    """One row of ``repro runs list``."""

    run_id: str
    kind: str
    created: float
    state: ReplayState
    info: ReplayInfo
    attempts: int

    @property
    def status(self) -> str:
        """``complete``, ``in-flight`` or ``empty``."""
        if self.state.finished:
            return "complete"
        if self.state.events or self.state.header:
            return "in-flight"
        return "empty"


class RunStore:
    """Manages run directories under one root."""

    def __init__(self, root=None):
        """Open (creating lazily) the store rooted at ``root``."""
        self.root = Path(root) if root else default_runs_dir()

    # -- creation ------------------------------------------------------

    def create_run(
        self,
        kind: str,
        meta: Dict,
        run_id: Optional[str] = None,
        snapshot_every: int = 100,
    ) -> Tuple[str, RunJournal]:
        """Register a new run and open its journal.

        ``meta`` must hold everything needed to rebuild the run
        deterministically (seeds, spec path, policy, pool size...);
        it is persisted before any execution so a crash at journal
        offset zero is still resumable.
        """
        run_id = run_id or f"{kind}-{uuid.uuid4().hex[:8]}"
        directory = self.root / run_id
        if (directory / META_FILE).exists():
            raise JournalError(f"run {run_id!r} already exists")
        # first: a bad journal option fails before anything is written
        journal = RunJournal(directory, snapshot_every=snapshot_every)
        payload = {
            "run_id": run_id,
            "kind": kind,
            "created": time.time(),
            "attempts": 1,
            "meta": meta,
        }
        self._write_meta(directory, payload)
        return run_id, journal

    def _write_meta(self, directory: Path, payload: Dict) -> None:
        tmp = directory / (META_FILE + ".tmp")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=2),
            encoding="utf-8",
        )
        os.replace(tmp, directory / META_FILE)

    # -- lookup --------------------------------------------------------

    def run_dir(self, run_id: Optional[str]) -> Path:
        """Directory of one run; raises when it does not exist."""
        if not run_id:
            raise JournalError(f"no run id given (runs live under "
                               f"{self.root})")
        directory = self.root / run_id
        if not directory.is_dir():
            raise JournalError(
                f"unknown run {run_id!r} under {self.root}"
            )
        return directory

    def load_meta(self, run_id: str) -> Dict:
        """The persisted recipe of a run."""
        path = self.run_dir(run_id) / META_FILE
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"run {run_id!r} has no readable {META_FILE}: {exc}"
            ) from exc

    def load_state(self, run_id: str) -> Tuple[ReplayState, ReplayInfo]:
        """Replay a run's journal into its durable state."""
        return replay_journal(self.run_dir(run_id))

    def list_runs(self) -> List[RunInfo]:
        """Every run in the store, newest first."""
        rows: List[RunInfo] = []
        if not self.root.is_dir():
            return rows
        for directory in sorted(self.root.iterdir()):
            if not (directory / META_FILE).exists():
                continue
            run_id = directory.name
            meta = self.load_meta(run_id)
            state, info = replay_journal(directory)
            rows.append(RunInfo(
                run_id=run_id,
                kind=meta.get("kind", "?"),
                created=meta.get("created", 0.0),
                state=state,
                info=info,
                attempts=meta.get("attempts", 1),
            ))
        rows.sort(key=lambda row: row.created, reverse=True)
        return rows

    # -- resume --------------------------------------------------------

    def prepare_resume(
        self,
        run_id: str,
        snapshot_every: int = 100,
    ) -> Tuple[Dict, ReplayState, RunJournal]:
        """Stage a crashed run for re-execution.

        Replays the crashed attempt's journal (snapshot + tail) into
        the resume state, archives its journal and snapshots under
        ``archive-<n>/``, bumps the attempt counter and opens a fresh
        journal for the resumed execution. Returns
        ``(meta, state, journal)``; when ``state.finished`` the caller
        should not re-execute — the recorded digest is authoritative.
        """
        directory = self.run_dir(run_id)
        # first: a bad journal option fails before anything is archived
        journal = RunJournal(directory, snapshot_every=snapshot_every)
        meta = self.load_meta(run_id)
        state, _info = replay_journal(directory)
        if not state.finished:
            attempt = meta.get("attempts", 1)
            archive = directory / f"archive-{attempt}"
            journal_file = directory / JOURNAL_FILE
            if journal_file.exists() or list_snapshots(directory):
                archive.mkdir(exist_ok=True)
                if journal_file.exists():
                    shutil.move(str(journal_file),
                                str(archive / JOURNAL_FILE))
                for _seq, snap in list_snapshots(directory):
                    shutil.move(str(snap), str(archive / snap.name))
            meta["attempts"] = attempt + 1
            self._write_meta(directory, meta)
        return meta, state, journal

    # -- open ----------------------------------------------------------

    def open(
        self,
        kind: str,
        run_id: Optional[str] = None,
        recipe: Optional[Dict] = None,
        snapshot_every: int = 100,
    ) -> Tuple[str, Dict, Optional[ReplayState], RunJournal]:
        """Start or resume one durable run.

        Returns ``(run_id, recipe, resume, journal)``. A ``run_id``
        the store already holds is resumed (``resume`` is its replayed
        state; when ``resume.finished`` the caller should not
        re-execute) provided it was recorded with the same ``kind``
        and, when ``recipe`` is given, the same recipe — otherwise
        ``WF009``, before anything on disk changes. ``recipe=None``
        resumes whatever recipe the run recorded (an unknown run is a
        :class:`JournalError`); a new ``run_id`` (or none) with a
        ``recipe`` registers a fresh run.

        Recipes are compared on the keys ``recipe`` names. A key only
        the recorded recipe holds is one a later build stopped
        recording (``repro run``'s ``workers`` / ``workers_mode`` /
        ``strategy``); it does not block the resume. The pool keys
        never changed a run. A run recorded under a strategy other
        than ``exhaustive`` either selected the same variants, and is
        the same run, or other ones, whose task durations change the
        graph digest the engine's journal header check compares
        (``WF009``).
        """
        if recipe is not None and not (
            run_id and (self.root / run_id / META_FILE).exists()
        ):
            run_id, journal = self.create_run(
                kind, recipe, run_id=run_id,
                snapshot_every=snapshot_every,
            )
            return run_id, recipe, None, journal
        meta = self.load_meta(run_id)
        stored = meta.get("meta", {})
        if meta.get("kind") != kind:
            reason = f"as a {meta.get('kind')!r} run, not {kind!r}"
        elif recipe is not None and json.loads(json.dumps(recipe)) != {
                key: stored.get(key) for key in recipe}:
            reason = "with a different recipe"
        else:
            _meta, state, journal = self.prepare_resume(
                run_id, snapshot_every=snapshot_every,
            )
            return run_id, stored, state, journal
        raise journal_error(
            "WF009", f"run {run_id!r} under {self.root} was recorded "
                     f"{reason}",
            anchor=run_id,
        )

    # -- gc ------------------------------------------------------------

    def gc(self, completed_only: bool = True) -> List[str]:
        """Delete run directories; returns the removed run ids.

        Default removes only completed runs (their journals have a
        finish record); ``completed_only=False`` removes everything.
        """
        removed = []
        for row in self.list_runs():
            if completed_only and not row.state.finished:
                continue
            shutil.rmtree(self.root / row.run_id)
            removed.append(row.run_id)
        return removed
