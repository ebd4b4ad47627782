"""Shared helpers for the workflow suite."""

from __future__ import annotations

import pytest


class FakeClock:
    """A settable time source: lease expiry without sleeping."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def db(tmp_path):
    """Where a test's job store lives."""
    return tmp_path / "jobs.db"
