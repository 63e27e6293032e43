"""Shared fixtures for the fault-injection suite."""

from pathlib import Path

import pytest

from repro.logs.csvio import read_csv
from repro.logs.log import EventLog

CORPUS = Path(__file__).parent / "corpus"

ON_ERROR_MODES = ("raise", "skip", "repair")


@pytest.fixture()
def corpus() -> Path:
    return CORPUS


@pytest.fixture()
def adversarial_pair() -> tuple[EventLog, EventLog]:
    """Two dense, loopy logs whose matching needs real iteration work."""
    first = read_csv(CORPUS / "adversarial_a.csv", name="adv-a")
    second = read_csv(CORPUS / "adversarial_b.csv", name="adv-b")
    return first, second


@pytest.fixture()
def wide_pair() -> tuple[EventLog, EventLog]:
    """Logs with four always-adjacent runs on one side.

    Every greedy round discovers several candidates (fig1 yields a single
    candidate per round), so a fault can single out one candidate of a
    round; with a small delta (0.001) the search accepts four merges
    over five rounds.
    """
    first = EventLog(
        [
            ["A1", "A2", "B1", "B2", "C1", "C2", "D1", "D2"],
            ["B1", "B2", "A1", "A2", "D1", "D2", "C1", "C2"],
            ["C1", "C2", "D1", "D2", "B1", "B2", "A1", "A2"],
            ["D1", "D2", "C1", "C2", "A1", "A2", "B1", "B2"],
        ],
        name="wide-a",
    )
    second = EventLog(
        [
            ["A", "B", "C", "D"],
            ["B", "A", "D", "C"],
            ["C", "D", "B", "A"],
            ["D", "C", "A", "B"],
        ],
        name="wide-b",
    )
    return first, second


@pytest.fixture()
def small_pair() -> tuple[EventLog, EventLog]:
    first = EventLog(
        [["a", "b", "c", "d"]] * 5 + [["a", "c", "b", "d"]] * 3, name="small-a"
    )
    second = EventLog(
        [["w", "x", "y", "z"]] * 5 + [["w", "y", "x", "z"]] * 3, name="small-b"
    )
    return first, second
