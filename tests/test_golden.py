"""Every command of the CLI byte corpus (scripts/golden.py) writes today
what tests/golden/cli.json recorded: exit code, stderr and stdout.  Every
command that takes a rate grid writes it again with the grid on schedules'
scalar path, which pytest's loaded numpy would otherwise skip."""

import json
import sys
from pathlib import Path

import pytest

from openecon import schedules

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from golden import COMMANDS, CORPUS, record  # noqa: E402

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))
GRID_ENTRIES = [entry for entry in ENTRIES if entry["argv"][0] == "schedules"
                or any(arg.startswith("--grid") for arg in entry["argv"])]


def test_corpus_holds_every_command():
    assert [entry["argv"] for entry in ENTRIES] == COMMANDS


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_command_output_is_unchanged(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert record(entry["argv"]) == entry


@pytest.mark.parametrize("entry", GRID_ENTRIES,
                         ids=lambda e: " ".join(e["argv"]))
def test_scalar_path_output_is_unchanged(entry, monkeypatch):
    """The pure-Python linspace, the per-point schedules and the writers'
    numpy-free pass give the array path's bytes."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(schedules, "_use_arrays", lambda grid: False)
    assert record(entry["argv"]) == entry


def test_grid_entries_cover_both_commands():
    commands = {entry["argv"][0] for entry in GRID_ENTRIES}
    assert commands == {"schedules", "sweep"}
