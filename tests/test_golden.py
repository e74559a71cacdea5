"""Every command of the CLI byte corpus (scripts/golden.py) writes today
what tests/golden/cli.json recorded: exit code, stderr and stdout."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from golden import COMMANDS, CORPUS, record  # noqa: E402

ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_command():
    assert [entry["argv"] for entry in ENTRIES] == COMMANDS


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_command_output_is_unchanged(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert record(entry["argv"]) == entry
