"""Replay the same-results corpus under `tests/golden/` (see `golden_corpus.py`)."""

import json

import pytest

from golden_corpus import FILES, GOLDEN, as_json


@pytest.mark.parametrize("file_name", sorted(FILES))
def test_replay_matches_the_corpus(file_name):
    recorded = json.loads((GOLDEN / file_name).read_text(encoding="utf-8"))
    replayed = json.loads(as_json(FILES[file_name]()))
    assert replayed.keys() == recorded.keys()
    for key, value in recorded.items():
        assert replayed[key] == value, key
