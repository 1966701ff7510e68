"""Byte-identical CLI output: every call of the recorded corpus
(`record_corpus.py`, `cli_corpus.json`) gives the exit code, stdout,
stderr and output file it gave when recorded.  A change that moves any
of them on purpose re-records the corpus and says which calls moved."""

import json

import pytest

from record_corpus import CALLS, CORPUS, measure

RECORDED = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("call", CALLS)
def test_call_matches_recording(call):
    assert measure(call) == RECORDED[call]
