"""The CLI's exact bytes on a recorded corpus of calls (``tests/data/cli_corpus.json``).

Each entry is replayed in process through ``fracadm.cli.run``, and its exit
code, stdout and stderr must equal the recorded ones, and the file must hold
the script's calls in order.  A change that alters an entry re-records the
file with ``scripts/cli_corpus.py record`` and names the entry.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_corpus.py"
_spec = importlib.util.spec_from_file_location("cli_corpus", _SCRIPT)
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

CORPUS = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))
ENTRIES = CORPUS["entries"]


def _id(entry: dict) -> str:
    text = " ".join(entry["argv"])
    return f"{entry['source']}:{text[:60]}"


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{i:03d}-{_id(e)}" for i, e in enumerate(ENTRIES)])
def test_a_call_gives_its_recorded_bytes(entry):
    got = cli_corpus.run_in_process(entry["argv"])
    assert not cli_corpus.differences(entry, got), (CORPUS["platform"], cli_corpus.this_platform())


def test_the_corpus_covers_every_source():
    sources = {e["source"].split(":")[0] for e in ENTRIES}
    assert sources == {"ci", "dash", "paper_tables", "depth_scan", "deep_generic", "dense_grid"}
    assert len({tuple(e["argv"]) for e in ENTRIES}) == len(ENTRIES)
    assert {e["code"] for e in ENTRIES} == {0, 1, 2}


def test_the_record_is_current():
    # a change to the calls or to LEFT_OUT fails here until the file is re-recorded
    assert [(e["source"], e["argv"]) for e in ENTRIES] == cli_corpus.corpus_argvs()
    assert CORPUS["left_out"] == cli_corpus.LEFT_OUT


def test_an_exact_sum_gives_the_same_bytes_in_either_order():
    # one order of the terms overflows a partial sum; the exact sum, 1e308, decides
    by_ic = {e["argv"][2]: e for e in ENTRIES if e["argv"][:2] == ["solve", "--ic"]}
    first, second = (by_ic[ic] for ic in ("1e308 + 1e308 - 1e308", "1e308 - 1e308 + 1e308"))
    assert (first["code"], first["stdout"], first["stderr"]) == (
        second["code"], second["stdout"], second["stderr"])
    assert first["code"] == 0
