"""The golden corpus: every (config, bound) row of `tests/golden_corpus.txt`
still comes out of `explore` byte for byte, and its witness's trace reads
back as the verdict's trace and choice log.  `tools/golden_corpus.py`
defines the configs and rewrites the file."""

import importlib.util
from pathlib import Path

import pytest

from hilcheck.trace_io import export_trace, read_trace

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "golden_corpus", ROOT / "tools" / "golden_corpus.py")
golden_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_corpus)

PAIRS = golden_corpus.corpus_configs()
ROWS = golden_corpus.CORPUS.read_text(encoding="ascii").splitlines()


def _key(name: str, bound: int) -> str:
    return f"{name} bound={bound}"


def test_corpus_file_has_one_row_per_config_in_order():
    assert [" ".join(row.split()[:2]) for row in ROWS] == \
        [_key(config.name, bound) for config, bound in PAIRS]


@pytest.mark.parametrize("config, bound", PAIRS,
                         ids=[_key(c.name, b).replace(" bound=", "@")
                              for c, b in PAIRS])
def test_corpus_row_is_unchanged(config, bound, tmp_path):
    expected = {" ".join(row.split()[:2]): row for row in ROWS}
    model, verdict = golden_corpus.explored(config, bound)
    assert golden_corpus.corpus_row(config, bound, model, verdict) == \
        expected[_key(config.name, bound)]

    path = tmp_path / "trace.txt"
    export_trace(path, verdict, model, config.name)
    read = read_trace(path, model)
    assert (read.trace, read.choices) == (verdict.trace, verdict.choice_log)
