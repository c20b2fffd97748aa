"""The golden corpus: every (config, bound) row of `tests/golden_corpus.txt`
still comes out of `explore` byte for byte, and its witness's trace reads
back as the verdict's trace and choice log.  `tools/golden_corpus.py`
defines the configs and rewrites the file.  Each row is explored at a
ceiling of its `paths=` count, so a search that would not end fails."""

import re
from pathlib import Path

import pytest

from hilcheck.trace_io import export_trace, read_trace

from _helpers import load

ROOT = Path(__file__).resolve().parents[1]
golden_corpus = load("golden_corpus", ROOT / "tools" / "golden_corpus.py")

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
    row = expected[_key(config.name, bound)]
    paths = int(re.search(r" paths=(\d+) ", row)[1])
    model, verdict = golden_corpus.explored(config, bound, paths)
    assert golden_corpus.corpus_row(config, bound, model, verdict) == row

    path = tmp_path / "trace.txt"
    export_trace(path, verdict, model, config.name)
    read = read_trace(path, model)
    assert (read.trace, read.choices) == (verdict.trace, verdict.choice_log)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2),
                                        (["a", "b"], 2)],
                         ids=["help", "unknown option", "two paths"])
def test_the_tool_writes_nothing_for_help_or_a_usage_error(argv, code,
                                                           tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        golden_corpus.main(argv)
    assert exc.value.code == code
    assert list(tmp_path.iterdir()) == []
