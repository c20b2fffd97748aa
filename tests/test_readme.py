"""README's Library example runs as written and prints what its comments
say, so a rename in the package cannot leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_prints_its_comments(capsys):
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert printed
    assert capsys.readouterr().out.splitlines() == printed
