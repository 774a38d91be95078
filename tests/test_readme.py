"""The README's library example runs as written, on the top-level exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.split()  # CSV rows, no blank ones
    assert lines[0].startswith("task,head,acc_avg")
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(task), head] for task in (1, 2, 3) for head in ("ncm", "dri")
    ]
