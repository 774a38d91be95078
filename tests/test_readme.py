"""The README's examples run as written.

The library example runs on the top-level exports, and each ``fcre``
line of the data-file example through ``fcre.cli.main``.
"""

import re
import shlex
from pathlib import Path

from fcre.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def example(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(example("## Library use", "python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.split()  # CSV rows, no blank ones
    assert lines[0].startswith("task,head,acc_avg")
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(task), head] for task in (1, 2, 3) for head in ("ncm", "dri")
    ]


def test_data_file_example_runs(tmp_path, monkeypatch):
    # a `cat > FILE <<'EOF'` line writes the lines up to EOF to FILE
    monkeypatch.chdir(tmp_path)
    lines = iter(example("### Working with data files", "sh").splitlines())
    for line in lines:
        if line.startswith("cat > "):
            body = iter(lines.__next__, "EOF")
            Path(line.split()[2]).write_text("".join(f"{row}\n" for row in body))
        else:
            program, *args = shlex.split(line)
            assert program == "fcre" and main(args) == 0
    (metrics,) = Path("runs_files").rglob("metrics.csv")
    rows = [line.split(",")[:2] for line in metrics.read_text().splitlines()[1:]]
    assert rows == [[str(task), head] for task in range(1, 9) for head in ("ncm", "dri")]
