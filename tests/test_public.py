import re
import shlex
from pathlib import Path

import tppdepth
import tppdepth.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_public_names():
    text = README.read_text()
    section = text.split("### Public names", 1)[1].split("\n#", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(tppdepth.__all__)
    for name in names:
        assert getattr(tppdepth, name) is not None


def _code_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def test_readme_quick_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tour,) = _code_blocks("python")
    exec(compile(tour, str(README), "exec"), {})


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    # Each documented command, in order, in one directory, through the
    # console script's entry point.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TPPDEPTH_OUT_DIR", raising=False)
    (example,) = [block for block in _code_blocks("sh") if block.startswith("tppdepth ")]
    commands = example.replace("\\\n", " ").splitlines()
    assert len(commands) == 7
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "tppdepth"
        assert cli.main(argv) == 0, command
