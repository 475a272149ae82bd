"""README.md's examples run as written, on a smaller corpus: the
Quickstart's pipeline and staged commands, each through cli.main, and the
Library-use block."""

import os
import re
import shlex

import pytest

from ffrg.cli import main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")

# (README text, what it becomes): fewer documents and epochs.  Each README
# text must occur, so that an edit cannot leave a block at full size.
_SHRINK = {
    "bash": (("--n 1000", "--n 12"),
             ("--epochs-step1 3 --epochs-step2 40", "--epochs-step1 1 --epochs-step2 2")),
    "python": (("n_docs=1000", "n_docs=12"),
               ("epochs_step1=3, epochs_step2=40", "epochs_step1=1, epochs_step2=2")),
}


def _readme() -> str:
    with open(README, encoding="utf-8") as f:
        return f.read()


def _block(lang: str, marker: str) -> str:
    """The one README code block in lang that holds marker, shrunk."""
    blocks = [b for b in re.findall(rf"^```{lang}\n(.*?)^```", _readme(), re.M | re.S)
              if marker in b]
    assert len(blocks) == 1, marker
    block = blocks[0]
    for old, new in _SHRINK[lang]:
        assert old in block, old
        block = block.replace(old, new)
    return block


def _run_commands(block: str) -> None:
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[0] == "ffrg", line
        assert main(argv[1:]) == 0, line


def test_quickstart_pipeline_writes_the_files_it_lists(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block = _block("bash", "ffrg pipeline")
    _run_commands(block)
    listed = re.search(r"This writes (.*?) into the work directory", _readme(), re.S).group(1)
    workdir = shlex.split(block.replace("\\\n", " "))[-1]
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(os.listdir(workdir))


def test_quickstart_staged_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _run_commands(_block("bash", "ffrg synth"))
    assert {"report.json", "outcomes.jsonl"} <= set(os.listdir(tmp_path))


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("python", "from ffrg"), "README.md", "exec"), {})
    f1 = float(capsys.readouterr().out)
    assert 0.0 <= f1 <= 1.0
