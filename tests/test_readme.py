"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from energyseg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert block, f"no {language} block under '## {heading}'"
    return block.group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(_block("Library use", "python"), namespace)
    assert len(namespace["graph"].vertex_names) == 4


def test_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in _block("Quick start", "sh").splitlines()
        if line.startswith("energyseg ")
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = Path(argv[argv.index("--out") + 1])
        assert (out / "config.json").is_file(), argv
    assert {argv[1] for argv in commands} == {
        "synth", "ingest", "segment", "glasso", "causality", "report",
    }
    assert (tmp_path / "runs/demo/report.json").is_file()
