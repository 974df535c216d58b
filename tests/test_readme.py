"""The README's examples run as written."""

import json
import re
import shlex
from fnmatch import fnmatch
from pathlib import Path

from energyseg.cli import main
from energyseg.config import PipelineConfig

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


def test_configuration_block_names_every_option():
    block = re.sub(r"//.*", "", _block("Configuration", "jsonc"))
    documented = {
        name: set(re.findall(r'"(\w+)"\s*:', body))
        for name, body in re.findall(r'^  "(\w+)":(.*?)(?=^  "|^\})', block, re.M | re.S)
    }
    expected = {
        name: set(value) if isinstance(value, dict) else set()
        for name, value in PipelineConfig().to_dict().items()
    }
    assert documented == expected


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
    inventory = json.loads((tmp_path / "runs/demo/report.json").read_text())["files"]
    table = README.read_text(encoding="utf-8").split("## Artifacts", 1)[1].split("\n## ", 1)[0]
    documented = [
        name
        for row in table.splitlines()
        if row.startswith("| `")
        for name in re.findall(r"`([^`]+)`", row.split("|")[1])
    ]
    assert [f for f in inventory if not any(fnmatch(f, name) for name in documented)] == []
