"""The README's "Library use" examples run as written against the names
`paraslice` exports."""

import ast
import json
import re
from pathlib import Path

import paraslice
from paraslice.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_examples_import_only_exported_names():
    blocks = library_blocks()
    assert len(blocks) == 2
    names = {alias.name for block in blocks
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "paraslice"
             for alias in node.names}
    assert names and names <= set(paraslice.__all__)


def test_analysis_example_runs_on_a_generated_trace(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps({
        "name": "run", "rank_count": 4, "seed": 1,
        "phases": [{"pattern": "ring_exchange", "iterations": 20,
                    "compute": {"kind": "uniform", "mean_ns": 50000},
                    "message_bytes": 64}]}))
    assert main(["generate", "scenario.json", "--out", "run.prv"]) == EXIT_OK
    capsys.readouterr()
    exec(library_blocks()[0], {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 2
    efficiency, *_ = map(float, lines[0].split())
    assert 0 < efficiency <= 1


def test_in_memory_example_runs(capsys):
    namespace = {}
    exec(library_blocks()[1], namespace)
    timeline, replay_log = namespace["timeline"], namespace["replay_log"]
    assert len(timeline.ranks) == 2
    assert replay_log.total == 0
    assert capsys.readouterr().out == "[10 50] [0]\n"
