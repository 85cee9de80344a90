"""README's "Quickstart" commands and "Library use" example run as written,
and the Quickstart shows every subcommand the CLI has."""

import argparse
import re
import runpy
import shlex
from pathlib import Path

from aquagauge.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def quickstart_commands() -> list[list[str]]:
    """Each command line of the Quickstart block, split as a shell would,
    without its trailing comment."""
    section = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    generator, *rest = commands
    assert generator[:2] == ["python", "scripts/generate_station_csv.py"]
    assert runpy.run_path(str(ROOT / generator[1]), run_name="generator")["main"](generator[2:]) == 0
    assert [argv[0] for argv in rest] == ["aquagauge"] * len(rest) and rest
    for argv in rest:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_quickstart_shows_every_subcommand():
    """A subcommand added or deleted without its Quickstart line fails here."""
    subparsers, = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert {argv[1] for argv in quickstart_commands()[1:]} == set(subparsers.choices)


def test_library_use_example_runs(tmp_path, monkeypatch, synthetic_station_csv, capsys):
    # The synthetic fixture, not the five-row one: the example fits a model,
    # which needs stations observed four months apart.
    (tmp_path / "stations.csv").write_text(synthetic_station_csv, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["72", "2000", "(72,", "8)"]
    assert len(printed) == 4
