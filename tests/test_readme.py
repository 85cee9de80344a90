"""README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, synthetic_station_csv, capsys):
    # The synthetic fixture, not the five-row one: the example fits a model,
    # which needs stations observed four months apart.
    (tmp_path / "stations.csv").write_text(synthetic_station_csv, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["72", "2000", "(72,", "8)"]
    assert len(printed) == 4
