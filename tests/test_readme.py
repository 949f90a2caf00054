"""The README's examples, run as written, so a public-API change that breaks
the docs fails the suite."""

from pathlib import Path

import pytest

from eolsec.cli import EXIT_OK, main

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text()


@pytest.mark.slow
def test_library_quick_start_runs(capsys):
    section = README.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "MetricEstimate(" in capsys.readouterr().out


def test_validate_prints_the_quoted_line(monkeypatch, capsys):
    command = "$ eolsec validate --config configs/small_link_analytic.yaml\n"
    quoted = README.split(command, 1)[1].splitlines()[0]
    monkeypatch.chdir(ROOT)
    assert main(command.split()[2:]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [quoted]
