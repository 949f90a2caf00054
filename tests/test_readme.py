"""The README's examples, run as written, so a public-API change that breaks
the docs fails the suite."""

import copy
import re
from pathlib import Path

import pytest
import yaml

from eolsec.cli import EXIT_OK, main
from eolsec.experiment import ConfigError, cell_specs, load_config

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


def _known_keys(path: Path, doc: dict, section: str) -> list[str]:
    """The keys the loader knows in one section, read off its unknown-field message."""
    probe = copy.deepcopy(doc)
    (probe[section] if section else probe)["no_such_key"] = 0
    path.write_text(yaml.safe_dump(probe))
    with pytest.raises(ConfigError) as error:
        load_config(path)
    where = f"{section}.no_such_key" if section else "no_such_key"
    found = re.fullmatch(rf"unknown field {re.escape(where)} \(known: (.*)\)", str(error.value))
    assert found, str(error.value)
    return found.group(1).split(", ")


def test_schema_block_matches_the_loader(tmp_path):
    block = README.split("### Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    doc = yaml.safe_load(block)
    doc["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "readme.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(path)
    specs, _ = cell_specs(cfg)
    sweep = doc["sweep"]
    assert len(specs) == (len(sweep["variants"]) * len(doc["traffic"]["loads"])
                          * len(sweep["randomization_rates"]) * len(sweep["reconfig_rates"]))
    # a commented-out "# key: value" line documents an alternative key
    documented = yaml.safe_load(re.sub(r"^( *)# (\w+):", r"\1\2:", block, flags=re.M))
    for section in ("", "profile", "traffic", "sweep", "sim", "output"):
        keys = list(documented[section] if section else documented)
        assert keys == _known_keys(tmp_path / "probe.yaml", doc, section), section or "root"
