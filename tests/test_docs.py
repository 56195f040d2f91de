"""The README's configuration table, step constants and criteria list
against the code they document."""

import re
from pathlib import Path

import pytest

from nslag import stepper
from nslag.cli import main as cli_main
from nslag.harness import _CRITERIA, CONFIG_KEYS, RunConfig, write_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    # the README's text under "## title", up to the next such heading
    return README.read_text(encoding="utf-8").split(
        f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _config_table():
    # [(key, default)] of the rows under "## Configuration"
    section = _section("Configuration")
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows.append((cells[0].strip("`"), cells[1].strip("`")))
    return rows


def test_readme_config_table_matches_defaults(tmp_path):
    """The table lists every config key, in CONFIG_KEYS order, with the
    default write-config writes."""
    path = tmp_path / "defaults.cfg"
    write_config(RunConfig(), str(path))
    written = [tuple(line.split(" = ", 1))
               for line in path.read_text().splitlines()]
    assert [k for k, _ in written] == list(CONFIG_KEYS)
    assert _config_table() == written


def test_readme_step_constants_match_stepper():
    """The "Step size" paragraph states the CFL number, eta, K and the cap
    each as `stepper.NAME = value`, with the value the module holds."""
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("**Step size.**", 1)[1].split("\n\n", 1)[0]
    stated = dict(re.findall(r"stepper\.([A-Z_]+) = ([^`]+)`",
                             paragraph.replace("\n", " ")))
    for name in ("CFL", "VOLUME_CHANGE", "STEP_ERROR", "STEP_CAP"):
        assert float(stated[name]) == getattr(stepper, name), name


def test_readme_criteria_list_matches_suite():
    """The numbered list under "## Acceptance criteria" names every
    criterion of the suite, in order, by its report key."""
    items = re.findall(r"^(\d+)\. `(c\d\d_\w+)`",
                       _section("Acceptance criteria"), re.MULTILINE)
    assert items == [(str(num), f"c{num:02d}_{name}")
                     for num, name, _ in _CRITERIA]


def _help(capsys, argv):
    # what nslag prints for argv ending in --help
    with pytest.raises(SystemExit):
        cli_main([*argv, "--help"])
    return capsys.readouterr().out


def test_readme_command_lines_match_parser(capsys):
    """The block under "## Command line" gives one line per command, and
    each line names every option of its command but -h, and no other."""
    block = _section("Command line").split("```", 2)[1]
    lines = {line.split()[1]: line.partition("#")[0]
             for line in block.splitlines() if line.startswith("nslag ")}
    commands = re.search(r"\{([\w,-]+)\}", _help(capsys, [])).group(1)
    assert sorted(lines) == sorted(commands.split(","))
    flag = r"(?<![\w-])--[a-z][\w-]*"
    for command, line in lines.items():
        options = set(re.findall(flag, _help(capsys, [command])))
        assert set(re.findall(flag, line)) == options - {"--help"}, command
