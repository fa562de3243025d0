"""README states the user's contract, and these tests run it: every
`paracomplex ...` line of its fenced blocks goes through `cli.main` with the
JSON examples written under the file names they are given, and must exit as
the line states, give the top-level keys that the Reports table lists for its
command, and print the bytes README shows after it."""

import json
import re
import shlex
from pathlib import Path

import pytest

from paracomplex.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
# (info string, body) of each fenced block
BLOCKS = re.findall(r"^```([^\n]*)\n(.*?)^```$", README, re.M | re.S)
# the usage that --help prints, which test_cli checks and nothing runs
SYNOPSIS = README.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]


def section(title: str) -> str:
    """The text under README's heading title, up to the next heading."""
    return re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#+ |\Z)", README, re.M | re.S)[1]


def json_examples() -> dict:
    """File name -> text of each ```json block, whose info string names its file."""
    return {info.split()[-1]: body for info, body in BLOCKS if info.split()[:1] == ["json"]}


def command_lines() -> list:
    """(line, shown) for each `paracomplex ...` line of a fenced block but the
    synopsis, with a `$ ` prompt or without: shown is the output README gives
    after it, up to the next such line or the block's end, or None."""
    lines = []
    for _, body in BLOCKS:
        if body == SYNOPSIS:
            continue
        for chunk in re.split(r"^(?=(?:\$ )?paracomplex )", body, flags=re.M):
            chunk = chunk.removeprefix("$ ")
            if chunk.startswith("paracomplex "):
                line, _, shown = chunk.partition("\n")
                lines.append((line, shown or None))
    return lines


def report_keys() -> dict:
    """Command -> (the keys its report always has, the keys it has only under a
    condition), from the Reports table: the `key` cells before and after a `;`."""
    table = {}
    for command, cells in re.findall(r"^\| `(\w+)` \| (.*) \|$", section("Reports"), re.M):
        always, _, conditional = cells.partition(";")
        table[command] = ({*re.findall(r"`(\w+)`", always)}, {*re.findall(r"`(\w+)`", conditional)})
    return table


EXAMPLES = command_lines()


def test_readme_has_examples_and_names_each_json_file():
    """Every ```json block names the file the examples read it from, once, and
    is a JSON object; the examples include each command."""
    named = [info.split() for info, _ in BLOCKS if info.startswith("json")]
    assert named and all(len(words) == 2 and words[1].endswith(".json") for words in named)
    assert len({words[1] for words in named}) == len(named)
    assert all(isinstance(json.loads(text), dict) for text in json_examples().values())
    assert {shlex.split(line)[1] for line, _ in EXAMPLES} == set(COMMANDS)


def test_the_reports_table_lists_each_command_once():
    assert list(report_keys()) == list(COMMANDS)


@pytest.mark.parametrize("line,shown", EXAMPLES, ids=[line.split("#")[0].strip() for line, _ in EXAMPLES])
def test_readme_example_runs_as_stated(tmp_path, monkeypatch, capsys, line, shown):
    """The line exits with the code its comment states as `(exit N)`, a report
    has the keys the Reports table lists, an input error is one `error:` line,
    and shown output is printed byte for byte (stdout, then stderr)."""
    for name, text in json_examples().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    stated = re.search(r"#.*\(exit (\d)\)\s*$", line)
    assert stated, f"README states no exit code on {line!r}"
    argv = shlex.split(line, comments=True)
    code = main(argv[1:])
    out, err = capsys.readouterr()
    assert code == int(stated[1]), out + err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        if out.startswith("{"):
            keys = set(json.loads(out))
        else:  # --format text: `label: value` lines, nested labels as a.b and a[i]
            keys = {re.match(r"\w+", label)[0] for label in out.splitlines()}
        always, conditional = report_keys()[argv[1]]
        assert always <= keys <= always | conditional
    if shown is not None:
        assert out + err == shown


def test_the_layout_table_names_every_module_once():
    """README's Layout table has one row of one line for each module of the
    package but __init__ and __main__, and no other row: a new module cannot
    land without its row, and a row cannot outlive its module."""
    rows = [line for line in section("Layout").splitlines() if line.startswith("|")][2:]
    names = [re.fullmatch(r"\| `paracomplex\.(\w+)` \| [^|]+ \|", row)[1] for row in rows]
    modules = [path.stem for path in (ROOT / "src" / "paracomplex").glob("*.py")]
    assert sorted(names) == sorted(set(modules) - {"__init__", "__main__"})
    assert all(len(row) <= 120 for row in rows)
