"""The README against the code: the spec kinds, the builtin scenarios and the options.

Each table row is parsed into the backquoted names of its cells, and the
options are the backquoted ``--`` names of the "Command line" section, so
the prose around them may change freely; a kind, key, scenario or option
that the code and the README do not both list fails here.
"""

import os
import re

import wedgemech.cli as cli
from wedgemech.scenarios import _KINDS, scenario_names

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(_README, encoding="utf-8") as handle:
        return handle.read()


def _table(header: str) -> list:
    """The rows under the README table whose header line starts with ``header``, each
    as the list of its cells' backquoted names."""
    lines = _readme().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:  # past the header and its --- row
        if not line.startswith("|"):
            break
        cells = line.strip().strip("|").split("|")
        rows.append([re.findall(r"`([^`]+)`", cell) for cell in cells])
    return rows


def test_readme_kind_table_is_the_code_kind_table():
    rows = _table("| kind | command | keys it reads |")
    readme = {kind[0]: (command[0], keys) for kind, command, keys in rows}
    code = {kind: (command, keys.split()) for kind, (command, _, keys) in _KINDS.items()}
    assert readme == code


def test_readme_command_line_options_are_the_parsers():
    # a new option needs its README line, so it shows in the diff of this section
    section = _readme().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    readme = set(re.findall(r"`(--[a-z-]+)[^`]*`", re.sub(r"```.*?```", "", section, flags=re.S)))
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    code = {option for parser in sub.choices.values() for action in parser._actions
            if action.dest != "help" for option in action.option_strings}
    assert readme == code


def test_readme_scenario_table_is_the_code_scenario_table():
    rows = _table("| command | passing | failing by design |")
    readme = {command[0]: (set(passing), set(failing)) for command, passing, failing in rows}
    code = {}
    for command in cli.COMMANDS:
        verdicts = {}
        for name in scenario_names(command):
            with open(os.path.join(cli._GOLDEN_DIR, f"{name}.txt"), encoding="ascii") as handle:
                verdicts[name] = handle.read().endswith("result: PASS\n")
        code[command] = ({n for n, ok in verdicts.items() if ok},
                         {n for n, ok in verdicts.items() if not ok})
    assert readme == code
