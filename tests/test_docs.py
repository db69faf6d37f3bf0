"""The README's tables against the code's: the spec kinds and the builtin scenarios.

Each table row is parsed into the backquoted names of its cells, so the
prose around them may change freely; a kind, key, option target or
scenario that the code and the README do not both list fails here.
"""

import os
import re

import wedgemech.cli as cli
from wedgemech.scenarios import _KINDS, scenario_names

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _table(header: str) -> list:
    """The rows under the README table whose header line starts with ``header``, each
    as the list of its cells' backquoted names."""
    with open(_README, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
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
    readme = {kind[0]: (command[0], keys, tol, max_iter)
              for kind, command, keys, tol, max_iter in rows}
    code = {kind: (command, keys.split(), tol.split(), max_iter.split())
            for kind, (command, _, keys, tol, max_iter) in _KINDS.items()}
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
