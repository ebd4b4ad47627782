"""The CLI's flag surface, pinned.

Every subcommand and service action, each action's option strings,
dest, default, choices, nargs and required, in parse order, against
``cli_flags.json``. The table was recorded before the commands' layer
logic moved behind the layers; the one difference that move made is
``--space`` gaining its choices. A command that adds, drops or changes
a flag re-records the table on purpose::

    PYTHONPATH=src python tests/test_cli_flags.py > tests/cli_flags.json
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

PINNED = Path(__file__).with_name("cli_flags.json")


def flag_surface(parser, prefix=()):
    """``{"cmd [action]": [[options, dest, default, choices, nargs,
    required], ...]}`` of every subcommand under ``parser``."""
    table = {}
    for group in parser._actions:
        if not isinstance(group, argparse._SubParsersAction):
            continue
        for name, command in group.choices.items():
            path = prefix + (name,)
            table[" ".join(path)] = [
                [action.option_strings, action.dest, action.default,
                 list(action.choices) if action.choices else None,
                 action.nargs, action.required]
                for action in command._actions
                if not isinstance(action, (argparse._HelpAction,
                                           argparse._SubParsersAction))
            ]
            table.update(flag_surface(command, path))
    return table


def render(table):
    """The pinned file's layout: one line per flag."""
    commands = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(
            f"    {json.dumps(row)}" for row in rows) + "\n  ]"
        for name, rows in sorted(table.items()))
    return "{\n" + commands + "\n}\n"


def test_the_flag_surface_is_the_pinned_one():
    assert flag_surface(build_parser()) == json.loads(PINNED.read_text())


if __name__ == "__main__":
    print(render(flag_surface(build_parser())), end="")
