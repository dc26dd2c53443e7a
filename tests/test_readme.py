"""The README's library example runs as written against the public API, its
flag list names only options the CLI has, and its command examples parse."""

import argparse
import pathlib
import re
import shlex

import pytest

from entrace.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "samples" in capsys.readouterr().out


def test_entropy_flag_list_names_only_entropy_options():
    # the bullet list that follows the heading, up to its first blank line
    text = README.read_text()
    flag_list = text[text.index("Useful flags for `entropy`:\n\n"):].split("\n\n")[1]
    documented = set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", flag_list))
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["entropy"]._actions for s in a.option_strings}
    assert {"-n", "--degree", "--gamma0"} <= documented
    assert documented <= options, documented - options


def _cli_examples(text):
    """The ``entrace`` argument lists of the ``sh`` blocks in ``text``."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, flags=re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("entrace ")]


def test_command_examples_parse():
    # parsing opens no file: --input and -o are only strings here
    examples = _cli_examples(README.read_text())
    assert {argv[0] for argv in examples} == {"entropy", "oracle", "generate", "table1"}
    for argv in examples:
        build_parser().parse_args(argv)


def test_an_example_with_a_gone_flag_fails(capsys):
    (argv,) = _cli_examples("```sh\nentrace entropy --generate fem:10 --x0 2\n```\n")
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "unrecognized arguments: --x0" in capsys.readouterr().err
