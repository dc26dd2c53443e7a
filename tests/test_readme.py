"""The README's library example runs as written against the public API, and
its flag list names only options the CLI has."""

import argparse
import pathlib
import re

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
