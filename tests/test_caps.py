"""The cap ladder's table (``tests/caps.py``), checked without building any
document or starting any process: a renamed action or option fails here, not
only when the ladder runs."""

import os

import pytest

import caps
from stratikit import cli


@pytest.mark.parametrize("rung", caps.RUNGS, ids=lambda rung: rung.name)
def test_rung_command_line_parses(rung):
    group, args = cli.parse_args(caps.cli_args(rung, "input.json"))
    assert (group, args.action) == rung.argv[:2]
    assert rung.mode in ("file", "stdin", "missing")
    assert (rung.make is None) == (rung.mode == "missing")
    # a DOT file lands in the runner's temporary directory
    assert not os.path.isabs(getattr(args, "dot", None) or "")


def test_rung_names_are_unique():
    names = [rung.name for rung in caps.RUNGS]
    assert len(set(names)) == len(names)
