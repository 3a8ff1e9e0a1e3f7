"""The CLI process ends at its report's last byte, without interpreter
teardown.  These tests pin what that exit must keep: the exit code of a
report that cannot be written, the DOT file, and no file left open."""

import gc
import json
import os
import subprocess
import sys
import warnings

import pytest

import stratikit
from stratikit import dot, jsonio
from stratikit.cli import COMMANDS, main

from test_reports import JOBS

SRC = os.path.dirname(os.path.dirname(stratikit.__file__))
LINE = {"carrier": ["N", "O", "P"], "pairs": [["O", "N"], ["O", "P"]]}


def run_cli(argv, stdout=subprocess.PIPE, unbuffered=False):
    """One ``python -m stratikit.cli`` process, with ``PYTHONUNBUFFERED`` set
    or unset, and stderr captured."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "stratikit.cli", *argv],
                          stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["corpus", "list"], ["corpus", "run"]], ids=["small", "large"])
def test_a_report_that_cannot_be_written_fails(argv, unbuffered):
    """Unbuffered, the write itself fails (exit 1).  Buffered, a small report
    fails at the flush of interpreter exit (exit 120), and one larger than
    the buffer at its write (exit 1)."""
    with open("/dev/full", "wb") as full:
        proc = run_cli(argv, stdout=full, unbuffered=unbuffered)
    expected = 120 if argv == ["corpus", "list"] and not unbuffered else 1
    assert proc.returncode == expected
    assert b"No space left on device" in proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_the_process_leaves_the_dot_file_whole(tmp_path, unbuffered):
    source = tmp_path / "line.json"
    source.write_text(json.dumps(LINE))
    path = tmp_path / "line.dot"
    proc = run_cli(["topology", "from-preorder", "--full-relation", "--input", str(source),
                    "--dot", str(path)], unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert path.read_text() == dot.preorder_dot(jsonio.load_preorder(LINE), full_relation=True)


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_unwritable_dot_path_is_refused_at_the_option(tmp_path, target):
    source = tmp_path / "line.json"
    source.write_text(json.dumps(LINE))
    path = tmp_path / "missing" / "line.dot" if target == "missing-directory" else tmp_path
    proc = run_cli(["topology", "from-preorder", "--input", str(source), "--dot", str(path)])
    assert (proc.returncode, proc.stderr) == (2, b"")
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error"] and sorted(doc["error"]) == ["message", "path"]
    assert doc["error"]["path"] == "--dot"
    assert doc["error"]["message"].startswith("cannot write DOT file: ")


@pytest.mark.parametrize("job", [
    (["topology", "check"], {"carrier": ["a", "b"], "opens": [["a"], ["b"]]}, 1),
    (["homology", "betti"], {"carrier": ["p", "q"], "pairs": [["p", "q"], ["q", "p"]]}, 2),
    (["topology", "to-preorder"], {"carrier": ["a"], "opens": [[], ["a"]]}, 0),
], ids=["failed-check", "refused", "passed"])
def test_the_process_exits_with_the_code_and_bytes_of_main(tmp_path, capsys, job):
    argv, doc, code = job
    source = tmp_path / "input.json"
    source.write_text(json.dumps(doc))
    argv = [*argv, "--input", str(source)]
    proc = run_cli(argv)
    assert main(argv) == code
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (
        code, capsys.readouterr().out, b"")


def test_no_action_leaves_a_file_open(tmp_path, capsys, monkeypatch):
    """One pinned document per action, each with ``--dot`` where the action
    takes it, run in process with ResourceWarning as an error: a file that
    the CLI opens and does not close would warn when it is collected."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    first = {}
    for argv, doc, code, _ in JOBS:
        first.setdefault(tuple(argv[:2]), (argv, doc, code))
    assert sorted(first) == sorted((group, action) for group, (_, actions) in COMMANDS.items()
                                   for action in actions)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for (group, action), (argv, doc, code) in first.items():
            if doc is not None:
                source = tmp_path / "input.json"
                source.write_text(json.dumps(doc))
                argv = [*argv, "--input", str(source)]
            if "--dot" in COMMANDS[group][1][action][1]:
                argv = [*argv, "--dot", str(tmp_path / "out.dot")]
            assert main(argv) == code
            gc.collect()
    capsys.readouterr()
    assert [hook.exc_value for hook in unraisable] == []
