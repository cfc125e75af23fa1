"""The process entry ``run()`` against the in-process ``main()``, and unwritable stdout."""

import json
import os
import sys
from pathlib import Path

import pytest

from conftest import python, tree_plus_extras
from quivergauge import document_for, print_document
from quivergauge.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
THETA = str(FIXTURES / "theta.quiver")

# name -> (exit code, argv)
CASES = {
    "ok": (0, ["info", THETA, "--group", "GL", "--n", "2"]),
    "json": (0, ["reduce", str(FIXTURES / "comet.quiver"), "--json"]),
    "numeric": (0, ["sample", THETA, "--group", "SL", "--n", "3", "--seed", "5"]),
    "usage": (1, ["info", str(FIXTURES / "no_such.quiver")]),
    "bad-option": (1, ["toric", THETA, "--json"]),
    "unknown-command": (1, ["no-such-command", THETA]),
    "parse": (2, ["info", str(FIXTURES / "comet.reduce.json")]),
    "precondition": (3, ["collapse", str(FIXTURES / "one_loop.quiver"), "--arrow", "l0"]),
    "help": (0, ["--help"]),
    "command-help": (0, ["kn-flow", "--help"]),
    # forms the plain-call reader hands to argparse
    "abbreviated-flag": (0, ["info", THETA, "--gr", "GL", "--n", "2"]),
    "equals-form": (0, ["sample", THETA, "--n=3", "--seed", "5"]),
    "negative-value": (1, ["sample", THETA, "--seed", "-1"]),
    "stats-after-command": (1, ["info", THETA, "--json", "--stats"]),
    # a list flag the reader takes
    "list-flag": (0, ["reverse", THETA, "--arrows", "a0", "a2"]),
}


def in_process(capsys, argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def environment(monkeypatch):
    # argparse wraps help text to the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    # the child's stdout is block-buffered, so an output that run() did not flush goes missing
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)


@pytest.mark.parametrize("expected, argv", CASES.values(), ids=CASES.keys())
def test_process_entry_matches_main(capsys, expected, argv):
    code, out, err = in_process(capsys, argv)
    assert code == expected
    done = python("-m", "quivergauge.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_stats_from_the_process_entry(capsys):
    argv = ["--stats", "toric", str(FIXTURES / "double_arrow_weighted.quiver")]
    code, out, err = in_process(capsys, argv)
    done = python("-m", "quivergauge.cli", *argv)
    assert code == 0 and (done.returncode, done.stdout) == (code, out)
    # the timings differ from run to run; the keys and sizes do not
    entry, inline = json.loads(done.stderr), json.loads(err)
    assert set(entry) == set(inline)
    assert [entry[k] for k in ("V", "A", "n")] == [inline[k] for k in ("V", "A", "n")] == [2, 2, None]


def test_a_megabyte_of_output_arrives_whole(capsys, tmp_path):
    doc = tmp_path / "tree400.quiver"
    doc.write_text(print_document(document_for(tree_plus_extras(400, 840, 3))))
    code, out, _ = in_process(capsys, ["toric", str(doc)])
    assert code == 0 and len(out) > 1_000_000
    target = tmp_path / "basis.json"
    with open(target, "w") as fh:
        done = python("-m", "quivergauge.cli", "toric", str(doc), stdout=fh)
    assert (done.returncode, done.stderr) == (0, "")
    assert target.read_bytes() == out.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_gives_one_error_line():
    with open("/dev/full", "w") as full:
        done = python("-m", "quivergauge.cli", "info", THETA, stdout=full)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(sys.platform == "win32", reason="closes descriptor 1 in the child")
def test_closed_stdout_gives_one_error_line():
    done = python("-m", "quivergauge.cli", "info", THETA, stdout=None, preexec_fn=lambda: os.close(1))
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: stdout is closed\n"


def test_unwritable_stream_in_process(capsys, monkeypatch):
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["info", THETA]) == 1
    assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["info", THETA]) == 1
    assert capsys.readouterr().err == "error: cannot write output: stdout is closed\n"
