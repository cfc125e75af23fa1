"""The plain-call reader ``cli._read_args`` against argparse, the reference it must match.

Whenever the reader returns arguments, argparse parses the same argv to the
same ``vars()``; whenever argparse refuses a call or prints help, the reader
has returned None.  The calls the benchmark's jobs and the README make are
read without argparse.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PROPERTY
from quivergauge.cli import _COMMANDS, _build_parser, _read_args, _UsageError


def argparse_vars(argv) -> dict | None:
    """What ``main``'s argparse path makes of ``argv``: its ``vars()``, or None for help or a usage error."""
    command = next((arg for arg in argv if arg != "--stats"), None)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_build_parser(command).parse_args(argv))
    except (_UsageError, SystemExit):
        return None


# The calls of the benchmark's CLI jobs and of the README's examples.
PLAIN = [
    ["info", "doc.quiver", "--group", "GL", "--n", "2"],
    ["info", "doc.quiver", "--json"],
    ["reduce", "doc.quiver", "--json"],
    ["certificate", "doc.quiver", "--json"],
    ["toric", "doc.quiver"],
    ["sample", "doc.quiver", "--group", "SL", "--n", "3", "--seed", "1804289383"],
    ["kn-residual", "doc.quiver", "--rep", "doc.rep.json"],
    ["kn-flow", "doc.quiver", "--rep", "doc.rep.json", "--tol", "0.0001", "--max-iter", "20000"],
    ["kn-flow", "doc.quiver", "--rep", "doc.rep.json", "--tol", "1.0", "--max-iter", "20000"],
    ["retract", "doc.quiver", "--rep", "doc.rep.json", "--t", "0.5"],
    ["info", "examples.quiver", "--group", "SL", "--n", "2"],
    ["collapse", "examples.quiver", "--arrow", "a0"],
    ["pinch", "examples.quiver", "--v1", "v0", "--v2", "v1"],
    ["clip", "examples.quiver", "--arrow", "a0"],
    ["reverse", "examples.quiver", "--arrows", "a0", "a1"],
    ["sample", "examples.quiver", "--group", "GL", "--n", "3", "--seed", "7"],
    ["act", "examples.quiver", "--rep", "rep.json", "--gauge", "gauge.json"],
    ["retract", "examples.quiver", "--rep", "rep.json", "--t", "1.0"],
    ["kn-flow", "examples.quiver", "--rep", "rep.json", "--step", "0.25", "--max-iter", "10000", "--tol", "1e-4"],
    ["witness", "examples.quiver", "--rep", "rep.json", "--vertex", "v0"],
    ["certificate", "examples.quiver"],
    ["rescale", "examples.quiver", "--gauge", "g.json", "--x", "x.json", "--x-prime", "xp.json"],
    ["check-relations", "examples.quiver", "--rep", "rep.json"],
    ["--stats", "info", "examples.quiver"],
]

# Calls that argparse reads, or refuses, and the reader hands back.
HANDED_BACK = [
    [],
    ["--stats"],
    ["--help"],
    ["-h"],
    ["info", "--help"],
    ["info", "doc.quiver", "-h"],
    ["no-such-command", "doc.quiver"],
    ["info"],
    ["info", "doc.quiver", "extra.quiver"],
    ["info", "doc.quiver", "--gr", "GL", "--n", "2"],
    ["sample", "doc.quiver", "--n=3", "--seed", "5"],
    ["sample", "doc.quiver", "--seed", "-1"],
    ["sample", "doc.quiver", "--n", "x"],
    ["sample", "doc.quiver", "--group", "XL"],
    ["info", "doc.quiver", "--json", "--stats"],
    ["--stats", "--stats", "info", "doc.quiver"],
    ["info", "--", "doc.quiver"],
    ["info", "-", "--json"],
    ["toric", "doc.quiver", "--json"],
    ["collapse", "doc.quiver"],
    ["reverse", "doc.quiver", "--arrows"],
    ["reverse", "--arrows", "a0", "doc.quiver"],
    ["collapse", "doc.quiver", "--arrow", "--json"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_calls_are_read_without_argparse(argv):
    args = _read_args(argv)
    assert args is not None
    assert vars(args) == argparse_vars(argv)


@pytest.mark.parametrize("argv", HANDED_BACK, ids=" ".join)
def test_other_calls_are_handed_to_argparse(argv):
    assert _read_args(argv) is None


def _value(keywords):
    """A value for an option: mostly one its type and choices accept, sometimes not."""
    if "choices" in keywords:
        good = st.sampled_from(keywords["choices"])
    elif keywords.get("type") is int:
        good = st.integers(0, 10**6).map(str)
    elif keywords.get("type") is float:
        good = st.floats(0.0, 1e3, allow_nan=False).map(repr)
    else:
        good = st.sampled_from(["a0", "v1", "rep.json", "x y", "a=b", ""])
    bad = st.sampled_from(["-1", "-x", "--json", "x", "1.5", "1e400", "nan", "gl", "--"])
    return st.one_of(*[good] * 8, bad)


@st.composite
def calls(draw):
    """An argv over one command's declarations: its flags in any order, some repeated, and now and then a hand-back form."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _, options, _ = _COMMANDS[command]
    groups = [[draw(st.sampled_from(["doc.quiver", "d", "", "x=y"]))] for _ in range(draw(st.sampled_from([1] * 12 + [0, 2])))]
    for flag, keywords in options:
        for _ in range(draw(st.sampled_from([1] * 6 + [0, 2] if keywords.get("required") else [0, 1, 2]))):
            if keywords.get("action") == "store_true":
                groups.append([flag])
            elif keywords.get("nargs") == "+":
                groups.append([flag, *draw(st.lists(_value(keywords), min_size=draw(st.sampled_from([1] * 6 + [0])), max_size=3))])
            else:
                groups.append([flag, draw(_value(keywords))])
    flags = [flag for flag, _ in options] or ["--json"]
    flag = draw(st.sampled_from(flags))
    odd = [
        ["-h"], ["--help"], ["--"], ["--stats"], ["--no-such-flag"], ["-1"], ["--json"], ["--stat"],
        [flag[: draw(st.integers(3, max(3, len(flag) - 1)))], "1"],
        [f"{flag}=1"],
        [draw(st.sampled_from(sorted(_COMMANDS)))],
    ]
    groups += [draw(st.sampled_from(odd)) for _ in range(draw(st.sampled_from([0] * 6 + [1, 2])))]
    tokens = [token for group in draw(st.permutations(groups)) for token in group]
    head = draw(st.sampled_from([[command]] * 6 + [["--stats", command]] * 2 + [["no-such-command"], []]))
    return head + tokens


@settings(PROPERTY, max_examples=1000)
@given(calls())
@example(["retract", "doc.quiver", "--rep", "a0", "--t", "nan"])
def test_the_reader_matches_argparse(argv):
    args, reference = _read_args(argv), argparse_vars(argv)
    if args is not None:
        # by repr, so that a nan value (``--t nan``) matches itself
        assert {k: repr(v) for k, v in vars(args).items()} == {k: repr(v) for k, v in reference.items()}
    if reference is None:
        assert args is None
