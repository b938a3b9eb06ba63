"""A recorded transcript of the command line: for each call in CALLS, its exit
code, stdout and stderr, byte for byte, as stored in cli_transcript.json.

The calls cover the key: value commands (validate, radical, lift-idem,
ed nil-dim, ed partitions) in text and --json mode on algebras with a zero
and a nonzero radical, every gen kind, the JSON argument errors of lift-idem,
the --assert-index errors of ed algebra, and each branch of the ed formula
commands and of ed algebra's per-factor index. argparse's own usage and help
text is left out: it differs between Python versions, and
TestParserPerCommand in test_cli.py covers it.

Calls run in-process in a directory holding the algebra files, so file names
in messages are relative. To record the transcript anew (only at a commit
whose output is known to be right):

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qalg.algebra import dual_numbers, matrix_algebra, quaternions, upper_triangular
from qalg.cli import main

RECORD = Path(__file__).resolve().parent / "cli_transcript.json"

FILES = {
    "m2.json": lambda: matrix_algebra(2),
    "ut2.json": lambda: upper_triangular(2),
    "ut3.json": lambda: upper_triangular(3),
    "dual.json": dual_numbers,
    "quat.json": lambda: quaternions(-1, -1),
}


def _both(*argv):
    """The call in text mode and in --json mode; --json goes before a "--"."""
    at = argv.index("--") if "--" in argv else len(argv)
    return [list(argv), [*argv[:at], "--json", *argv[at:]]]


def _calls():
    calls = []
    for path in ("m2.json", "ut3.json"):
        calls += _both("validate", path) + _both("radical", path) + _both("wedderburn", path)
    calls += _both("lift-idem", "ut2.json", "--idempotent", "[1,1,1]", "--ideal", "[[0,1,0]]")
    calls += _both("lift-idem", "m2.json", "--idempotent", "[1,0,0,0]", "--ideal", "[]")
    calls += _both("lift-idem", "dual.json", "--idempotent", '["1","1/2"]', "--ideal", '[["0","1/3"]]')
    for idempotent, ideal in (
        ("[1,0", "[[0,1]]"),
        ("[1,0]", "[[0,1]"),
        ("[1,0]", "{}"),
        ("[1,0]", "[1]"),
        ("[1,0]", "[[0,1],[0]]"),
        ("{}", "[[0,1]]"),
        ("[1,0,0]", "[[0,1]]"),
        ("[0.5,0]", "[[0,1]]"),
        ("[true,false]", "[[0,1]]"),
        ("[null,0]", "[[0,1]]"),
        ('["x",0.5]', "[[0,1]]"),
        ('[0.5,"x"]', "[[0,1]]"),
        ('["1/0",0]', "[[0,1]]"),
        ("[1,0]", '[["0","y"]]'),
        ("[2,0]", "[[0,1]]"),
        ("[1,0]", "[[1,0],[0,1]]"),
    ):
        calls += _both("lift-idem", "dual.json", "--idempotent", idempotent, "--ideal", ideal)
    calls += _both("lift-idem", "m2.json", "--idempotent", "[1,0,0,0]", "--ideal", "[[1,0,0,0]]")
    calls += _both("ed", "nil-dim", "--genus", "2", "--partition", "2,1")
    calls += _both("ed", "nil-dim", "--genus", "3", "--partition", "1,1,2")
    calls += _both("ed", "nil-dim", "--genus", "2", "--partition", "a,b")
    calls += _both("ed", "partitions", "--rank", "5")
    calls += _both("ed", "partitions", "--rank", "2")
    calls += _both("ed", "partitions", "--rank", "31")
    calls += _both("ed", "partitions", "--rank", "1")
    for kind in (
        ["matrix", "2"],
        ["upper-triangular", "2"],
        ["dual-numbers"],
        ["quaternions", "--", "-1", "-1"],
        ["quaternions", "1/2", "3"],
        ["group", "c3"],
        ["group", "c2xc2"],
        ["group", "s3"],
        ["fixture", "product-q-dual"],
    ):
        calls += _both("gen", *kind)
    for kind in (
        ["matrix", "0"],
        ["upper-triangular", "0"],
        ["quaternions", "x", "y"],
        ["quaternions", "1", "y"],
        ["quaternions", "0", "1"],
        ["group", "d4"],
        ["group", "c0"],
        ["group", "c2xc0"],
        ["fixture", "nope"],
    ):
        calls += _both("gen", *kind)
    calls += _both("ed", "algebra", "m2.json", "--d", "2")
    calls += _both("ed", "algebra", "quat.json", "--d", "2")
    for index in (
        ["x"],
        ["0:1", "1:1", "0:2"],
        ["0:2", "0:2"],
        ["9:2"],
        ["0:2", "3:1", "2:1"],
    ):
        flags = [arg for spec in index for arg in ("--assert-index", spec)]
        calls += _both("ed", "algebra", "m2.json", "--d", "2", *flags)
        calls += _both("ed", "algebra", "quat.json", "--d", "2", *flags)
    # an index below 1 is a flag error, found before the file is read
    for path in ("m2.json", "missing.json"):
        calls += _both("ed", "algebra", path, "--d", "2", "--assert-index", "0:0")
    calls += _both("ed", "csa", "--deg", "6", "--rank", "1/6")
    calls += _both("ed", "division", "--deg", "6", "--d", "4")
    calls += _both("ed", "karpenko", "--p", "2", "--n", "2", "--m", "1")
    calls += _both("ed", "ckm", "--deg", "12")
    calls += _both("ed", "bundle", "--genus", "2", "--rank", "2", "--degree", "0")
    calls += _both("validate", "missing.json")
    # every branch of the formula commands and of the per-factor index in
    # ed algebra: minus infinity, out-of-range values, rank overrides and
    # asserted indices that hold, conflict or do not divide the degree
    for rank in ("1/4", "1"):
        calls += _both("ed", "csa", "--deg", "6", "--rank", rank)
    calls += _both("ed", "csa", "--deg", "0", "--rank", "1/2")
    calls += _both("ed", "division", "--deg", "6", "--d", "3")
    calls += _both("ed", "karpenko", "--p", "4", "--n", "2", "--m", "1")
    calls += _both("ed", "karpenko", "--p", "3", "--n", "2", "--m", "3")
    for deg in ("0", "1"):
        calls += _both("ed", "ckm", "--deg", deg)
    for genus in ("0", "1"):
        calls += _both("ed", "bundle", "--genus", genus, "--rank", "3", "--degree", "1")
    calls += _both("ed", "bundle", "--genus", "3", "--rank", "4", "--degree", "6", "--assume-ckm")
    calls += _both("ed", "bundle", "--genus", "-1", "--rank", "2", "--degree", "0")
    for rank in ("2", "1/3"):
        calls += _both("ed", "algebra", "m2.json", "--d", "2", "--rank", rank)
    calls += _both("ed", "algebra", "quat.json", "--d", "2", "--assert-index", "0:2")
    for spec in ("0:2", "0:3"):
        calls += _both("ed", "algebra", "m2.json", "--d", "2", "--assert-index", spec)
    # an exact value past Python's 4300-digit cap on int-to-str conversion
    calls += _both("ed", "karpenko", "--p", "2", "--n", "7200", "--m", "1")
    return calls


CALLS = _calls()


def call_id(argv) -> str:
    return " ".join(argv)


def write_files(directory: Path) -> None:
    for name, build in FILES.items():
        (directory / name).write_text(json.dumps(build().to_json_dict()))


def transcript(argv) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


@pytest.fixture
def algebra_files(tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)


def test_every_call_is_recorded(recorded):
    assert list(recorded) == [call_id(argv) for argv in CALLS]


@pytest.mark.parametrize("argv", CALLS, ids=call_id)
def test_call_matches_its_record(recorded, algebra_files, argv):
    assert transcript(argv) == recorded[call_id(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_files(Path(directory))
        os.chdir(directory)
        record = {call_id(argv): transcript(argv) for argv in CALLS}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
