"""Every report the CLI prints, byte for byte, against recorded output.

`coniclines analyze`, in text and with `--json`, on the files in
tests/data/cli: four of 2 lines and 2 conics with 10-digit coefficients
(points in quadratic and quartic fields), the pencil4, dbe-sharpness and
tangency-demo catalog exports, the extended-chilean type export and the
point-free arrangement of one line.  The recorded reports hold point
locations and their order, so a change in how points are computed,
normalized or displayed shows here.  Each is recorded in NAME.FORMAT.out.

The other commands, recorded as stdout in NAME.out and, when there is any,
stderr in NAME.err, with their exit codes in ``COMMANDS``:

    catalog show klein
    catalog show pencil4
    check hirzebruch dbe-sharpness.txt
    check hirzebruch extended-chilean.txt
    analyze --strict tangency-demo.txt      (exit 3)
    analyze huge-root.txt                   (roots of modulus about 1.4e25)
    analyze tiny-root.txt                   (y = +-1.6e-40 +- 1.6e-40 i)

Re-record every command (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from coniclines.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"
INPUTS = ("big-0", "big-1", "big-2", "big-3", "pencil4", "dbe-sharpness", "tangency-demo",
          "extended-chilean", "point-free")
FORMATS = {"json": ["--json"], "text": []}
COMMANDS = {
    "klein.show": (["catalog", "show", "klein"], 0),
    "pencil4.show": (["catalog", "show", "pencil4"], 0),
    "dbe-sharpness.check-hirzebruch": (["check", "hirzebruch", "dbe-sharpness.txt"], 0),
    "extended-chilean.check-hirzebruch": (["check", "hirzebruch", "extended-chilean.txt"], 0),
    "tangency-demo.strict": (["analyze", "--strict", "tangency-demo.txt"], 3),
    "huge-root.text": (["analyze", "huge-root.txt"], 0),
    "tiny-root.text": (["analyze", "tiny-root.txt"], 0),
}


def run(args: list[str]):
    """`coniclines ARGS`, run in the data directory so a report's source
    field is the bare file name."""
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        return CliRunner().invoke(main, args)
    finally:
        os.chdir(cwd)


def analyze_output(name: str, fmt: str) -> str:
    """stdout of `coniclines analyze NAME.txt`."""
    result = run(["analyze", f"{name}.txt", *FORMATS[fmt]])
    if result.exit_code != 0:
        raise RuntimeError(f"analyze {name}.txt exited {result.exit_code}: {result.output}")
    return result.output


def command_output(name: str) -> tuple[str, str]:
    """stdout and stderr of the command ``COMMANDS[name]``, which must exit
    with its recorded code."""
    args, code = COMMANDS[name]
    result = run(args)
    if result.exit_code != code:
        raise RuntimeError(f"{' '.join(args)} exited {result.exit_code}, not {code}: "
                           f"{result.output}")
    return result.stdout, result.stderr


def recorded_stderr(name: str) -> bytes:
    err = DATA / f"{name}.err"
    return err.read_bytes() if err.exists() else b""


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", INPUTS)
def test_analyze_output_matches_recording(name, fmt):
    expected = (DATA / f"{name}.{fmt}.out").read_bytes()
    assert analyze_output(name, fmt).encode("utf-8") == expected


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_recording(name):
    stdout, stderr = command_output(name)
    assert stdout.encode("utf-8") == (DATA / f"{name}.out").read_bytes()
    assert stderr.encode("utf-8") == recorded_stderr(name)


if __name__ == "__main__":
    for name in INPUTS:
        for fmt in FORMATS:
            (DATA / f"{name}.{fmt}.out").write_bytes(analyze_output(name, fmt).encode("utf-8"))
    for name in COMMANDS:
        stdout, stderr = command_output(name)
        (DATA / f"{name}.out").write_bytes(stdout.encode("utf-8"))
        err = DATA / f"{name}.err"
        if stderr:
            err.write_bytes(stderr.encode("utf-8"))
        elif err.exists():
            err.unlink()
    sys.exit(0)
