"""`coniclines analyze` output, byte for byte, against recorded reports.

The inputs in tests/data/cli are four files of 2 lines and 2 conics with
10-digit coefficients (points in quadratic and quartic fields) and the
pencil4, dbe-sharpness and tangency-demo catalog exports.  The recorded
`--json` and text reports hold point locations and their order, so a
change in how points are computed, normalized or displayed shows here.

Re-record (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from coniclines.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli"
INPUTS = ("big-0", "big-1", "big-2", "big-3", "pencil4", "dbe-sharpness", "tangency-demo")
FORMATS = {"json": ["--json"], "text": []}


def analyze_output(name: str, fmt: str) -> str:
    """stdout of `coniclines analyze NAME.txt`, run in the data directory so
    the report's source field is the bare file name."""
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        result = CliRunner().invoke(main, ["analyze", f"{name}.txt", *FORMATS[fmt]])
    finally:
        os.chdir(cwd)
    if result.exit_code != 0:
        raise RuntimeError(f"analyze {name}.txt exited {result.exit_code}: {result.output}")
    return result.output


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", INPUTS)
def test_analyze_output_matches_recording(name, fmt):
    expected = (DATA / f"{name}.{fmt}.out").read_bytes()
    assert analyze_output(name, fmt).encode("utf-8") == expected


if __name__ == "__main__":
    for name in INPUTS:
        for fmt in FORMATS:
            (DATA / f"{name}.{fmt}.out").write_bytes(analyze_output(name, fmt).encode("utf-8"))
    sys.exit(0)
