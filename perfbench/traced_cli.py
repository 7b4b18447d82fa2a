"""Run the coniclines CLI with its layers traced.

    python3 perfbench/traced_cli.py SPANS.jsonl FILE_ID <coniclines arguments>

Writes the spans of this process to SPANS.jsonl, and the wrapped layers and
counts to the matching ``.meta.json``, even when the command exits non-zero.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> None:
    spans_path, file_id, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer(time.monotonic)
    wrapped = layers.install(tracer)
    tracer.arrangement = file_id
    from coniclines import cli
    try:
        tracer.wrap(cli.main.main, "cli.main")(args=argv, prog_name="coniclines")
    finally:
        tracer.write(spans_path)
        spans_path.with_suffix(".meta.json").write_text(json.dumps(
            {"wrapped": wrapped, "counters": dict(tracer.counters)}))


if __name__ == "__main__":
    main()
