"""Record the reference results the benchmark checks every run against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload cold at two seeds, requires both to pass their own
checks and to agree (the seed only reorders inputs and curves), and writes
``perfbench/reference/<workload>.json``: per input, the derived (d, k, t),
``all_ordinary`` and the sorted (multiplicity, ordinary) of each point; for
cli-analyze also the report fields derived from them.  Point locations are
left out on purpose: their format is expected to change.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, WORKLOADS, spawn

SEEDS = (1, 2)


def main(argv: list[str]) -> int:
    folder = HERE / "reference"
    folder.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        records = [spawn(["--workload", workload, "--seed", str(seed), "--no-reference"],
                         timeout=600) for seed in SEEDS]
        for seed, record in zip(SEEDS, records):
            if record["failed"]:
                print(f"{workload} seed {seed}: {record['failures']}", file=sys.stderr)
                return 1
        if records[0]["results"] != records[1]["results"]:
            print(f"{workload}: results depend on the seed", file=sys.stderr)
            return 1
        path = folder / f"{workload}.json"
        head = json.dumps({"workload": workload, "recorded": time.strftime("%Y-%m-%d"),
                           "versions": records[0]["versions"]})
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                           for key, value in sorted(records[0]["results"].items()))
        path.write_text(f'{head[:-1]}, "inputs": {{\n{rows}\n}}}}\n', encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}: {len(records[0]['results'])} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
