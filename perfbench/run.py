"""Benchmark of the exact conic-line engine, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  A pass runs the workload's whole corpus
once, in a fresh interpreter (worker.py): never a warm repeat in one
process, because sympy's CRootOf cache survives ``clear_cache()`` and a
warm repeat looks about ten times faster; the worker also empties the caches
before each input.  Workers run one at a time.  Passes run while a new one
is expected to end within S seconds of the first; there is always at least
one.  On the engine workloads, sample workers then run only the inputs
ranked within MIDDLE of the median of the first pass, until each of those
has SAMPLES latencies: the time of one arrangement spreads by up to 1.7x
from one process to the next on a shared host, so its latency is the median
over several processes.  Set-up time is sampled by every worker and by
SETUP_PROBES workers that stop after generating their inputs.

With ``--trace 0`` the end-to-end metrics are printed:

  setup_s      interpreter start to the first engine call: imports and input
               generation (median over probes and passes)
  wall_s       first engine call to the last checked result of a full pass
               (median over passes)
  arr_p50_s    median over the inputs of an input's latency, which is the
               median of its CPU times over passes and sample workers
               (cli-analyze: CPU time of one file's process, spawn to exit)
  peak_rss_mb  peak resident memory of the workload process (median)

With ``--trace 1`` one untraced pass runs first, then traced passes, and the
per-layer metrics are printed: calls, inclusive and self seconds per layer,
and counts taken at the layers.  ``trace.overhead_s`` is the traced wall_s
minus the untraced one.  The spans are written to ``perfbench/out``.

Every metric is printed as ``name value unit``, then the run's Python and
sympy versions and core count, and last one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failure share.  An arrangement fails on any exception, a non-zero exit code,
a type or ordinarity flag that differs from the reference or the known
answer, or a Bezout defect on an all-ordinary result.  The exit code is 1 if
any arrangement failed and 2 if the package or a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import OUT, SRC, package_env  # noqa: E402

WORKLOADS = ("mixed-irrational", "rational-incidence", "cli-analyze")
SETUP_PROBES = 3
SAMPLES = 5
MIDDLE = 2
DEADLINE_S = 165  # every pass must have ended by then

# Which end-to-end metric each layer should move, on which workload:
#   cluster_points, refine_box, alg_equal, same_point, sympy.eval_rational
#       -> wall_s and arr_p50_s on mixed-irrational (about 80% of its wall);
#          about 0 on rational-incidence, whose points need no refinement
#   pair.line_line/line_conic/conic_conic, resultant, isolate_roots,
#   sympy.factor_list, sympy.all_roots
#       -> wall_s on rational-incidence (most of it) and mixed-irrational (~20%)
#   parse_arrangement, has_six_line_subarrangement, invariants.analyze,
#   invariants.render, point_repr, sympy.N, cli.process (interpreter start
#   and imports of each CLI run) -> arr_p50_s on cli-analyze
#   combinatorial_type, validate_arrangement -> every workload
#
# Layers entered on every workload: their times are metrics.
TIMED_LAYERS = (
    "intersect.combinatorial_type", "curves.validate_arrangement",
    "intersect.pair.line_line", "intersect.pair.line_conic",
    "intersect.pair.conic_conic", "polynomials.resultant",
    "algebraic.isolate_roots", "sympy.factor_list", "sympy.all_roots",
    "intersect.cluster_points", "algebraic.refine_box",
)
# Layers some workload never enters: only their calls are metrics, so that
# no time metric reads 0 on every run of a workload.  Their times are in the
# full table printed above the result.
COUNTED_LAYERS = (
    "algebraic.alg_equal", "curves.same_point", "sympy.eval_rational", "curves.parse_arrangement",
    "intersect.has_six_line_subarrangement", "invariants.analyze",
    "invariants.render", "curves.point_repr", "sympy.N", "cli.process",
)
COUNTERS = (
    "intersect.cluster.occurrences", "intersect.cluster.points",
    "algebraic.roots_by_degree.1", "algebraic.roots_by_degree.2",
    "algebraic.roots_by_degree.3", "algebraic.roots_by_degree.4",
)


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker in a fresh interpreter and return its JSON record.

    The worker gets its own process group, so that on timeout the CLI
    processes it started are killed with it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=package_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"worker {' '.join(args)} passed the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(base: list[str], seconds: float, left,
               trace_path: Path | None = None) -> list[dict]:
    """Cold passes, one at a time, until the next would end after `seconds`.
    ``left()`` is the time left before the run's deadline."""
    passes: list[dict] = []
    first = time.monotonic()
    extra = [] if trace_path is None else ["--trace", str(trace_path)]
    while True:
        begin = time.monotonic()
        passes.append(spawn(base + extra, left()))
        took = time.monotonic() - begin
        if time.monotonic() + took - first > seconds:
            return passes


def by_input(passes: list[dict]) -> dict[str, list[float]]:
    """The latencies of each input over workers."""
    out: dict[str, list[float]] = {}
    for p in passes:
        for aid, latency in zip(p["ids"], p["latencies"]):
            out.setdefault(aid, []).append(latency)
    return out


def middle_inputs(first: dict) -> list[str]:
    """The ids of the inputs ranked within MIDDLE of the median of a pass."""
    ranked = [aid for _, aid in sorted(zip(first["latencies"], first["ids"]))]
    low, high = (len(ranked) - 1) // 2, len(ranked) // 2
    return ranked[max(0, low - MIDDLE):high + MIDDLE + 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[float], passes: list[dict], samples: list[dict]) -> dict:
    latencies = [statistics.median(v) for v in by_input(passes + samples).values()]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "arr_p50_s": metric(statistics.median(latencies), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and the full table."""
    def med(values):
        return statistics.median(list(values))

    names = sorted({name for p in traced for name in p["layers"]})
    table = {name: {key: med(p["layers"].get(name, {}).get(key, 0) for p in traced)
                    for key in ("calls", "s", "self_s")} for name in names}
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for name in TIMED_LAYERS:
        row = table.get(name, empty)
        out[f"{name}.calls"] = metric(row["calls"], "count")
        out[f"{name}.s"] = metric(row["s"], "s")
        out[f"{name}.self_s"] = metric(row["self_s"], "s")
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = metric(table.get(name, empty)["calls"], "count")
    for name in COUNTERS:
        out[name] = metric(med(p["counters"].get(name, 0) for p in traced), "count")
    calls = out["curves.same_point.calls"]["value"]
    matched = med(p["counters"].get("curves.same_point.true", 0) for p in traced)
    out["intersect.cluster.match_ratio"] = metric(matched / calls if calls else 0.0, "ratio")
    # a layer the package no longer has is absent, not an error
    wrapped = set(traced[0]["wrapped"])
    absent = [name for name in TIMED_LAYERS + COUNTED_LAYERS
              if name not in wrapped and name.rsplit(".", 1)[0] not in wrapped
              and name != "cli.process"]
    traced_wall = med(p["wall_s"] for p in traced)
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced["wall_s"], "s")
    return out, {"layers": table, "absent": absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    if not (SRC / "coniclines" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [spawn(base + ["--setup-only"], left())["setup_s"]
                  for _ in range(SETUP_PROBES)]
        if args.trace:
            untraced = spawn(base, left())
            spans = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            passes = run_passes(base, args.seconds, left, spans)
            metrics, table = per_layer(untraced, passes)
            passes = [untraced] + passes
        else:
            passes = run_passes(base, args.seconds, left)
            samples = []
            if args.workload != "cli-analyze":
                middle = ["--inputs", ",".join(middle_inputs(passes[0]))]
                samples = [spawn(base + middle, left())
                           for _ in range(SAMPLES - len(passes))]
            setups += [p["setup_s"] for p in passes + samples]
            metrics, table = end_to_end(setups, passes, samples), None
            passes += samples
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    versions = passes[0]["versions"]
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "versions": versions, "setups": setups,
                    "passes": passes, "metrics": metrics, "trace": table},
                   indent=1), encoding="utf-8")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAIL {failure}", file=sys.stderr)
    if table is not None:
        print(f"# {'layer':40} {'calls':>9} {'incl_s':>9} {'self_s':>9}")
        for name, row in sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# {name:40} {row['calls']:9.0f} {row['s']:9.3f} {row['self_s']:9.3f}")
        if table["absent"]:
            print(f"# absent layers: {', '.join(table['absent'])}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"fail_frac {failed / attempted!r} ratio ({failed} of {attempted}; "
          f"{len(passes)} workers, {sum(len(p['latencies']) for p in passes)} "
          f"latency samples)")
    print(f"# python {versions['python']}, sympy {versions['sympy']}, "
          f"nproc {versions['nproc']}, reference checked: "
          f"{all(p['checked_against_reference'] for p in passes)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
