"""One cold pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
                                [--setup-only] [--trace SPANS.jsonl]
                                [--inputs ID,ID,...]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is shared by all processes), so set-up time covers
interpreter start, ``import coniclines`` and input generation.  The pass
then runs every input (or only those ``--inputs`` names) once, on cold
caches, checks every result and prints one JSON object as its last line of
output.  With ``--trace`` the package's layers are wrapped first and the
spans are written to the given file at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"
CLI_TIMEOUT_S = 60


def package_env() -> dict:
    """Environment of a child that must import the package from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # fixed string hashing, so that the work done (and its counts) repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def import_package():
    sys.path.insert(0, str(SRC))
    import coniclines
    if Path(coniclines.__file__).resolve().parent != SRC / "coniclines":
        raise ImportError(f"coniclines imported from {coniclines.__file__}, "
                          f"not from {SRC}")
    return coniclines


def bezout_ok(d: int, k: int, t: dict) -> bool:
    """The pairwise intersection count of an ordinary arrangement."""
    lhs = 4 * comb(k, 2) + comb(d, 2) + 2 * k * d
    return lhs == sum(comb(int(r), 2) * n for r, n in t.items())


def summary_of(derived) -> dict:
    """The result fields compared against the reference: the type, the
    ordinarity flag and the sorted (multiplicity, ordinary) of each point."""
    ct = derived.ct
    return {"d": ct.d, "k": ct.k,
            "t": {str(r): n for r, n in sorted(ct.t.items())},
            "all_ordinary": bool(derived.all_ordinary),
            "points": sorted([p.multiplicity, bool(p.ordinary)]
                             for p in derived.points)}


# fields of `coniclines analyze --json` that are functions of the derived
# type and flags; point locations and warnings (which quote them) are not
CLI_FIELDS = ("d", "k", "t", "bezout_defect", "f0", "f1", "h_index", "milnor",
              "c1sq", "c2", "slope", "cover_e", "cover_k2", "bmy_defect",
              "checks", "all_ordinary")


def cli_summary(payload: dict) -> dict:
    out = {key: payload.get(key) for key in CLI_FIELDS}
    out["points"] = sorted([p.get("multiplicity"), p.get("ordinary")]
                           for p in payload.get("points", []))
    return out


def load_reference(workload: str) -> dict | None:
    """Recorded results per input id; the seed only reorders the inputs."""
    path = REFERENCE / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["inputs"]


def check(summary: dict, expected: dict | None, reference: dict | None) -> str | None:
    """None if the result is right, else why not."""
    if reference is not None and summary != reference:
        return f"differs from reference: got {summary}, want {reference}"
    if expected is not None and summary["t"] != expected:
        return f"type {summary['t']} differs from the known type {expected}"
    if summary["all_ordinary"] and not bezout_ok(summary["d"], summary["k"], summary["t"]):
        return f"Bezout identity fails for an ordinary result: {summary['t']}"
    if summary.get("bezout_defect", 0) != 0 and summary["all_ordinary"]:
        return f"bezout_defect {summary['bezout_defect']} on an ordinary result"
    return None


def cold_caches() -> None:
    """Empty sympy's caches, CRootOf's root-isolation cache included (which
    ``clear_cache()`` alone keeps), reseed the random generators that sympy's
    factoring draws from, and collect garbage, so that the work and time of
    an arrangement depend as little as they can on the ones before it: not
    on what they cached, nor on where the random generators or the garbage
    collector's counters stood when they ended."""
    import sympy
    import sympy.core.random
    sympy.core.cache.clear_cache()
    sympy.CRootOf.clear_cache()
    sympy.core.random.seed(0)
    random.seed(0)
    gc.collect()


def run_engine(package, inputs, reference, tracer):
    """One ``combinatorial_type`` call per input, each on cold caches.  The
    latency of an input is the process CPU time of its call: the engine is
    single-threaded and does no I/O, so on an idle core this is its wall
    time, and unlike wall time it leaves out what the host scheduler gives
    to other processes."""
    latencies, results, failures = [], {}, []
    for aid, arrangement, expected in inputs:
        if tracer is not None:
            tracer.arrangement = aid
        cold_caches()
        start = time.process_time()
        try:
            derived = package.combinatorial_type(arrangement)
        except Exception:  # every input is valid: any exception fails
            latencies.append(time.process_time() - start)
            failures.append(f"{aid}: {traceback.format_exc(limit=-3)}")
            continue
        latencies.append(time.process_time() - start)
        results[aid] = summary_of(derived)
        problem = check(results[aid], expected,
                        None if reference is None else reference.get(aid))
        if problem:
            failures.append(f"{aid}: {problem}")
    return latencies, results, failures


def children_cpu_s() -> float:
    """CPU seconds of the child processes that have ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(files, reference, spans_path):
    """Run ``coniclines analyze FILE --json`` once per file, one process at a
    time.  The latency of a file is the CPU time of its process, from spawn
    to exit (see run_engine for why CPU time).  Traced runs go through
    traced_cli.py, which records the spans of each process into its own
    file."""
    latencies, results, failures, spans = [], {}, [], []
    for fid, path in files:
        if spans_path is None:
            cmd = [sys.executable, "-m", "coniclines.cli", "analyze", str(path), "--json"]
        else:
            part = spans_path.with_name(f"{spans_path.stem}-{fid}.jsonl")
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(part), fid,
                   "analyze", str(path), "--json"]
        start, cpu = time.monotonic(), children_cpu_s()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=package_env(), timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            latencies.append(children_cpu_s() - cpu)
            failures.append(f"{fid}: timed out after {CLI_TIMEOUT_S} s")
            continue
        end = time.monotonic()
        latencies.append(children_cpu_s() - cpu)
        if spans_path is not None:
            spans.append((fid, start, end, part))
        if proc.returncode != 0:
            failures.append(f"{fid}: exit code {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        try:
            results[fid] = cli_summary(json.loads(proc.stdout))
        except (json.JSONDecodeError, AttributeError) as exc:
            failures.append(f"{fid}: unreadable --json output ({exc})")
            continue
        problem = check(results[fid], None,
                        None if reference is None else reference.get(fid))
        if problem:
            failures.append(f"{fid}: {problem}")
    return latencies, results, failures, spans


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children's figure is the largest child
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def versions(package) -> dict:
    import sympy
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "coniclines": getattr(package, "__version__", "?"),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--inputs", default=None,
                        help="comma-separated ids: run only these inputs")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the reference comparison (used when recording it)")
    args = parser.parse_args(argv)

    package = import_package()
    import workloads
    if args.workload == "cli-analyze":
        folder = OUT / f"cli-{args.seed}"
        folder.mkdir(parents=True, exist_ok=True)
        inputs = []
        for fid, text in workloads.cli_files(args.seed):
            path = folder / f"{fid}.txt"
            path.write_text(text, encoding="utf-8")
            inputs.append((fid, path))
    elif args.workload == "mixed-irrational":
        inputs = workloads.mixed_irrational(args.seed)
    elif args.workload == "rational-incidence":
        inputs = workloads.rational_incidence(args.seed)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    if args.inputs is not None:
        inputs = [entry for entry in inputs if entry[0] in args.inputs.split(",")]
    ready = time.monotonic()
    record = {"setup_s": ready - args.spawned_at}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    reference = None if args.no_reference else load_reference(args.workload)
    tracer = None
    if args.trace is not None and args.workload != "cli-analyze":
        import layers
        from tracer import Tracer
        tracer = Tracer(time.monotonic)
        record["wrapped"] = layers.install(tracer)
    start = time.monotonic()
    if args.workload == "cli-analyze":
        latencies, results, failures, parts = run_cli(inputs, reference, args.trace)
    else:
        latencies, results, failures = run_engine(package, inputs, reference, tracer)
    record["wall_s"] = time.monotonic() - start
    record.update(ids=[entry[0] for entry in inputs], latencies=latencies, attempted=len(inputs), failed=len(failures),
                  failures=failures, results=results, peak_rss_mb=peak_rss_mb(),
                  checked_against_reference=reference is not None,
                  versions=versions(package))
    if args.trace is not None:
        from tracer import Tracer, merge_spans, read_spans, summarize
        if tracer is None:
            # the CLI processes each traced themselves; hang their spans under
            # one span per process, which covers interpreter start and imports
            tracer = Tracer(time.monotonic)
            record["wrapped"] = []
            for fid, begin, end, part in parts:
                tracer.spans.append(["cli.process", begin, end, -1, fid])
                if part.exists():
                    meta = json.loads(part.with_suffix(".meta.json").read_text())
                    record["wrapped"] = meta["wrapped"]
                    tracer.counters.update(meta["counters"])
                    merge_spans(tracer.spans, read_spans(part),
                                parent=len(tracer.spans) - 1, arrangement=fid)
        tracer.write(args.trace)
        record["layers"] = summarize(tracer.spans)
        record["counters"] = dict(tracer.counters)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
