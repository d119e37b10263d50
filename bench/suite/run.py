#!/usr/bin/env python3
"""One-command benchmark of the SpinStreams runtime and optimizer.

Builds the spinbench program (bench/suite/CMakeLists.txt) from the
repository's sources, runs each workload in a process of its own and checks
its outputs.

One workload:

    python3 bench/suite/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

prints every metric by name with its unit, then as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A traced run also writes bench/suite/out/trace_NAME.json (Chrome trace
format) and validates it with tools/trace_check.py.  Exit code 0 when
every output was correct, 1 when a check failed, 2 when nothing ran.

The whole suite:

    python3 bench/suite/run.py --suite [--tag TAG] [--reps K] [--no-trace]

runs every workload (and, unless --no-trace, once more traced) and writes
bench/suite/results/BENCH_TAG.json (BENCH_TAG-i.json for K > 1 reps), the
input of compare.py.

Stdlib only.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
DEFAULT_SEED = 1
# A run's own budget is --seconds (twice over, plus probes, when traced);
# beyond this margin spinbench is hung.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build_dir():
    # An automated runner may point build output elsewhere inside the checkout.
    target = os.environ.get("CARGO_TARGET_DIR")
    return (Path(target) / "spinbench" if target else SUITE / ".build").resolve()


def build():
    """Configures and builds spinbench; returns the binary path."""
    out = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in (["cmake", "-S", str(SUITE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(out), "-j", "4"]):
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1, deadline - time.monotonic()))
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    binary = out / "spinbench"
    if not binary.exists():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def check_trace(path, workload):
    """tools/trace_check.py on the trace; returns its verdict line."""
    command = [sys.executable, str(ROOT / "tools" / "trace_check.py"), str(path),
               "--require-span=engine.run"]
    if workload == "optimize_sweep":
        command.append("--require-span=core.auto_optimize")
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, timeout=60)
    lines = result.stdout.strip().splitlines()
    verdict = lines[-1] if lines else ""
    return verdict if result.returncode == 0 else f"FAIL {verdict}"


def run_spinbench(binary, workload, seed, seconds, trace):
    """Runs one spinbench process; returns its result object."""
    work = build_dir() / f"work-{workload}-{os.getpid()}"
    try:
        command = [str(binary), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1" if trace else "0",
                   "--work", str(work)]
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                text=True, timeout=RUN_TIMEOUT_S)
        lines = result.stdout.strip().splitlines()
        if result.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"spinbench {workload} exited with {result.returncode}")
        outcome = json.loads(lines[-1])
        if trace:
            keep = SUITE / "out" / f"trace_{workload}.json"
            keep.parent.mkdir(exist_ok=True)
            shutil.move(outcome["trace_file"], keep)
            outcome["trace_file"] = str(keep.relative_to(ROOT))
            outcome["trace_check"] = check_trace(keep, workload)
        return outcome
    finally:
        shutil.rmtree(work, ignore_errors=True)


def select(outcome, wanted):
    """The BENCHMARK.json metrics out of a spinbench result, unit-checked."""
    produced = outcome["metrics"]
    problems = []
    selected = {}
    for spec in wanted:
        metric = produced.get(spec["name"])
        if metric is None:
            problems.append(f"metric {spec['name']} missing")
        elif metric["unit"] != spec["unit"]:
            problems.append(f"metric {spec['name']} in {metric['unit']}, expected {spec['unit']}")
        else:
            selected[spec["name"]] = metric
    return selected, problems


def is_correct(outcome, problems):
    trace_ok = not outcome.get("trace_check", "").startswith("FAIL")
    return outcome["correct"] and trace_ok and not problems


def print_metrics(title, metrics):
    print(f"  {title}")
    for name, m in sorted(metrics.items()):
        samples = f"  (n={m['samples']})" if m.get("samples") else ""
        print(f"    {name:44s} {m['value']:>14.6g} {m['unit']}{samples}")


def print_checks(outcome, problems):
    acc = outcome["accounting"]
    print(f"  checked: {outcome['attempted']} attempted, {outcome['failed']} failed "
          f"(lost {acc['lost']}, duplicated {acc['duplicated']}, wrong {acc['wrong']}, "
          f"dropped {acc['dropped']})")
    if "trace_check" in outcome:
        print(f"  trace: {outcome['trace_file']}: {outcome['trace_check']}")
    for problem in problems:
        print(f"  ERROR: {problem}")


def one_run(args, bench):
    binary = build()
    outcome = run_spinbench(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    wanted = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    selected, problems = select(outcome, wanted)
    correct = is_correct(outcome, problems)
    print(f"{args.workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    print_metrics("end to end", outcome["end_to_end"])
    if args.trace == 1:
        print_metrics("per layer", outcome["metrics"])
    print_checks(outcome, problems)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in selected.items()},
    }))
    return 0 if correct else 1


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return result.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def suite_entry(binary, bench, name, args):
    """One workload of a suite run: plain, then (unless --no-trace) traced."""
    outcome = run_spinbench(binary, name, args.seed, args.seconds, False)
    _, problems = select(outcome, bench["end_to_end"])
    entry = {
        "correct": is_correct(outcome, problems),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "accounting": outcome["accounting"],
        "end_to_end": outcome["end_to_end"],
    }
    print(name)
    print_metrics("end to end", entry["end_to_end"])
    print_checks(outcome, problems)
    if args.trace:
        traced = run_spinbench(binary, name, args.seed, args.seconds, True)
        _, traced_problems = select(traced, bench["per_layer"])
        problems += traced_problems
        entry["correct"] = entry["correct"] and is_correct(traced, traced_problems)
        entry["per_layer"] = traced["metrics"]
        entry["trace_check"] = traced["trace_check"]
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        print_metrics("per layer", entry["per_layer"])
        print_checks(traced, traced_problems)
    entry["failed_frac"] = entry["failed"] / max(1, entry["attempted"])
    entry["problems"] = problems
    return entry


def suite(args, bench):
    binary = build()
    names = [w["name"] for w in bench["workloads"]]
    all_correct = True
    results = SUITE / "results"
    results.mkdir(exist_ok=True)
    for rep in range(args.reps):
        document = {
            "tag": args.tag,
            "git_sha": git_sha(),
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "system": platform.system()},
            "seed": args.seed,
            "run_seconds": args.seconds,
            "workloads": {},
        }
        for name in names:
            log(f"== {name} (rep {rep + 1}/{args.reps})")
            entry = suite_entry(binary, bench, name, args)
            all_correct = all_correct and entry["correct"]
            document["workloads"][name] = entry
        suffix = f"-{rep + 1}" if args.reps > 1 else ""
        path = results / f"BENCH_{args.tag}{suffix}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        log(f"wrote {path.relative_to(ROOT)}")
    return 0 if all_correct else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true", help="run every workload")
    parser.add_argument("--tag", default="local", help="suite: results/BENCH_<tag>.json")
    parser.add_argument("--reps", type=int, default=1, help="suite: repetitions")
    parser.add_argument("--no-trace", dest="trace_suite", action="store_false",
                        help="suite: skip the traced runs")
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.suite:
            args.trace = args.trace_suite
            return suite(args, bench)
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            parser.error(f"--workload must be one of {[w['name'] for w in bench['workloads']]}")
        return one_run(args, bench)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        log(f"run.py: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
