#!/usr/bin/env python3
"""Builds the hsgf benchmark from source and runs one workload.

    python3 perfbench/run.py --workload extract|serve|update [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --build-only

Run from anywhere inside a checkout; everything is built and written under
$CARGO_TARGET_DIR (default .bench_build) at the root of the checkout. The
last line of standard output is the workload's JSON result; the line before
it records provenance (commit or source digest, CPUs, SIMD ISA, compiler,
build type, seed). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("extract", "serve", "update")
DEFAULT_SEED = 1
# Longest a workload process may take before it is killed: a run must end
# within 180 s, build excluded.
RUN_TIMEOUT_S = 170

# Each workload's correctness gates, by the name of the reference a
# self-test run perturbs (--corrupt-reference GATE): every one must then fail
# the run.
GATES = {
    "extract": ["rows", "directed"],
    "serve": ["rows", "cold"],
    "update": ["rows", "log", "reply", "read", "final"],
}


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build_env():
    """Environment whose temporary files (the compiler's included) land in
    the build directory, inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds hsgf_perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no hsgf sources under {ROOT}/src")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hsgf_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=build_env())
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    binary = os.path.join(out, "hsgf_perfbench")
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no hsgf_perfbench")
    return binary


def source_identity():
    """The commit when the checkout is a git repository, and always a digest
    of the sources the benchmark builds (src/ and perfbench/)."""
    commit = None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = done.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if (done.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload process; returns (exit code, provenance, result)."""
    work = os.path.join(build_dir(), "work")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, f"{workload}-seed{seed}.jsonl")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work, "--trace-out", spans, *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=build_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 124, None, None
    provenance, result = None, None
    for line in done.stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if "provenance" in record:
            provenance = record["provenance"]
        elif set(record) == {"correct", "attempted", "failed", "metrics"}:
            result = record
    return done.returncode, provenance, result


def main_run(args):
    try:
        binary = build()
    except (OSError, RuntimeError) as error:
        log(f"error: {error}")
        return 2
    code, provenance, result = run_workload(binary, args.workload, args.seed,
                                            args.seconds, args.trace)
    if provenance is None or result is None:
        log(f"error: the {args.workload} workload printed no result "
            f"(exit {code})")
        return code or 1
    commit, digest = source_identity()
    provenance.update({"commit": commit, "source_sha256": digest,
                       "seed_flag_default": DEFAULT_SEED,
                       "wall_clock": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                   time.gmtime())})
    record = {"provenance": provenance, **result}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    return code


# --- Self-test ---------------------------------------------------------------

def interval_union(intervals):
    covered, run_start, run_end = 0, 0, None
    for start, end in sorted(intervals):
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def check_spans(path):
    """Spans parse, every child lies inside its parent, and no span's self
    time (duration minus the union of its children) is negative."""
    spans = {}
    with open(path) as handle:
        for line in handle:
            span = json.loads(line)
            for key in ("id", "parent", "request", "name", "start_ns",
                        "end_ns"):
                if key not in span:
                    return f"span without {key}: {line.strip()}"
            if span["end_ns"] < span["start_ns"]:
                return f"span ends before it starts: {line.strip()}"
            spans[span["id"]] = span
    if not spans:
        return "no spans recorded"
    children = {}
    for span in spans.values():
        parent = spans.get(span["parent"])
        if span["parent"] and parent is None:
            return f"span {span['id']} has an unknown parent"
        if parent is not None:
            if (span["start_ns"] < parent["start_ns"] or
                    span["end_ns"] > parent["end_ns"]):
                return f"span {span['id']} ({span['name']}) outlives its parent"
            children.setdefault(parent["id"], []).append(
                (span["start_ns"], span["end_ns"]))
    for span in spans.values():
        self_ns = (span["end_ns"] - span["start_ns"] -
                   interval_union(children.get(span["id"], [])))
        if self_ns < 0:
            return f"span {span['id']} has negative self time"
    return None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
            log(f"FAIL: {message}")

    binary = build()
    for workload in WORKLOADS:
        started = time.monotonic()
        code, _, result = run_workload(binary, workload, 7, 2, 0, ["--tiny"])
        expect(code == 0 and result is not None and result["correct"],
               f"{workload}: tiny run failed (exit {code})")
        # Every workload reports every metric of BENCHMARK.json.
        if result is not None:
            names = set(result["metrics"])
            expect(names == set(e2e_units),
                   f"{workload}: end-to-end metrics {sorted(names)}")
            for name, metric in result["metrics"].items():
                expect(e2e_units.get(name) == metric["unit"],
                       f"{workload}: {name} has unit {metric['unit']}")
            expect(result["attempted"] > 0 and result["failed"] == 0,
                   f"{workload}: attempted {result['attempted']}, "
                   f"failed {result['failed']}")

        code, _, result = run_workload(binary, workload, 7, 2, 1, ["--tiny"])
        expect(code == 0 and result is not None and result["correct"],
               f"{workload}: traced tiny run failed (exit {code})")
        if result is not None:
            names = set(result["metrics"])
            expect(names == set(layer_units),
                   f"{workload}: per-layer metrics missing "
                   f"{sorted(set(layer_units) - names)}, undeclared "
                   f"{sorted(names - set(layer_units))}")
            for name, metric in result["metrics"].items():
                expect(layer_units.get(name) == metric["unit"],
                       f"{workload}: per-layer {name} ({metric['unit']}) is "
                       f"not declared with that unit in BENCHMARK.json")
        # The run's own spans and those of its probes of the other workloads.
        traces = os.path.join(build_dir(), "traces")
        for other in WORKLOADS:
            suffix = "" if other == workload else f".probe-{other}"
            spans = os.path.join(traces, f"{workload}-seed7{suffix}.jsonl")
            problem = (check_spans(spans) if os.path.isfile(spans)
                       else "no spans")
            expect(problem is None,
                   f"{workload}: spans{suffix}: {problem}")

        for gate in GATES[workload]:
            code, _, result = run_workload(
                binary, workload, 7, 1, 0,
                ["--tiny", "--corrupt-reference", gate])
            expect(code != 0 and result is not None and not result["correct"],
                   f"{workload}: a corrupted {gate} reference did not fail "
                   "its gate")
        log(f"{workload}: self-test done in {time.monotonic() - started:.1f} s")
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-only", action="store_true",
                        help="build the benchmark and print its path")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload on tiny inputs and check "
                             "metric names, units, spans and the gates")
    args = parser.parse_args()
    if args.build_only:
        try:
            print(json.dumps({"binary": build()}))
            return 0
        except (OSError, RuntimeError) as error:
            log(f"error: {error}")
            return 2
    if args.self_test:
        try:
            return self_test()
        except (OSError, RuntimeError, ValueError) as error:
            log(f"error: {error}")
            return 2
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
