#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload ingest|scan|mixed --seed N \
        --seconds S --trace 0|1

The program is compiled from perfbench/ and the engine sources under src/ into
$CARGO_TARGET_DIR (default .bench_build) with CMake, Release build. Every run
keeps its data under that directory and removes it afterwards.

Output: a human-readable report with the workload's own metric names, then,
as the last stdout line, one JSON object with `correct`, `attempted`,
`failed` and `metrics` -- the end-to-end metrics of BENCHMARK.json when
untraced, the per-layer metrics when traced. A failed output check, a build
failure or any TC_* variable in the environment exits non-zero without a
result line.

Files left in the build directory:
    results/<workload>-seed<N>-trace<T>.json  every metric, the effective
        options, sizes, nproc, seed and git sha of the run
    traces/<workload>-seed<N>.trace.json      Chrome trace-event JSON (Perfetto)
    traces/<workload>-seed<N>.summary.json    self/total time per span name and
        per thread, plus the tracing overhead against the untraced run of the
        same seed when one was recorded
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(build_root):
    """Configures once and builds the program; returns its path. Compiler
    temporaries go under the build directory too."""
    build_dir = os.path.join(build_root, "perfbench")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def tracing_overhead(results_dir, workload, seed, traced):
    """Traced end-to-end numbers against the untraced run of the same seed."""
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace0.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        untraced = json.load(f)["end_to_end"]
    out = {}
    for name, m in traced["end_to_end"].items():
        base = untraced.get(name, {}).get("value")
        if base:
            out[name] = {"untraced": base, "traced": m["value"],
                         "change": m["value"] / base - 1}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["ingest", "scan", "mixed"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--scale", default="full", choices=["full", "tiny"],
                   help="tiny: smoke-test data sizes")
    args = p.parse_args()

    pinned = sorted(k for k in os.environ if k.startswith("TC_"))
    if pinned:
        fail(f"refusing to run with {', '.join(pinned)} set: the benchmark "
             "pins every engine option itself", 2)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    results_dir = os.path.join(build_root, "results")
    traces_dir = os.path.join(build_root, "traces")
    data_dir = os.path.join(build_root, "data", f"{args.workload}-{os.getpid()}")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    record = os.path.join(results_dir, f"{tag}-trace{args.trace}.json")
    trace_out = os.path.join(traces_dir, tag)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", data_dir, "--record", record, "--trace-out", trace_out,
           "--scale", args.scale]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark program exited with {r.returncode} (a failed output check or error)")

    with open(record) as f:
        rec = json.load(f)
    rec["git_sha"] = git_sha()
    if args.trace:
        overhead = tracing_overhead(results_dir, args.workload, args.seed, rec)
        rec["tracing_overhead"] = overhead
        summary_path = trace_out + ".summary.json"
        with open(summary_path) as f:
            summary = json.load(f)
        summary["tracing_overhead"] = overhead
        with open(summary_path, "w") as f:
            json.dump(summary, f, indent=1)
        if overhead is None:
            lines.insert(-1, "  tracing overhead: no untraced run of this seed "
                             "recorded (run --trace 0 first)")
        else:
            for name, o in overhead.items():
                lines.insert(-1, f"  tracing overhead {name:28s} {o['change']:+.2%} "
                                 f"({o['untraced']:.6g} -> {o['traced']:.6g})")
        lines.insert(-1, f"  trace: {trace_out}.trace.json")
    with open(record, "w") as f:
        json.dump(rec, f, indent=1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
