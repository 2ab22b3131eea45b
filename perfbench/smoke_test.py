#!/usr/bin/env python3
"""Smoke test of the repository benchmark, at tiny data sizes on a fixed seed.

Run from the repository root:  python3 perfbench/smoke_test.py

For every workload it makes one untraced and one traced run through
perfbench/run.py and checks that
  * the result line has exactly `correct`, `attempted`, `failed`, `metrics`,
    with correct == true and attempted >= 1;
  * every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is present, numeric and in its declared unit;
  * the traced run wrote a trace that loads as Chrome trace-event JSON and a
    summary carrying the tracing overhead.
It also reports how late the open-loop feeder of `mixed` ran, and checks that
a TC_* variable in the environment makes the benchmark refuse to run.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2


def run(workload, trace, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)


def check(ok, what):
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace)
            check(r.returncode == 0, f"{w} trace={trace} exited {r.returncode}")
            result = json.loads(r.stdout.strip().split("\n")[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w}: result keys {sorted(result)}")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{w}: correct={result['correct']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            check(set(got) == set(want),
                  f"{w} {key}: missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got[name]
                check(isinstance(m["value"], (int, float)) and m["unit"] == unit,
                      f"{w} {name}: {m} (want unit {unit})")
            print(f"ok   {w:6s} trace={trace}: {len(got)} {key} metrics, "
                  f"attempted {result['attempted']}")
        traces = os.path.join(build_root, "traces", f"{w}-seed{SEED}")
        with open(traces + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        check(any(e.get("ph") == "X" for e in events), f"{w}: trace has no spans")
        with open(traces + ".summary.json") as f:
            summary = json.load(f)
        check(summary.get("tracing_overhead"), f"{w}: no tracing overhead in summary")
        print(f"ok   {w:6s} trace: {len(events)} events, overhead "
              + ", ".join(f"{k} {v['change']:+.1%}"
                          for k, v in summary["tracing_overhead"].items()))
    with open(os.path.join(build_root, "results", f"mixed-seed{SEED}-trace0.json")) as f:
        report = json.load(f)["report"]
    print("mixed feeder lateness: "
          + ", ".join(f"{k} {report[k]['value']:.3f} ms"
                      for k in report if k.startswith("feeder_lateness")))
    env = dict(os.environ, TC_MERGE_POLICY="tiered")
    r = run("ingest", 0, env)
    check(r.returncode != 0 and '"metrics"' not in r.stdout,
          "a TC_* variable did not stop the benchmark")
    print("ok   TC_* variable refused")
    print("smoke test passed")


if __name__ == "__main__":
    main()
