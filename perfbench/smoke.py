"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at reduced size (``--smoke``), once
untraced and once traced, and checks that each run exits 0, finds its
outputs correct, and reports every metric BENCHMARK.json names with its
unit.  Then runs the benchmark from a copy that holds only BENCHMARK.json and
the benchmark's files, where it must fail without printing a result.

Run from the repository root (about two minutes):

    python3 perfbench/smoke.py

It lives outside tests/ so that the test suite's run time does not grow.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: outputs failed checks\n"
                                f"{proc.stderr}")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{label}: metric {m['name']} is {got}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"ok  {label}", flush=True)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0, smoke=False)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without sources did not fail cleanly")
    else:
        print("ok  fails without sources", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
