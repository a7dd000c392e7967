#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py for one second
untraced and traced, and fails unless each result is correct and carries
exactly the declared metrics with their declared units and finite values.
It also checks that perfbench/layers.json maps exactly the declared
per-layer metrics, and that run.py refuses, without printing a result, to
run in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(".bench_build", "selftest")


def fail(message):
    print("selftest: FAIL: " + message)
    return 1


def check_result(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    run = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                         timeout=300)
    label = "%s --trace %d" % (workload, trace)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return fail("%s exited %d" % (label, run.returncode))
    result = json.loads(lines[-1])
    errors = 0
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors += fail("%s: result keys %s" % (label, sorted(result)))
    if (result.get("correct") is not True or result.get("failed") != 0
            or result.get("attempted", 0) < 1):
        errors += fail("%s: correct %s, attempted %s, failed %s" % (
            label, result.get("correct"), result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) - set(metrics)):
        errors += fail("%s: metric %s missing" % (label, name))
    for name in sorted(set(metrics) - set(expected)):
        errors += fail("%s: metric %s not declared" % (label, name))
    for name, unit in expected.items():
        value = metrics.get(name, {})
        if name in metrics and value.get("unit") != unit:
            errors += fail("%s: %s has unit %s, declared %s"
                           % (label, name, value.get("unit"), unit))
        if name in metrics and not (isinstance(value.get("value"), (int, float))
                                    and math.isfinite(value["value"])):
            errors += fail("%s: %s is not a finite number" % (label, name))
    if errors == 0:
        print("selftest: ok: %s (%d metrics)" % (label, len(expected)))
    return errors


def check_refuses_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                          "serve-mutag", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                         timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if run.returncode == 0 or run.stdout.strip():
        return fail("run.py in a bare directory exited %d with output %r"
                    % (run.returncode, run.stdout))
    print("selftest: ok: a bare directory is refused")
    return 0


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    errors = 0
    mapped = [entry["metric"] for entry in layers["metrics"]]
    if sorted(mapped) != sorted(per_layer):
        errors += fail("layers.json and BENCHMARK.json disagree on %s"
                       % sorted(set(mapped) ^ set(per_layer)))
    for entry in layers["metrics"]:
        for name in entry["moves"]:
            if name not in end_to_end:
                errors += fail("layers.json: %s moves undeclared %s" % (entry["metric"], name))
    errors += check_refuses_bare_directory()
    for workload in (w["name"] for w in bench["workloads"]):
        errors += check_result(workload, 0, end_to_end)
        errors += check_result(workload, 1, per_layer)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
