#!/usr/bin/env python3
"""Measure every workload over several seeds and write the summary.

    python3 perfbench/baseline.py [--seeds 10] [--out perfbench/baseline.json]

Runs the benchmark command of BENCHMARK.json once per workload and seed
(``--trace 0``), one workload after another, then twice traced with seed 1.
For each end-to-end metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median; for each workload the traced per-layer values and whether the
``calls`` counts of the two traced runs agree.  Run it on a quiet machine;
it takes about as long as 11 runs of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_json


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = load_json(ROOT / "BENCHMARK.json")
    seeds = list(range(1, args.seeds + 1))
    doc = {"machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
           "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(spec, name, seed, 0) for seed in seeds]
        traced = [run(spec, name, 1, 1) for _ in range(2)]
        layers = traced[0]["metrics"]
        calls = {k: v["value"] for k, v in layers.items() if k.endswith(".calls")}
        doc["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summarize(
                    [r["metrics"][m["name"]]["value"] for r in runs]))
                for m in spec["end_to_end"]},
            "calls_repeat": calls == {k: traced[1]["metrics"][k]["value"] for k in calls},
            "per_layer": {k: v["value"] for k, v in layers.items()},
        }
        print(name, json.dumps({k: round(v["spread"], 3) for k, v in
                                doc["workloads"][name]["end_to_end"].items()}), flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
