#!/usr/bin/env python3
"""qpm's benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qpm is imported from its ``src``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Lines before it give sample counts and latency percentiles.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import Ledger, Queries, Tables, fresh_qpm, percentile  # noqa: E402

SETUP_REPS = 7
clock = time.perf_counter


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def workloads(expected, workdir):
    return {
        "queries-2-3": Queries((2, 3)),
        "tables-2-3": Tables((2, 3), expected["tables"]["2,3"], workdir),
        "ledger-2-3": Ledger([(2, 3)], expected["ledger"]),
    }


def measure(workload, seed, seconds, trace):
    """Set up and run ``workload``; returns (attempted, failed, values), with
    values mapping metric names to numbers."""
    rng = random.Random(seed)
    if trace:
        q = fresh_qpm()
        with Tracer() as tracer:
            t0 = clock()
            state = workload.setup(q)
            outcome = workload.work(q, state, rng, 0.0, 1, tracer)
            wall = clock() - t0 - tracer.paused_s
        values = tracer.metrics()
        values.update(outcome.layer)
        values["traced_work_s"] = outcome.work_s
        values["unattributed_s"] = wall - tracer.attributed_s()
        values["tracing_overhead_s"] = tracer.overhead_s()
        return outcome.attempted, outcome.failed, values

    setup_s = []
    for _ in range(SETUP_REPS):
        state = None    # release the previous set-up before timing the next
        t0 = clock()
        q = fresh_qpm()
        state = workload.setup(q)
        setup_s.append(clock() - t0)
    outcome = workload.work(q, state, rng, seconds, workload.min_passes)
    line = f"passes {outcome.passes}, operations timed {len(outcome.op_s)}"
    if outcome.op_s:
        line += (f", op p50 {1e3 * percentile(outcome.op_s, 0.5):.3f} ms"
                 f", op p95 {1e3 * percentile(outcome.op_s, 0.95):.3f} ms")
    print(line)
    for name, value in sorted(outcome.layer.items()):
        print(f"{name} {value:.3f}")
    values = {
        "setup_s": statistics.median(setup_s),
        "work_s": outcome.work_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return outcome.attempted, outcome.failed, values


def result(spec, attempted, failed, values, trace):
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        # a layer the workload never reaches reads 0
        value = values.get(m["name"], 0) if trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qpm" / "__init__.py").is_file():
        print(f"perfbench: no qpm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("QPM_CACHE_DIR", None)   # no reduction tables from disk

    spec = load_json(ROOT / "BENCHMARK.json")
    table = workloads(load_json(HERE / "expected.json"), str(ROOT))
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    attempted, failed, values = measure(table[args.workload], args.seed,
                                        args.seconds, args.trace)
    print(json.dumps(result(spec, attempted, failed, values, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
