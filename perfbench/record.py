"""Record the reference verdict of every pool request.

Run from the repository root on the commit whose answers are the reference:

    python3 perfbench/record.py            # all workloads
    python3 perfbench/record.py random-lp  # one workload

Each pool request is run once.  Its reference is the digest of its verdict
and exact values.  A request that raises, hits the time limit, carries a
float, or disagrees with an independent closed-form answer is recorded as an
error; the benchmark then counts it as failed on every later run, and never
replaces the error with a later output of the program.  Recording again on a
later commit would turn that commit's answers into the reference, so record
only when a pool changes, in a change that alters nothing else.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import run

PATH = os.path.join(run.HERE, "references.json")


def _outcome(proj):
    """Short verdict label for the summary of a pool's answers."""
    if isinstance(proj, dict):
        for key in ("status", "holds"):
            if key in proj:
                return proj[key]
        if "certificate" in proj:
            return proj["certificate"][0]["status"]
        return "value"
    return "none" if proj is None else f"{len(proj)} items"


def record(name):
    from timing import measure
    from workloads import POOL_SEEDS, WORKLOADS, check, digest, find_float

    workload = WORKLOADS[name]
    specs = workload.pool()
    requests = workload.prepare(specs, os.path.join(run.WORK, "record", name))
    items, mix, total = [], Counter(), 0.0
    for req in requests:
        m = measure(req.call)
        latency, result, error = m.wall_s, m.result, m.error
        total += m.ref_s
        if error is None:
            where = find_float(req.exact_body(result))
            if where is not None:
                error = f"float in result at {where}"
        if error is None:
            proj = req.project(result)
            error = workload.oracle(req.spec, proj)
            if error is not None:
                error = "independent answer disagrees: " + error
        if error is None:
            ref = digest(proj)
            if check(req, result, ref, workload.oracle) is not None:
                raise RuntimeError(f"request {req.index} fails its own reference check")
            mix[f"{req.spec['kind']}:{_outcome(proj)}"] += 1
        else:
            ref = {"error": error}
            mix[f"{req.spec['kind']}:error"] += 1
        items.append(ref)
        print(f"{name} #{req.index:3d} {latency:8.3f}s {json.dumps(req.spec, sort_keys=True)}"
              f"{'  ERROR ' + error if error else ''}", flush=True)
    print(f"{name}: {len(requests)} requests, {total:.1f} s at reference speed in one pass",
          flush=True)
    return {
        "epoch_s": round(total, 1),
        "pool_seed": POOL_SEEDS[name],
        "pool_digest": run.pool_digest(requests),
        "requests": len(requests),
        "verdict_mix": dict(sorted(mix.items())),
        "items": items,
    }


def main(argv):
    os.chdir(run.ROOT)
    run.load_program()
    from workloads import WORKLOADS

    names = argv or sorted(WORKLOADS)
    refs = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in names:
        refs[name] = record(name)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
