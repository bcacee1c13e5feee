"""pacomp benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 30 --trace 0

Run from anywhere; it works in the checkout that holds this file and imports
pacomp from that checkout's `src/` only.  Workloads (see workloads.py and
BENCHMARK.json): `corpus-cli`, `random-lp`, `robust-sim`.  One client, one
process, one thread, closed loop: the next request starts when the previous
verdict is back.

Before timing, the paper's golden suite runs once in a child process; if any
anchor fails, the run is invalid and exits with code 3 without a result.
`setup_s` is the median over several fresh child processes of the time from
process start, before `import pacomp`, until the first request is ready.

A run issues whole epochs of its workload's pool (every pool request once, in
the seed's order), as many as take about `--seconds` at the reference
commit (`epoch_s` in references.json), so every run times the same multiset
of requests.  With `--trace 0` it reports the end-to-end metrics.  With
`--trace 1` it runs one epoch untraced, then the same requests again with
every public function of the measured layers wrapped, and reports per-layer
metrics from the spans of the second pass.

Times are reported at a reference speed, measured by a fixed calibration
kernel around and during each request (see timing.py); raw wall times are
printed next to each metric and kept in the full report.

Every request's verdict is checked against the reference recorded for it
(references.json) and for floats; independent closed-form answers are
checked where they exist.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full report,
with the environment, sample counts and failures, goes to
.perfbench/results/, and spans of a traced run to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class InvalidRun(Exception):
    """The run cannot produce trustworthy timings; no result is printed."""


def load_program():
    """Put this checkout's pacomp first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "pacomp", "__init__.py")):
        raise InvalidRun(f"no pacomp sources under {SRC}")
    sys.path.insert(0, SRC)
    import pacomp

    if not os.path.abspath(pacomp.__file__).startswith(SRC + os.sep):
        raise InvalidRun(f"pacomp imported from {pacomp.__file__}, not from {SRC}")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "yield")):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor() or None, "commit": git_commit()}


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def pool_digest(requests):
    from workloads import canon, digest

    return digest([canon(req.inputs) for req in requests])


def tail(latencies):
    """Latency at the highest percentile with at least ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - 10)  # 1-based rank with n - rank requests beyond it
    return ordered[rank - 1], 100.0 * rank / n, n - rank


# ---------------------------------------------------------------------------
# Child processes: golden precheck and set-up samples
# ---------------------------------------------------------------------------

def _child(args, probe_kind):
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--probe", probe_kind]


def precheck(args):
    proc = subprocess.run(_child(args, "precheck"), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise InvalidRun("golden precheck did not run: " + proc.stderr.strip()[-500:])
    results = json.loads(lines[-1])
    failed = [r for r in results if not r["pass"]]
    if failed:
        raise InvalidRun("golden precheck failed: " + ", ".join(
            f"{r['anchor']} ({r['detail']})" if r["detail"] else r["anchor"] for r in failed))
    return len(results)


def setup_samples(args):
    """Time from spawning a fresh interpreter until its first request is ready.

    Each sample keeps its wall time and, as `setup_s`, the time at reference
    speed (see `run_phase`), from calibrations just before and after it.
    """
    samples = []
    before = timing.calibrate()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen(_child(args, "setup"), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise InvalidRun("set-up probe failed: " + err.strip()[-500:])
        after = timing.calibrate()
        wall = ready - start
        samples.append({"wall_s": wall,
                        "setup_s": timing.at_reference_speed(wall, [before, after])})
        before = after
    return samples


def probe(args):
    if args.probe == "precheck":
        from pacomp.paper_suite import run_suite

        print(json.dumps(run_suite()))
        return
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.prepare(workload.pool(), os.path.join(WORK, "probe", args.workload))
    print("ready", flush=True)


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------

def run_phase(requests, references, oracle, order, tracer=None):
    """Closed loop over `order`; returns one record per request.

    A traced pass samples no speed inside requests (see timing.measure).
    """
    from workloads import check

    records = []
    for rid, index in enumerate(order):
        req = requests[index]
        # garbage left by earlier requests is collected outside the timing, so
        # each request pays only for the collections its own allocations cause
        gc.collect()
        if tracer is not None:
            tracer.request = rid
        m = timing.measure(req.call, sample=tracer is None)
        if tracer is not None:
            tracer.request = None
        error = m.error or check(req, m.result, references[index], oracle)
        records.append({"index": index, "wall_s": m.wall_s, "latency_s": m.ref_s,
                        "kernel_s": m.kernel_s, "error": error})
    return records


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "precheck"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(args):
    from workloads import POOL_SEEDS, WORKLOADS, digest, sequence

    env = environment()
    golden = precheck(args)
    setup = setup_samples(args)

    workload = WORKLOADS[args.workload]
    specs = workload.pool()
    requests = workload.prepare(specs, os.path.join(WORK, "run", args.workload))
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh).get(args.workload)
    pool = pool_digest(requests)
    if refs is None or refs["pool_digest"] != pool or len(refs["items"]) != len(requests):
        raise InvalidRun(f"{args.workload} inputs differ from the recorded pool "
                         f"(digest {pool}); the references no longer apply")
    epochs = 1 if args.trace else max(1, round(args.seconds / refs["epoch_s"]))
    order = list(itertools.islice(sequence(specs, args.seed), epochs * len(requests)))
    inputs_digest = digest([pool, order])

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "pool_seed": POOL_SEEDS[args.workload],
              "pool_requests": len(requests), "pool_digest": pool, "epochs": epochs,
              "inputs_digest": inputs_digest, "golden_anchors": golden,
              "calibration_ref_s": timing.REF_S, "setup_samples": setup}
    lines = [f"pacomp benchmark  workload={args.workload} seed={args.seed} "
             f"trace={args.trace}",
             f"environment      python {env['python']}, nproc {env['nproc']}, "
             f"cpu {env['cpu']}, commit {env['commit']}",
             f"golden precheck  {golden}/{golden} anchors pass",
             f"inputs           pool of {len(requests)} (seed {POOL_SEEDS[args.workload]}, "
             f"digest {pool[:16]}), {epochs} epoch(s) in seeded order, "
             f"inputs digest {inputs_digest[:16]}"]

    if args.trace == 0:
        records = run_phase(requests, refs["items"], workload.oracle, order)
        metrics, text = _end_to_end(records, setup)
    else:
        from spans import Tracer, layer_metrics

        plain = run_phase(requests, refs["items"], workload.oracle, order)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(requests, refs["items"], workload.oracle, order, tracer)
        finally:
            tracer.uninstall()
        values, top = layer_metrics(tracer.spans)
        plain_s = sum(r["latency_s"] for r in plain)
        traced_s = sum(r["latency_s"] for r in traced)
        values["trace_overhead_share"] = (traced_s - plain_s) / plain_s
        records = plain + traced
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.write_spans(os.path.join(WORK, "spans", f"{args.workload}-seed{args.seed}.jsonl"))
        text = [f"traced requests  {len(traced)} (untraced pass {plain_s:.3f} s, "
                f"traced pass {traced_s:.3f} s)",
                "top self time    " + ", ".join(f"{t['name']} {t['self_s']:.3f} s" for t in top)]
        text += [f"{name:<40} {value:.6g} {unit_of(name)}" for name, value in values.items()]
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
        report.update(top_self_time=top, spans=len(tracer.spans))

    failures = [r for r in records if r["error"]]
    report.update(metrics=metrics, records=records, failures=failures)
    text.append(f"failed_ratio     {len(failures) / len(records):.6g} "
                f"({len(failures)}/{len(records)})")
    text += [f"  failed request #{r['index']}: {r['error']}" for r in failures[:10]]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print("\n".join(lines + text + [f"full report      {os.path.relpath(out, ROOT)}"]))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}), flush=True)


def _end_to_end(records, setup):
    latencies = [r["latency_s"] for r in records]
    walls = [r["wall_s"] for r in records]
    completed = sum(1 for r in records if not r["error"])
    tail_value, tail_pct, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "verdict_p50_s": statistics.median(latencies),
        "verdict_tail_s": tail_value,
        "verdicts_per_s": completed / sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_setup = statistics.median(s["wall_s"] for s in setup)
    text = [
        f"setup_s          {values['setup_s']:.6f} s  (median of {len(setup)} fresh "
        f"set-ups; wall {raw_setup:.6f} s)",
        f"verdict_p50_s    {values['verdict_p50_s']:.6f} s  (n={len(latencies)}; "
        f"wall {statistics.median(walls):.6f} s)",
        f"verdict_tail_s   {tail_value:.6f} s  (p{tail_pct:.1f}, n={len(latencies)}, "
        f"{beyond} beyond; wall {tail(walls)[0]:.6f} s)",
        f"verdicts_per_s   {values['verdicts_per_s']:.6f} 1/s  ({completed} completed "
        f"in {sum(latencies):.3f} s; wall {completed / sum(walls):.6f} 1/s)",
        f"peak_rss_mb      {values['peak_rss_mb']:.3f} MB",
    ]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, text


def entry():
    os.chdir(ROOT)
    sys.path.insert(0, HERE)
    try:
        load_program()
        args = parse_args()
        if args.probe:
            probe(args)
        else:
            main(args)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(entry())
