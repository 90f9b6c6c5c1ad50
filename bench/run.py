"""Benchmark of nssol: set-up, certification, field export and builds.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, field_export, build_sweep (see README.md).  Run from
anywhere; the program is imported from ``src/`` next to this directory.

A run times set-up in fresh interpreters, then drives the workload's
operations in this process and this thread, in whole rounds, for
--seconds seconds.  There is no warm-up round: each kind of operation
is reported by its median over the rounds, which a slow first round
does not move.  Every operation is timed
next to the reference kernel (kernel.py) and scaled to the nominal
machine.  With --trace 1 the same time is split between an untraced and
a traced pass, and the per-layer metrics are reported instead of the
end-to-end ones.  Outputs are checked against the benchmark's own
references.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 on a completed run (even with failed operations), 1 when the
run could not be made, such as when ``src/nssol`` is missing.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "_out")

#: fresh interpreters timed per run for setup_s (per-layer runs: fewer).
#: Set-up is not scaled by the reference kernel: it is mostly finding,
#: reading and unmarshalling modules, which the kernel does not track
#: (scaling widened its spread over twelve processes from 9% to 33%).
SETUP_RUNS = 5
SETUP_RUNS_TRACED = 3

class BenchError(Exception):
    """The run could not be made."""


def setup_times(workload, seed, traced):
    """Median set-up time and, traced, import times, from fresh processes."""
    out_dir = os.path.join(OUT, workload, "setup")
    results = []
    for _ in range(SETUP_RUNS_TRACED if traced else SETUP_RUNS):
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
            os.path.join(BENCH, "setup_child.py"), workload, str(seed), out_dir]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up process timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr[-3000:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if traced:
            imports = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if (line.startswith("import time:") and len(parts) == 3
                        and parts[1].strip().isdigit()):
                    imports[parts[2].strip()] = int(parts[1]) / 1e3  # us -> ms
            sample["import.nssol_ms"] = imports.get("nssol", 0.0)
            sample["import.scipy_ms"] = imports.get("scipy.integrate", 0.0)
        results.append(sample)
    return {key: statistics.median(s[key] for s in results) for key in results[0]}


def run_pass(work, ops, seconds, tally, errors, tracer=None):
    """Whole rounds of ops for at least `seconds`; per-kind scaled times.

    Each operation is scaled by the mean of the kernel runs just before
    and just after it.  Outcomes are counted in `tally`; the first error
    of each kind of operation is kept in `errors`.
    """
    from kernel import NOMINAL_MS, run_kernel

    samples = []            # (kind, raw ms, kernel ms before, kernel ms after)
    start = time.perf_counter()
    k_prev = run_kernel()
    while True:
        for kind, fn in ops:
            gc.collect()
            if tracer is not None:
                tracer.op = kind
            t0 = time.perf_counter()
            try:
                out, error = fn(), None
            except Exception as exc:  # an operation's failure is counted
                out, error = None, exc
            took = (time.perf_counter() - t0) * 1e3
            if tracer is not None:
                tracer.op = None
            k_next = run_kernel()
            samples.append((kind, took, k_prev, k_next))
            k_prev = k_next
            tally[work.check(kind, out, error)] += 1
            if error is not None:
                errors.setdefault(kind, f"{type(error).__name__}: {error}"[:300])
        if time.perf_counter() - start >= seconds:
            break

    def per_kind(value):
        return {kind: statistics.median(value(*s) for s in samples if s[0] == kind)
                for kind, _ in ops}

    scaled = per_kind(lambda kind, took, k0, k1: took * NOMINAL_MS / (0.5 * (k0 + k1)))
    raw = per_kind(lambda kind, took, k0, k1: took)
    return {
        "round_ms": sum(scaled.values()),
        "round_raw_ms": sum(raw.values()),
        "kernel_ms": statistics.median(s[3] for s in samples),
        "rounds": len(samples) // len(ops),
        "per_kind_ms": scaled,
        "per_kind_raw_ms": raw,
        "samples": samples,
    }


def per_layer(tracer, rounds, factor):
    """Per-layer metrics from the tracer's sums, scaled by `factor`."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def per_call(layer, scale, self_time=False):
        calls, total, child = tracer.totals[layer]
        busy = total - child if self_time else total
        return busy * factor / scale / calls if calls else 0.0

    def calls_per_round(layer):
        return tracer.totals[layer][0] / rounds

    put("model.validate_us", per_call("model.validate", 1e3), "us/call")
    put("solutions.build_ms", per_call("solutions.build", 1e6), "ms/call")
    put("scaling.integrate_ms", per_call("scaling.integrate", 1e6), "ms/call")
    put("profiles.powerlaw_ms", per_call("profiles.powerlaw", 1e6), "ms/call")
    for layer in ("fields.point", "scaling.pair", "profiles.evaluate",
                  "interp.hermite"):
        put(f"{layer}_calls", calls_per_round(layer), "count/round")
        put(f"{layer}_us", per_call(layer, 1e3), "us/call")
    put("fields.eval_grid_ms", per_call("fields.eval_grid", 1e6), "ms/call")
    put("residuals.verify_window_ms",
        per_call("residuals.verify_window", 1e6), "ms/call")
    put("residuals.self_ms",
        per_call("residuals.verify_window", 1e6, self_time=True), "ms/call")
    put("cli.config_ms", per_call("cli.config", 1e6), "ms/call")
    put("cli.format_ms", per_call("cli.cmd_field", 1e6, self_time=True), "ms/call")
    return metrics


def run(workload_name, seed, seconds, traced):
    if not os.path.isdir(os.path.join(ROOT, "src", "nssol")):
        raise BenchError(f"no nssol sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    setup = setup_times(workload_name, seed, traced)

    import kernel
    import workloads

    out_dir = os.path.join(OUT, workload_name)
    work = workloads.WORKLOADS[workload_name](seed, out_dir)
    work.prepare_references()
    ops = work.operations()
    tally, errors = Counter(), {}

    if not traced:
        timed = run_pass(work, ops, seconds, tally, errors)
    else:
        import tracing

        timed = run_pass(work, ops, seconds / 2.0, tally, errors)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_pass = run_pass(work, ops, seconds / 2.0, tally, errors, tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    final_problems = work.finish()
    self_test_failures = work.self_tests()
    for kind, message in errors.items():
        print(f"{kind}: {message}", file=sys.stderr)
    for message in work.problems + self_test_failures:
        print(f"check: {message}", file=sys.stderr)

    summary = {"workload": workload_name, "seed": seed, "setup": setup,
               "untraced": timed, "peak_rss_mb": peak_rss_mb,
               "err_max": work.err_max, "tally": dict(tally)}
    if traced:
        summary["traced"] = traced_pass
        factor = kernel.NOMINAL_MS / traced_pass["kernel_ms"]
        metrics = per_layer(tracer, traced_pass["rounds"], factor)
        metrics["import.nssol_ms"] = {"value": setup["import.nssol_ms"], "unit": "ms"}
        metrics["import.scipy_ms"] = {"value": setup["import.scipy_ms"], "unit": "ms"}
        metrics["bench.ref_kernel_ms"] = {"value": timed["kernel_ms"], "unit": "ms"}
        metrics["bench.trace_overhead_ms"] = {
            "value": traced_pass["round_ms"] - timed["round_ms"], "unit": "ms/round"}
        tracer.write(os.path.join(OUT, f"trace-{workload_name}-{seed}.jsonl"))
    else:
        metrics = {
            "round_ms": {"value": timed["round_ms"], "unit": "ms"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "err_max": {"value": work.err_max, "unit": "1"},
        }
    with open(os.path.join(OUT, f"summary-{workload_name}-{seed}-trace{int(traced)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for name, metric in metrics.items():
        print(f"{workload_name} {name} = {metric['value']:.6g} {metric['unit']}")
    attempted = sum(tally.values())
    print(f"{workload_name} attempted = {attempted}, failed = {tally['failed']}")
    correct = not (tally["wrong"] or final_problems or self_test_failures)
    return {"correct": correct,
            "attempted": attempted, "failed": tally["failed"],
            "metrics": metrics}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "field_export", "build_sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))
