"""One pass of one workload, in a fresh single-threaded process.

Started by run.py, never by hand.  Imports the program from the
checkout's `src/` only, builds the workload's inputs from the seed, then
(unless --mode setup) runs every op once in order, timing each call and
checking its result after the clock stops.  With --mode trace the pass
runs under the tracer.  The result goes to --out as one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time


def run_pass(ops, expected, tracer, meter):
    """(latencies, (start, end) of each op, outcomes) of one pass over `ops`.

    A latency excludes the time the meter's handler took inside the op."""
    latencies, intervals, outcomes = [], [], []
    for index, op in enumerate(ops):
        if tracer:
            tracer.op_id = index
            tracer.recording = True
        spent = meter.spent
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except (Exception, SystemExit) as exc:
            result, error = None, f"uncaught:{type(exc).__name__}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - (meter.spent - spent))
        intervals.append((t0, t1))
        if tracer:
            tracer.recording = False
        if error is None:
            try:
                ok, digest = op.check(result)
            except Exception as exc:
                ok, digest = False, f"check:{type(exc).__name__}"
            if op.pin is not None and expected.get(op.pin) != digest:
                ok = False
        else:
            ok, digest = False, error
        del result
        outcomes.append([op.id, op.cls, bool(ok), digest])
    return latencies, intervals, outcomes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    here = os.path.join(root, "perfbench")
    sys.path[:0] = [src, here]
    from meter import SpeedMeter

    meter = SpeedMeter()
    meter.start()
    t_start = time.perf_counter()
    import deglab

    if not os.path.abspath(deglab.__file__).startswith(src + os.sep):
        sys.exit(f"deglab imported from {deglab.__file__}, not from {src}")
    import corpus
    import tracer as tracing
    import workloads

    with open(os.path.join(here, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh).get(args.workload, {})
    workdir = os.path.join(here, "out", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, expected)
        # The first argparse parser a process builds costs a few ms more than
        # later ones; build one here so the first op's latency is not inflated.
        deglab.cli.build_parser()
        setup_raw = time.monotonic() - args.t0 - meter.spent
        t_setup = time.perf_counter()
        meter.sample()
        result = {
            "classes": list(corpus.EXPECTED_EXIT),
            "known_defect_classes": list(corpus.KNOWN_DEFECT_CLASSES),
        }
        if args.mode != "setup":
            tracer = tracing.Tracer() if args.mode == "trace" else None
            if tracer:
                tracer.patch()
                meter.hook = tracer.exclude
            try:
                latencies, intervals, outcomes = run_pass(ops, expected, tracer, meter)
            finally:
                meter.stop()
                if tracer:
                    tracer.unpatch()
            factors = [meter.factor(a, b) for a, b in intervals]
            result.update(
                outcomes=outcomes,
                raw_latencies=latencies,
                raw_pass_s=sum(latencies),
                latencies=[x * f for x, f in zip(latencies, factors)],
            )
            result["pass_s"] = sum(result["latencies"])
            if tracer:
                stats, lowest, total_self = tracer.self_times(factors)
                trace_dir = os.path.join(here, "out", "trace")
                os.makedirs(trace_dir, exist_ok=True)
                tracer.write(os.path.join(trace_dir, f"{args.workload}.spans"), factors)
                result.update(
                    restored=tracer.restored(),
                    spans=tracer.span_count(),
                    self_min_s=lowest,
                    self_sum_s=total_self,
                    layers=tracing.layer_metrics(tracer, stats),
                )
    finally:
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    result["raw_setup_s"] = setup_raw
    result["setup_s"] = setup_raw * meter.factor(t_start, t_setup)
    result["reference_loop_s"] = sum(meter.loops) / len(meter.loops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
