"""deglab benchmark: one run of one workload.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Each pass of the workload runs in a fresh single-threaded child process
(child.py), one after another; the number of passes is fixed by
--seconds, so a run does the same work on every commit.  With --trace 0
the run reports the end-to-end metrics; with --trace 1 it runs one plain
pass and one traced pass and reports the per-layer metrics.  Metric names
and units come from BENCHMARK.json at the root of the checkout.  The last
line of standard output is one JSON object; everything before it is a
readable report.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Seconds one pass takes at the commit that defined the benchmark; a run
# makes floor(--seconds / this) passes, at least one.
NOMINAL_PASS_S = {"enumerate": 5.0, "functor-algebra": 20.0, "universes": 6.5, "replay": 5.0}
SETUP_SAMPLES = 5  # set-ups per run, counting those of the passes
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, mode, record):
    out = os.path.join(OUT, f"child-{os.getpid()}.json")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "DEGLAB_"))}
    env["PYTHONHASHSEED"] = "0"
    load_before = os.getloadavg()
    t0 = time.monotonic()
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), "--root", ROOT]
    cmd += ["--workload", workload, "--seed", str(seed), "--mode", mode, "--t0", repr(t0), "--out", out]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout} s") from None
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    record["children"].append(
        {
            "mode": mode,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "elapsed_s": elapsed,
            "setup_s": result["setup_s"],
            "pass_s": result.get("pass_s"),
            "raw_setup_s": result["raw_setup_s"],
            "raw_pass_s": result.get("raw_pass_s"),
            "reference_loop_s": result.get("reference_loop_s"),
        }
    )
    return result


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            if proc.returncode == 0:
                return "git:" + proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()


def tail(latencies):
    """(value, percentile, sample count) of the highest percentile with
    TAIL_BEYOND samples beyond it, or None when there are too few."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return None
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def failures(children):
    """(attempted, failed, unexpected failures, {class: [attempted, failed]}).

    An unexpected failure is one outside the corpus's known-defect classes."""
    attempted = failed = 0
    unexpected = []
    by_class = {}
    for child in children:
        known = set(child["known_defect_classes"])
        for cls in child["classes"]:
            by_class.setdefault(cls, [0, 0])
        for op_id, cls, ok, digest in child["outcomes"]:
            attempted += 1
            if cls:
                by_class[cls][0] += 1
            if not ok:
                failed += 1
                if cls:
                    by_class[cls][1] += 1
                if cls not in known:
                    unexpected.append(f"{op_id} ({digest})")
    return attempted, failed, unexpected, by_class


def report_unexpected(unexpected, lines):
    for item in unexpected[:10]:
        lines.append(f"unexpected failure: {item}")
    return not unexpected


def plain_run(args, record, lines):
    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    children = [spawn(args.workload, args.seed, "run", record) for _ in range(passes)]
    setups = [c["setup_s"] for c in children]
    setups += [spawn(args.workload, args.seed, "setup", record)["setup_s"] for _ in range(SETUP_SAMPLES - passes)]
    latencies = [x for c in children for x in c["latencies"]]
    busy = sum(c["pass_s"] for c in children)
    attempted, failed, unexpected, by_class = failures(children)
    t = tail(latencies)
    if t is None:
        lines.append(f"op_latency_tail_ms: n/a (only {len(latencies)} samples), max reported")
        t = (max(latencies), 100.0, len(latencies))
    else:
        lines.append(f"op_latency_tail_ms is p{t[1]:.2f} of {t[2]} samples")
    raw_wall = sum(c["raw_pass_s"] for c in children) / len(children)
    loop_ms = statistics.median(c["reference_loop_s"] for c in children) * 1e3
    lines.append(f"raw wall_s = {raw_wall:.4f} s, reference loop {loop_ms:.4f} ms (median over passes)")
    lines.append(f"failed_ops_frac = {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for cls, (n, bad) in sorted(by_class.items()):
        if n:
            lines.append(f"failed_ops_frac[{cls}] = {bad / n:.6f} ({bad} of {n})")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": busy / len(children),
        "ops_per_s": attempted / busy,
        "op_latency_p50_ms": statistics.median_low(latencies) * 1e3,
        "op_latency_tail_ms": t[0] * 1e3,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "ok_ops_frac": (attempted - failed) / attempted,
    }
    return metrics, report_unexpected(unexpected, lines), attempted, failed


def traced_run(args, record, lines):
    plain = spawn(args.workload, args.seed, "run", record)
    traced = spawn(args.workload, args.seed, "trace", record)
    checks = {
        "traced and plain digests agree": [o[::3] for o in plain["outcomes"]]
        == [o[::3] for o in traced["outcomes"]],
        "tracer restored every patched attribute": traced["restored"],
        "self times are non-negative": traced["self_min_s"] >= -1e-9,
        "self times sum to at most wall_s": traced["self_sum_s"] <= traced["raw_pass_s"],
    }
    for label, ok in checks.items():
        lines.append(f"self-test: {label}: {'ok' if ok else 'FAILED'}")
    lines.append(f"spans recorded: {traced['spans']} (perfbench/out/trace/{args.workload}.spans)")
    attempted, failed, unexpected, _ = failures([plain, traced])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["pass_s"] / plain["pass_s"]
    _, _, _, plain_classes = failures([plain])
    for cls, (n, bad) in plain_classes.items():
        metrics[f"corpus.{cls}.failed_frac"] = bad / n if n else 0.0
    return metrics, report_unexpected(unexpected, lines) and all(checks.values()), attempted, failed


def main():
    ap = argparse.ArgumentParser(description="Run one workload of the deglab benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "source": source_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "children": [],
    }
    lines = []
    try:
        run = traced_run if args.trace else plain_run
        values, correct, attempted, failed = run(args, record, lines)
    except ChildFailed as exc:
        sys.exit(f"benchmark run failed: {exc}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, source {record['source']}")
    print(f"python {record['python']}, nproc {record['nproc']}")
    for child in record["children"]:
        print(
            f"  {child['mode']:5} child: setup {child['setup_s']:.3f} s (raw {child['raw_setup_s']:.3f}), "
            f"pass {child['pass_s'] or 0:.3f} s (raw {child['raw_pass_s'] or 0:.3f}), "
            f"loadavg {child['loadavg_before'][0]:.2f} -> {child['loadavg_after'][0]:.2f}"
        )
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
