"""Regenerate perfbench/expected.json from the program as it is now.

    python3 perfbench/pin.py

The pins are the SHA-256 digests of the outputs the benchmark checks.
Regenerate them only when a change to the program's output is intended;
a performance change must leave every pin as it is.  An op whose
independent oracle (OEIS counts, the composition formula, invertibility,
report verdicts) fails is refused here, so a wrong output is never pinned.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import corpus  # noqa: E402
import workloads  # noqa: E402
from deglab import suites  # noqa: E402


def pin_ops(name):
    pins = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for op in workloads.build(name, 0, workdir, {}):
            ok, digest = op.check(op.run())
            if not ok:
                sys.exit(f"{name}: op {op.id} fails its oracle; nothing pinned")
            pins[op.pin] = digest
    return pins


def pin_replay():
    pins = {}
    pool = corpus.build_pool()
    texts = corpus.pool_texts(pool)
    kinds = {json.loads(text)["kind"] for text in texts.values()}
    if kinds != set(corpus.KINDS):
        sys.exit(f"the pool misses kinds {sorted(set(corpus.KINDS) - kinds)}")
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        src, mid, back = (os.path.join(workdir, f) for f in ("in.json", "mid.json", "back.json"))
        for pid, text in texts.items():
            pins[f"pool:{pid}"] = workloads.sha(text)
            workloads._write_file(src, text)
            code, out = workloads.cli_call(["--format", "json", "validate", src])
            if code != 0:
                sys.exit(f"pool item {pid} does not validate")
            pins[f"validate:{pid}"] = workloads.sha(out)
            for prefix, there, home in workloads.SHIFT_PAIRS:
                if pid.startswith(prefix):
                    codes = (
                        workloads.cli_call(["shift", there, src, "-o", mid])[0],
                        workloads.cli_call(["shift", home, mid, "-o", back])[0],
                    )
                    if codes != (0, 0) or workloads._read_file(back) != text:
                        sys.exit(f"pool item {pid} does not round-trip")
                    pins[f"shift:{pid}"] = workloads.sha(workloads._read_file(mid))
    for name in sorted(suites.SUITES):
        report = suites.run_suite(name)
        if not report.ok:
            sys.exit(f"suite {name} fails")
        payload = report.to_payload()
        pins[f"suite:{name}"] = workloads.digest_of(payload)
        pins[f"witnesses:{name}"] = sum(1 for _ in workloads.witness_items(payload))
    return pins


def main():
    expected = {name: pin_ops(name) for name in workloads.WORKLOADS if name != "replay"}
    expected["replay"] = pin_replay()
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
