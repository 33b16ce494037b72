"""Run one suite as a child process and check its pinned JSON report.

    python tests/ci_suite_pin.py NAME BOUND SHA256 MAX_MB

Runs `python -m deglab --format json suite NAME --bound BOUND`, prints the
verdict and the SHA-256 of the report, then the wall time and the child's
peak RSS.  Exits 0 only when the verdict is `pass`, the digest is SHA256
and the peak RSS is at most MAX_MB.  `deglab` must be importable, as with
PYTHONPATH=src.
"""

import hashlib
import json
import resource
import subprocess
import sys
import time


def main(name, bound, want, max_mb) -> int:
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "deglab", "--format", "json", "suite", name, "--bound", bound]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=False).stdout
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    verdict = json.loads(out)["verdict"]
    digest = hashlib.sha256(out).hexdigest()
    print(verdict, digest)
    print(f"wall {wall:.1f} s, peak RSS {rss_mb:.1f} MB (bound {max_mb} MB)")
    return 0 if verdict == "pass" and digest == want and rss_mb <= float(max_mb) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
