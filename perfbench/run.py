#!/usr/bin/env python3
"""Build and run the mlcsim benchmark (one workload, one seed).

    python3 perfbench/run.py --workload fig41_timing --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
the simulator libraries plus the mlcbench program (CMake, Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls only re-check the build. mlcbench's stdout is passed through;
its last line is the result JSON. Exits non-zero, without a result
line, when the build fails (for example outside a full checkout).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig41_timing", "optimal_l1_onepass", "serve_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(d)


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout
    is not a git repository, so this stands in for a commit id)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cfg = subprocess.run(
                ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                stdout=log, stderr=subprocess.STDOUT)
            if cfg.returncode != 0:
                return False, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        b = subprocess.run(
            ["cmake", "--build", bdir, "--target", "mlcbench", "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT)
    return b.returncode == 0, log_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    ok, log_path = build(bdir)
    if not ok:
        with open(log_path) as f:
            tail = f.readlines()[-20:]
        sys.stderr.write("run.py: build failed; last lines of %s:\n%s"
                         % (log_path, "".join(tail)))
        return 1

    scratch = os.path.join(bdir, "run")
    os.makedirs(scratch, exist_ok=True)
    # Unix socket paths are limited to ~100 bytes: hand mlcbench a
    # relative path when the absolute one is long.
    rel = os.path.relpath(scratch)
    if len(rel) < len(scratch):
        scratch = rel
    cmd = [os.path.join(bdir, "mlcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: mlcbench exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    except KeyboardInterrupt:
        proc.terminate()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
