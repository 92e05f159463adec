#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/,
or into $CARGO_TARGET_DIR when that is set; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero, without a result, when
the sources or the build are missing or broken.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure (once) and build the perfbench binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary at " + binary)
    return binary


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the benchmark's and the library's source files, so a
    result names the exact code it measured even outside a git tree."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true",
                        help="short traced and untraced pass over every "
                             "part; exits non-zero on any failed check")
    args = parser.parse_args()
    if not args.self_check and None in (args.workload, args.seed,
                                         args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    binary = build(out)
    work = os.path.join(out, "work")
    if args.self_check:
        cmd = [binary, "--self-check", "--benchmark-json",
               os.path.join(ROOT, "BENCHMARK.json"), "--work-dir", work]
    else:
        # The binary takes the seed as an unsigned 64-bit number.
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed % (1 << 64)),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit_id(), "--src-digest", source_digest(),
               "--work-dir", work]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
