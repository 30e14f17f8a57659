#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload <lookup|social-rw> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The C++ benchmark binary is built from source
(optimised, under $CARGO_TARGET_DIR or .bench_build) on first use; build
output goes to stderr. Its stdout passes through unchanged: its
last line is the JSON result. Span files of traced runs go to .bench_out/.
The exit code is the binary's (0 ok, 1 correctness gate failed, 2 could
not run).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must finish well inside 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, env):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, env=env)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{' '.join(cmd)}: {err}")
        return False
    if proc.returncode != 0:
        log(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.returncode == 0


def build():
    """Configures and builds the binary; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    # The compiler's temporary files stay inside the build tree too.
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                           env):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_checked(["cmake", "--build", build_dir, "-j", jobs],
                       BUILD_TIMEOUT_S, env):
        return None
    return binary if os.path.isfile(binary) else None


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_sha():
    """SHA-256 over the library and benchmark sources (path + content),
    so a run is tied to its code even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def stop(signum, _frame):
    """Turns SIGTERM into SystemExit, so subprocess.run kills and reaps the
    build or benchmark child before this process exits."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "social-rw"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--git-sha", git_sha(), "--src-sha", source_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
