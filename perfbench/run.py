#!/usr/bin/env python3
"""Builds and runs the `mintri rank` benchmark.

Run from the root of a mintri checkout:

  python3 perfbench/run.py --workload rank-deep --seed 1 --seconds 35 --trace 0

It configures perfbench/CMakeLists.txt (which compiles the library from
src/) into .bench_build/perfbench as a Release build, builds the benchmark,
runs its self-test, prints where the measured code came from, and then runs
the benchmark. The last line of standard output is the benchmark's JSON
result. With --trace 1 the Chrome trace-event file of the traced run is
written to .bench_build/traces/. Exits non-zero, without a result line, when
the build or the self-test fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_logged(cmd, log_path):
    """Runs cmd with its output in log_path; on failure shows the log."""
    with open(log_path, "w") as out:
        code = subprocess.run(cmd, stdout=out,
                              stderr=subprocess.STDOUT).returncode
    if code != 0:
        with open(log_path) as failed:
            log(failed.read()[-4000:])
        log("command failed (exit %d): %s" % (code, " ".join(cmd)))
    return code == 0


def build(root, build_root):
    """Configures and builds the benchmark; one build at a time."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(build_dir, "CMakeCache.txt")):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, os.path.join(build_root, "configure.log")):
            return None
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", str(BUILD_JOBS)]
        if not run_logged(cmd, os.path.join(build_root, "build.log")):
            return None
    return os.path.join(build_dir, "perfbench")


def git_provenance(root):
    """The checkout's commit and dirty flag, read now; git may be absent."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             text=True, capture_output=True, check=True).stdout
        if os.path.realpath(top.strip()) != os.path.realpath(root):
            raise OSError("the checkout is not the root of a git repository")
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                 "perfbench"], cwd=root, text=True,
                                capture_output=True, check=True).stdout
        return sha, "dirty" if status.strip() else "clean"
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)", "unknown"


def source_digest(root):
    """SHA-256 over the measured sources, an identity that needs no git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="rank-deep, init-pmc or huge-atoms")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    binary = build(root, build_root)
    if binary is None:
        return 1
    selftest = subprocess.run([binary, "--selftest"], text=True,
                              capture_output=True)
    if selftest.returncode != 0:
        log(selftest.stdout + selftest.stderr)
        log("benchmark self-test failed")
        return 1

    sha, dirty = git_provenance(root)
    print("source: git=%s tree=%s digest=%s"
          % (sha, dirty, source_digest(root)))
    sys.stdout.flush()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
