#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload basket-sparse --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout. It configures perfbench/CMakeLists.txt
(the library from src/, plt-serve, plt-shard and the plt-perfbench program)
into the build directory -- $CARGO_TARGET_DIR when set, else .bench_build --
builds incrementally, and runs plt-perfbench with a private work directory
that is removed afterwards. Build output goes to stderr; plt-perfbench's report
goes to stdout, whose last line is the JSON result. --trace 1 is the traced
run: it prints the per-layer metrics and writes its spans under
<build dir>/traces/. Workloads, metrics and their meaning are described in
perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

# Environment switches the library reads; a run must not inherit them.
LIBRARY_ENV_PREFIX = "PLT_"
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over every file the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def configured_source(cmake_dir):
    """The source directory an existing CMake cache was configured from."""
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(root, build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    source = os.path.join(root, "perfbench")
    if configured_source(cmake_dir) not in (None, source):
        shutil.rmtree(cmake_dir)  # a cache from another checkout
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", cmake_dir, "--target", "plt-perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode != 0:
        fail("build failed")
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="basket-sparse, dense-deep or clickstream-refresh")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data size factor (the smoke test shrinks it)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt the expected answers (self-test of the gate)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        fail("--seed must be >= 0, --seconds and --scale > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    # Temporary files of the build and the run stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith(LIBRARY_ENV_PREFIX)}
    env["TMPDIR"] = tmp_dir
    cmake_dir = build(root, build_dir, env)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(build_dir, "work", "%s-%d" % (tag, os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    command = [os.path.join(cmake_dir, "plt-perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--serve-bin", os.path.join(cmake_dir, "plt-serve"),
               "--shard-bin", os.path.join(cmake_dir, "plt-shard"),
               "--work-dir", work_dir,
               "--trace-out", os.path.join(trace_dir, tag + ".json"),
               "--scale", repr(args.scale),
               "--source", "commit=%s sha256=%s" % (git_commit(root), source_digest(root))]
    if args.inject_wrong_answer:
        command.append("--inject-wrong-answer")
    sys.stdout.flush()
    # Its own process group, so the daemon and shard workers it starts can be
    # stopped with it if it has to be killed.
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(child)
        shutil.rmtree(work_dir, ignore_errors=True)
    if code is None:
        fail("plt-perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


def stop_group(child):
    """Kills whatever is left of plt-perfbench's process group and waits for it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
