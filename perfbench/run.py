#!/usr/bin/env python3
"""Build and run the hpcarbon benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
one workload. Build output goes to stderr; the benchmark's result object
is the last line of stdout. Spans of traced runs are written to the build
directory's traces/ folder. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no hpcarbon sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench",
           "perfbench_selftest", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main(argv):
    out = build_dir()
    build(out)
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "perfbench")] + argv + ["--trace-dir", traces]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
