#!/usr/bin/env python3
"""Build the program and the benchmark from this checkout, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds ../src plus the perfbench binary (Release, at most
nproc compile jobs) into .bench_build/perfbench under the checkout root, so
every run measures the sources it sits next to. The last line of standard
output is the binary's JSON result. A failed build, run or output check
exits non-zero and names the workload and the step, without a result line.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fio_frag_mix", "kv_ycsb_rack", "fleet_openloop", "switch_pipeline")
# A run must end well inside three minutes; the binary is stopped after this.
RUN_TIMEOUT_S = 170


def fail(workload, step, detail):
    print(f"perfbench: workload {workload}: {step} failed: {detail}", file=sys.stderr)
    sys.exit(2)


def build(workload):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(("configure", ["cmake", "-S", PKG, "-B", BUILD,
                                    "-G", "Unix Makefiles",
                                    "-DCMAKE_BUILD_TYPE=Release"]))
    steps.append(("build", ["cmake", "--build", BUILD, "-j", jobs]))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step, cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as e:
            fail(workload, step, str(e))
        if rc != 0:
            fail(workload, step, f"{cmd[0]} exited with code {rc}")


def git_provenance():
    """Commit and dirty flag of the checkout, or 'unknown' outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+dirty" if dirty else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail(a.workload, "arguments", "--seed must be >= 0 and --seconds > 0")
    build(a.workload)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--git", git_provenance()]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(a.workload, "run", f"no result within {RUN_TIMEOUT_S} s")
    if rc != 0:
        fail(a.workload, "run", f"perfbench exited with code {rc}")


if __name__ == "__main__":
    main()
