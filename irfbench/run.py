#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 irfbench/run.py --workload deck_analyze --seed 1 --seconds 30 --trace 0

Builds the `irfbench` program from the checkout's sources into
$CARGO_TARGET_DIR/irfbench (default .bench_build/irfbench), pins the library's
thread count, runs one workload in its own process and passes its output
through: the last line of standard output is the run's JSON result. Exits
non-zero when the build fails, a correctness gate trips or the run overruns.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("deck_analyze", "signoff_solve")
# IRF_THREADS for every run. One thread: a multi-threaded solve waits at every
# barrier for its slowest thread, so on a shared host one slowed vCPU stalls
# the whole op, and at 4 threads the runs measured the host's neighbours
# (README "Threads"). The traced run still measures the product default, all
# cores, through par.solver_speedup.
BENCH_THREADS = 1
# Parallel jobs of the build.
MAX_BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def log(*parts):
    print("irfbench:", *parts, file=sys.stderr, flush=True)


def source_id(root):
    """The git commit, or a digest of the sources in a checkout without git."""
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "irfbench"):
        base = root / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(bench_dir, build_dir, jobs):
    """Configure once, then an incremental build of the benchmark target."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        cmd = ["cmake", "--build", str(build_dir), "--target", "irfbench", "-j", str(jobs)]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one reference map (self-test of the correctness gate)")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", root / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "irfbench"
    if not build(bench_dir, build_dir, min(MAX_BUILD_JOBS, os.cpu_count() or 1)):
        log("build failed")
        return 2

    workdir = target / "irfbench-runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("IRF_")}
    env["IRF_THREADS"] = str(BENCH_THREADS)
    cmd = [str(build_dir / "irfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--commit", source_id(root)]
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        code = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        code = 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
