#!/usr/bin/env python3
"""Build and run the cmtbench end-to-end benchmark from a source checkout.

Usage (from the checkout root):

    python3 cmtbench/run.py --workload proxy_volume --seed 1 --seconds 35 --trace 0
    python3 cmtbench/run.py --workload all          # every workload in turn

The solver libraries under src/ and the cmtbench binary are built with
CMake into .bench_build/cmtbench (configured once, then incremental). Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Any further arguments (--steps N, --wrong-reference) are handed to
the binary unchanged.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmtbench"
BINARY = BUILD / "cmtbench"
WORKLOADS = ["proxy_volume", "proxy_halo", "euler_particles"]
# Every run must end within this many seconds of wall time, build excluded.
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when there is one, and a digest of the sources."""
    commit = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if pathlib.Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def scratch_env():
    """Compiler and solver temporary files stay inside the checkout."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"solver sources not found under {ROOT / 'src'}; run from a "
             "full checkout")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, env=scratch_env())
        subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                       stdout=sys.stderr, check=True, env=scratch_env())
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}", 1)


def run_one(workload, args, extra):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=scratch_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result line", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args, extra = parser.parse_known_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}' "
             f"(known: {', '.join(WORKLOADS)}, all)")
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    start = time.monotonic()
    build()
    commit, digest = source_id()
    print(f"# source commit={commit} digest={digest} "
          f"build_s={time.monotonic() - start:.1f}", flush=True)

    if args.workload != "all":
        run_one(args.workload, args, extra)
        return
    # Every workload in its own process (peak RSS is per process), then one
    # combined line keyed workload.metric.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = run_one(name, args, extra)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
