#!/usr/bin/env python3
"""Builds the zoo benchmark from source and runs one workload.

Usage (from the repository root):
    python3 zoobench/run.py --workload compile|classify|serve \
        --seed N --seconds S --trace 0|1 [--inject-fault]

The build goes to $CARGO_TARGET_DIR/zoobench (default .bench_build/zoobench)
under the repository root, as do the run records and traces. Build output
goes to stderr; the last line of stdout is the benchmark's result object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir, jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("zoobench: fpgasim sources not found under " + ROOT)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
        ["cmake", "--build", build_dir, "-j", str(jobs)],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("zoobench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["compile", "classify", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-check: flip one expected word and corrupt the engine "
                             "oracle; exits 0 only if both show up as failures")
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "zoobench")
    jobs = len(os.sched_getaffinity(0))
    build(os.path.join(out_dir, "build"), jobs)

    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    # Hermetic: no store directory or engine sizing from the caller, one
    # pool no wider than the CPUs this process may use, temp files in-tree.
    for knob in ("FPGASIM_STORE_DIR", "FPGASIM_STORE_CACHE_BYTES", "FPGASIM_ENGINE_CONTEXTS"):
        env.pop(knob, None)
    env["FPGASIM_THREADS"] = str(jobs)
    env["TMPDIR"] = tmp_dir

    cmd = [os.path.join(out_dir, "build", "zoobench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", source_digest()]
    if args.inject_fault:
        cmd.append("--inject-fault")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
