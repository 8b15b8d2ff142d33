#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <fig11_social|engine|planes> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout of the repository. It builds
`perfbench/` in release mode (into $CARGO_TARGET_DIR, or `.bench_build`
in the checkout), then runs the binary, whose last stdout line is the
result JSON. It exits non-zero, without a result, when the build fails or
the run does not finish in time.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig11_social", "engine", "planes")
# Each run must end within 180 s; leave the build outside that limit.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench", "results/fig11_12"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, path).split(os.sep)
            for f in fs
        )
        for f in files:
            if f.endswith("Cargo.lock") and os.path.dirname(f) == HERE:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1][:12] + "+src-" + source_digest()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustc", rustc or "unknown",
        "--commit", commit_id(),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    if proc.returncode != 0:
        print(f"perfbench: run exited with {proc.returncode}", file=sys.stderr)
        return 5
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
