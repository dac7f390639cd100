#!/usr/bin/env python3
"""Builds the wasteprof benchmark from source and runs it.

    python3 perfbench/run.py --workload <cold_profile|live_browse|out_of_core> \
        --seed <n> --seconds <s> --trace <0|1> [--inject-faults]

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build), build output goes to standard error, and the last
line of standard output is the benchmark's JSON result. The source digest
and, in a git checkout, the git revision are handed to the benchmark for
its provenance stamp.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# What the benchmark's binary is built from.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]


def source_digest() -> str:
    h = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = sorted(f for f in path.rglob("*") if f.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    env["PERFBENCH_GIT_REV"] = git_rev()
    binary = target / "release" / "perfbench"
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(binary, [str(binary), *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())
