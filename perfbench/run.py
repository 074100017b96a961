#!/usr/bin/env python3
"""Build the market and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Cargo output goes to standard error;
standard output carries the benchmark's metric lines and, last, its JSON
result. Both builds go to `CARGO_TARGET_DIR` (default: `target`).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, env):
    result = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            rel = os.path.relpath(f, ROOT)
            if rel.startswith(("perfbench/target", ".")):
                continue
            digest.update(rel.encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the checkout root; run from a full checkout")
    # Both packages build into one target directory, so the benchmark
    # finds the `dauction` it spawns as providers next to itself.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["--bin", "dauction"], env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--dauction", os.path.join(release, "dauction"),
               "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
               "--source", source_id(),
               "--work-dir", os.path.join(ROOT, ".perfbench_work")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
