#!/usr/bin/env python3
"""Build phasefold and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the release `phasefold` binary from the repository's workspace (the
daemon the serve workloads start) and the `perfbench` package with the same
release profile, both under $CARGO_TARGET_DIR (default `.bench_build`).
Build output goes to standard error; standard output is the benchmark's,
whose last line is the JSON result.
"""

import json
import os
import re
import subprocess
import sys
import tomllib


def toml_key(key):
    return key if re.fullmatch(r"[A-Za-z0-9_-]+", key) else json.dumps(key)


def toml_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    return json.dumps(value)


def profile_flags(root):
    """`--config` flags that give the benchmark package the repository's
    own `[profile.release]`, so a profile change reaches both builds."""
    with open(os.path.join(root, "Cargo.toml"), "rb") as f:
        manifest = tomllib.load(f)
    flags = []

    def walk(prefix, table):
        for key, value in table.items():
            path = f"{prefix}.{toml_key(key)}"
            if isinstance(value, dict):
                walk(path, value)
            else:
                flags.extend(["--config", f"{path}={toml_value(value)}"])

    walk("profile.release", manifest.get("profile", {}).get("release", {}))
    return flags


def cargo(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(["cargo", *args], env=env, stdout=sys.stderr).returncode == 0


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bench_target = os.path.join(target, "perfbench")
    try:
        flags = profile_flags(root)
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"perfbench: cannot read the workspace manifest: {e}", file=sys.stderr)
        return 1
    if not cargo(["build", "--release", "--offline", "-p", "phasefold-cli", "--bin", "phasefold"], target):
        print("perfbench: building phasefold failed", file=sys.stderr)
        return 1
    manifest = os.path.join(here, "Cargo.toml")
    if not cargo(["build", "--release", "--offline", "--manifest-path", manifest, *flags], bench_target):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 1
    phasefold = os.path.join(target, "release", "phasefold")
    bench = os.path.join(bench_target, "release", "perfbench")
    return subprocess.run([bench, *sys.argv[1:], "--phasefold", phasefold]).returncode


if __name__ == "__main__":
    sys.exit(main())
