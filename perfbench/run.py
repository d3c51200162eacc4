#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload iperf-flows --seed 1 --seconds 10 --trace 0

Builds the `fns-perfbench` package with the repository's own release
profile, records a host fingerprint, runs the benchmark binary and passes
its output through. The last line of stdout is the binary's result object.
Exit status: the binary's (0 ok, 1 a correctness check failed, 2 bad
arguments); 3 when the build fails or the binary's result is missing.
"""

import json
import os
import platform
import subprocess
import sys
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT_MANIFEST = HERE.parent / "Cargo.toml"
# Seconds the binary may take beyond its measuring time before it is killed.
GRACE_SECONDS = 120


def release_profile(manifest):
    """The root manifest's [profile.release] table, as cargo env overrides.

    The benchmark is a workspace of its own, so cargo would not apply the
    repository's release profile to it; passing the same keys through the
    environment builds the simulator exactly as the repository ships it.
    """
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = {}
    for key, value in profile.items():
        if isinstance(value, dict):
            continue
        name = "CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")
        env[name] = str(value).lower() if isinstance(value, bool) else str(value)
    return profile, env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main(argv):
    if not ROOT_MANIFEST.is_file():
        print(f"run.py: {ROOT_MANIFEST} not found; run from a repository checkout",
              file=sys.stderr)
        return 3
    profile, profile_env = release_profile(ROOT_MANIFEST)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), **profile_env)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 3

    out_dir = target / "perfbench"
    fingerprint = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": rustc_version(),
        "release_profile": profile,
        "workload": arg_value(argv, "--workload"),
        "seed": arg_value(argv, "--seed"),
    }
    print("host " + json.dumps(fingerprint, sort_keys=True), flush=True)

    seconds = arg_value(argv, "--seconds")
    timeout = (int(seconds) if seconds and seconds.isdigit() else 60) + GRACE_SECONDS
    binary = target / "release" / "fns-perfbench"
    try:
        run = subprocess.run(
            [str(binary), *argv, "--out-dir", str(out_dir)],
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {timeout} s and was killed", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(run.stdout)
        print(f"run.py: no result line (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 3
    for line in lines:
        print(line)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps({"host": fingerprint, "args": argv, "result": result}) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
