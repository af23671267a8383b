#!/usr/bin/env python3
"""Build and run the MCFuser benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile|serve|decode \
        --seed N --seconds N --trace 0|1

Builds `perfbench/` (a Cargo package of its own) from source in release
mode, with the repository's `[profile.release]` table mirrored into the
build, then runs one workload. The last line of standard output is the
result object: `correct`, `attempted`, `failed` and `metrics` (every
end-to-end metric with `--trace 0`, every per-layer metric with
`--trace 1`). Exits non-zero, printing no result, when the repository is
missing, the build fails, or a check of the run fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tomllib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def profile_env():
    """CARGO_PROFILE_RELEASE_* variables mirroring the repository's
    `[profile.release]`, so the benchmark builds at the optimization
    level the repository ships. The opt-level is always set, to Cargo's
    release default when the repository does not pin one, so it
    overrides the pin in perfbench/Cargo.toml."""
    manifest = ROOT / "Cargo.toml"
    try:
        with open(manifest, "rb") as f:
            table = tomllib.load(f).get("profile", {}).get("release", {})
    except (OSError, tomllib.TOMLDecodeError) as e:
        fail(f"cannot read {manifest}: {e}")
    env = {"CARGO_PROFILE_RELEASE_OPT_LEVEL": "3"}
    for key, value in table.items():
        if isinstance(value, (bool, int, str)):
            name = "CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")
            env[name] = str(value).lower() if isinstance(value, bool) else str(value)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["compile", "serve", "decode"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no MCFuser workspace at {ROOT}")

    env = dict(os.environ)
    env.update(profile_env())
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(target / "perfbench-out"),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(line for line in lines if not line.startswith("{")))
        fail(f"{args.workload} run failed (exit {run.returncode})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
