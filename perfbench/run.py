#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paged-analytics --seed 1 --seconds 20 --trace 0

All arguments go to the benchmark binary (see perfbench/README.md).
The build and its Go caches stay under .bench_build/ in the root.

    python3 perfbench/run.py --overhead --workload NAME --seed N --seconds S

runs the workload untraced and traced with the same seed and prints
each end-to-end metric of both runs and the difference: the tracing
overhead.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # The go command's telemetry and config live under the user
        # config dir; keep them in the build directory too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env, check=True,
                   stdout=sys.stderr)


def record(args):
    """Run the binary and return the end-to-end part of its record line."""
    out = subprocess.run([BIN] + args, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    for line in out.splitlines():
        if line.startswith('{"record"'):
            return json.loads(line)["record"]["end_to_end"]
    raise SystemExit("perfbench: no record line in output")


def overhead(args):
    base = record(args + ["--trace", "0"])
    traced = record(args + ["--trace", "1"])
    print(f"{'metric':<18} {'untraced':>14} {'traced':>14} {'overhead':>9}")
    for name, m in base.items():
        u, t = m["median"], traced[name]["median"]
        pct = 100 * (t - u) / u if u else float("nan")
        print(f"{name:<18} {u:>14.6g} {t:>14.6g} {pct:>8.1f}%")


def main():
    args = sys.argv[1:]
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if "--overhead" in args:
        args.remove("--overhead")
        overhead(args)
        return 0
    os.chdir(ROOT)
    os.execv(BIN, [BIN] + args)


if __name__ == "__main__":
    sys.exit(main())
