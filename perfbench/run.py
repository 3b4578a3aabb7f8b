#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --report          # every workload; writes perfbench/record.json

The build is `dune build` of perfbench/bench.exe in the default (dev)
profile, with dune's shared cache off so that nothing is written outside
the checkout. Build output goes to stderr; the benchmark's own output,
whose last line is the JSON result, goes to stdout. See bench.ml for the
workloads and the metrics.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    sys.stderr.write(build.stdout.decode(errors="replace"))
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if "--report" in sys.argv[1:]:
        flags = subprocess.run(
            ["dune", "printenv", "--root", ".", "perfbench"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        ).stdout.decode(errors="replace")
        env["PERFBENCH_OCAMLOPT_FLAGS"] = " ".join(ocamlopt_flags(flags).split())
    report = "--report" in sys.argv[1:]
    try:
        run = subprocess.run(
            [EXE] + sys.argv[1:], env=env, timeout=None if report else RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


def ocamlopt_flags(printenv):
    """The (ocamlopt_flags ...) and (flags ...) fields of `dune printenv`."""
    keep, depth, out = False, 0, []
    for line in printenv.splitlines():
        stripped = line.strip()
        if stripped.startswith("(flags") or stripped.startswith("(ocamlopt_flags"):
            keep, depth = True, 0
        if keep:
            out.append(stripped)
            depth += stripped.count("(") - stripped.count(")")
            if depth <= 0:
                keep = False
    return " ".join(out).replace('"', "'")


if __name__ == "__main__":
    sys.exit(main())
