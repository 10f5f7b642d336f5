#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload advise|log_merge|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark executable and
the CLI from source with dune (build output goes to standard error),
then runs the workload. The last line of standard output is the JSON
result. A checkout that cannot be built, or a run the benchmark could
not drive, exits non-zero without printing a result. Workloads, metrics
and bounds are listed in BENCHMARK.json; results and spans are also
written under perfbench/out/.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("advise", "log_merge", "serve")
TARGETS = ("./perfbench/perfbench.exe", "./bin/index_merge_cli.exe")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_rev():
    """The git revision, or a hash of the sources when not in git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail("no %s here: run from the root of a repository checkout" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", ".", *TARGETS],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev()]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the daemon it spawns.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(proc)
    if code is None:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
