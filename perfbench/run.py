#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload yago_cold --seed 1 --seconds 12 --trace 0

The last line of standard output is the result object
({"correct", "attempted", "failed", "metrics"}); the line before it holds
the run's metadata. `--held-out` runs on the held-out seed instead of
`--seed`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
WORKLOADS = ("yago_cold", "uniprot_cold", "serve_rw")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found")


def revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d in ("lib", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, d, "**", "*"), recursive=True)):
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ next to perfbench/: run from a full checkout")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = [find_dune(), "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/" + target]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "default", "perfbench", target)


def run(cmd):
    """Run the benchmark in a process group of its own (it starts a
    calibration child), so that a timeout stops both."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true", help="run on the held-out seed")
    p.add_argument("--spans", help="write the measured phase's spans to this file (JSON lines)")
    a = p.parse_args()
    cmd = [build("bench.exe"), "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--commit", revision()]
    if a.held_out:
        cmd.append("--held-out")
    if a.spans:
        cmd += ["--spans", a.spans]
    sys.exit(run(cmd))


if __name__ == "__main__":
    main()
