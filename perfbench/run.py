#!/usr/bin/env python3
"""Build the benchmark and regiond from this checkout, then run one workload.

    python3 perfbench/run.py --workload cable-1x --seed 7 --seconds 40 --trace 0

Everything the build and the run write stays under .bench_build/ at the
root of the checkout (Go build cache included). The last line of standard
output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    env = dict(os.environ)
    env.update(
        # The go command keeps its config and telemetry counters under
        # the user config directory; point that into the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    return env


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of every Go source and module file in it."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return "commit " + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256 " + h.hexdigest()


def build(env, deadline):
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BUILD, "regiond"), "./cmd/regiond"]),
        (HERE, ["go", "build", "-o", os.path.join(BUILD, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                                 timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        except OSError as e:
            fail("cannot run go: %s" % e)
        if out.returncode != 0:
            fail("build failed: %s\n%s%s" % (" ".join(cmd), out.stdout, out.stderr))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "cmd", "regiond"))):
        fail("no repository source next to %s to build" % HERE)

    env = go_env()
    for d in ("config", "gocache", "gomodcache", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    build(env, time.monotonic() + BUILD_TIMEOUT_S)

    # Spill directories of a run that was killed are stale.
    work = os.path.join(BUILD, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    cmd = [
        os.path.join(BUILD, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-regiond", os.path.join(BUILD, "regiond"),
        "-workdir", work,
        "-source", source_id(),
    ]
    sys.stdout.flush()
    # The benchmark and any regiond it starts share one process group,
    # which is killed once the benchmark has ended, however it ended.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds, killed" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
