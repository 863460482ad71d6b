#!/usr/bin/env python3
"""Build the dsas benchmark harness from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--out-dir DIR]

W is paging_sweep, freelist_churn or multiprog_device.  Run from the root
of a checkout: the script builds perfbench/main.exe with dune (release
profile, into .bench_build, dune cache off so nothing is written outside
the checkout), then runs it with the same arguments, adding the committed
digests (perfbench/digests.txt) and the output directory for traced runs
(perfbench/_out).  The last line of standard output is the JSON result.
Exits non-zero if the sources are missing, the build fails, or any cell
fails a check.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, stdout=None):
    """Run cmd in its own process group; on timeout kill the whole group.
    Returns the exit code, or None on timeout.  Always waits for exit."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True,
                            env=dict(os.environ, DUNE_CACHE="disabled"))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s: the simulator sources are missing" % ROOT,
              file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/main.exe"]
    code = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print("perfbench: build failed (%s)" % ("timeout" if code is None else code),
              file=sys.stderr)
        return 2
    args = list(argv)
    if "--digests" not in args:
        args += ["--digests", os.path.join(HERE, "digests.txt")]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(HERE, "_out")]
    sys.stdout.flush()
    code = run([EXE] + args, RUN_TIMEOUT_S)
    if code is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
