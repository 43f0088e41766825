"""Run one command under a deadline; print its wall time, exit code and peak RSS.

Usage: python3 perfbench/launch.py DEADLINE_S -- CMD...

Prints one JSON line with ``wall_s``, ``code`` (null when the command was
killed at the deadline) and ``maxrss_mb``. The command's standard output is
discarded and its standard error is passed through.

On Linux a child's max-RSS starts from the RSS of the process that spawned
it. The benchmark process holds numpy, scipy and the graphs, so jobs are
spawned from this small process instead, and their max-RSS is their own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    deadline, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py DEADLINE_S -- CMD...")
    killed = threading.Event()
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(float(deadline), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else proc.returncode
    print(json.dumps({"wall_s": wall, "code": code, "maxrss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
