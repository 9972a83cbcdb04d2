"""Run one command and write its exit code, wall time and peak memory as JSON.

    python3 bench/spawn.py TIMEOUT_S RESULT_JSON command [arguments ...]

The harness starts every svir process through this small one.  Linux keeps
a process's peak resident set across fork and exec, so a child forked from
the larger harness process would report the harness's peak instead of its
own.  The command is killed after TIMEOUT_S seconds; its exit code is then
-9.
"""

import json
import os
import signal
import sys
import time


def main(argv):
    timeout, result_path, cmd = float(argv[0]), argv[1], argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump({"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "rss_mb": usage.ru_maxrss / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
