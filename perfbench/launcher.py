"""Start the benchmark's commands one at a time and report how each ended.

The kernel reports a child's peak RSS (``wait4``) as at least its parent's
RSS at the fork, so the benchmark, which is larger than a bare interpreter,
starts its jobs from this small process instead of from itself.

Reads one JSON request per line on stdin, {"cmd", "cwd", "out", "err",
"timeout"}, runs the command with stdout and stderr sent to the files "out"
and "err", and writes one JSON reply per line: {"code", "wall_s", "rss_mb",
"timed_out"}.  The command is killed after "timeout" seconds.
"""

import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fds = [os.open(os.devnull, os.O_RDONLY), os.open(req["out"], flags, 0o644),
           os.open(req["err"], flags, 0o644)]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.chdir(req["cwd"])
            os.execv(req["cmd"][0], req["cmd"])
        finally:
            os._exit(127)
    for fd in fds:
        os.close(fd)
    killed = []

    def kill(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": time.perf_counter() - start,
            "rss_mb": usage.ru_maxrss / 1024, "timed_out": bool(killed)}


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
