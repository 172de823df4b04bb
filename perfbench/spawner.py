"""Starts the benchmark's child processes; reports their times and peak memory.

run.py keeps one spawner per run and sends it every child to start.
The peak resident size that wait4 reports for a child is at least the
peak of the process that spawned it, because the child shares that
process's memory until it executes its program.  The spawner is a bare
interpreter (`python3 -I -S`, importing only os, signal, sys and time),
smaller than any child, so the peaks it reports are the children's own.

One request per line on stdin, fields separated by tabs:

    STDOUT_PATH  STDERR_PATH  TIMEOUT_S  PROGRAM  ARG...

One reply per request on stdout:

    START END EXIT_CODE MAXRSS_KB

START and END are time.monotonic() just before the spawn and just
after the child is reaped.  A child still running after TIMEOUT_S is
killed, and its exit code is then -9.
"""

import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _killer(pid):
    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # reaped just before the alarm
            pass

    return kill


def main():
    for line in sys.stdin:
        out_path, err_path, timeout, *argv = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, WRITE, 0o644),
        ]
        start = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.signal(signal.SIGALRM, _killer(pid))
        signal.setitimer(signal.ITIMER_REAL, float(timeout))
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.monotonic()
        sys.stdout.write(f"{start!r} {end!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
