"""Run one child process to completion and collect its own resource usage.

The child is reaped with os.wait4, so the peak RSS returned belongs to that
child alone (plus any grandchildren it reaped itself), unlike
RUSAGE_CHILDREN, which only keeps the maximum over every child so far.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    code: int
    start: float  # time.monotonic() just before the spawn
    end: float  # time.monotonic() just after the child was reaped
    maxrss_mb: float
    timed_out: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run(cmd, *, env, cwd, stdout_path, timeout: float,
        own_group: bool = False) -> ChildResult:
    """Run `cmd` with stdout written to `stdout_path`; stderr is inherited.

    A child that outlives `timeout` seconds is killed. With `own_group`, the
    child leads a new process group and the whole group is killed, which
    also stops any processes the child started.
    """
    with open(stdout_path, "wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                start_new_session=own_group)
    expired = threading.Event()

    def kill():
        expired.set()
        _kill(proc.pid, own_group)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill(proc.pid, own_group)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(code=proc.returncode, start=start, end=end,
                       maxrss_mb=usage.ru_maxrss / 1024.0,
                       timed_out=expired.is_set())


def _kill(pid: int, group: bool) -> None:
    try:
        if group:
            os.killpg(pid, signal.SIGKILL)
        else:
            os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
