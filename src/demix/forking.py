"""Work in a forked child beside the calling process.

:func:`fork` starts a child that runs one function and writes the bytes it
returns to a pipe; :func:`join` reads them and reaps the child. Two callers
use it. The pipeline runs its references and consistency stages in such a
child while it searches (:mod:`demix.pipeline`), and
:func:`~demix.tensor_store.save_archive` has one compute and write the second
half of a merged archive while the caller writes the first (``demix merge``).
Each forks only where :func:`can_fork` holds: on Linux, from a process with one
OS thread (a fork copies only the calling thread, so BLAS worker threads
count, and the CLI pins BLAS to one), that may run on at least two CPUs. The
child dies with its parent (``PR_SET_PDEATHSIG``) and leaves by ``os._exit``,
so it runs none of the parent's cleanup and flushes none of its buffers. A
caller whose fork fails (:func:`fork` returns None) does the work itself.
"""

from __future__ import annotations

import os
import sys


def can_fork() -> bool:
    """Whether this process can run work in a forked child beside its own:
    it is on Linux, has one OS thread (a fork copies only the calling thread,
    and BLAS worker threads count, so the CLI pins BLAS to one), and may run
    on at least two CPUs."""
    return (
        sys.platform == "linux"
        and len(os.listdir("/proc/self/task")) == 1
        and len(os.sched_getaffinity(0)) >= 2
    )


def fork(work) -> tuple[int, int] | None:
    """Start a child that calls ``work()`` and writes the bytes it returns to
    a pipe; returns the child's pid and the pipe's read end, or None if the
    fork failed. The child dies with its parent, never returns, and leaves by
    ``os._exit``, so it runs none of the parent's cleanup."""
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN at a process limit, or ENOMEM: see fork(2)
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        import ctypes
        import signal

        os.close(read_fd)
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
        if os.getppid() == parent:  # else the parent died before prctl
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(work())
            code = 0
    finally:
        os._exit(code)


def join(child: tuple[int, int]) -> tuple[bytes, str | None]:
    """Read everything the child started by :func:`fork` wrote, then reap it,
    whatever happens; returns the bytes and None if ``work()`` returned and all
    its bytes were written, or else how the child ended: "was killed by signal
    N" or "exited with code N"."""
    pid, read_fd = child
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if not status:
        return data, None
    code = os.waitstatus_to_exitcode(status)
    return data, f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
