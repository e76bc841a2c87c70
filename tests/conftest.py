"""Test-session setup, run before any test module imports numpy, and the
fixtures of the tests that fork."""

import os

# As the `demix` command does: one BLAS thread, so that runs in the test
# process may fork (see `demix.forking`) and the tests of the forked child
# run on multi-CPU hosts. A value set in the environment is kept, so
# OPENBLAS_NUM_THREADS=2 covers the in-process path.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Loaded after the pin: whether its BLAS starts threads decides `needs_fork`.
import numpy  # noqa: E402, F401
import pytest  # noqa: E402

from demix import forking  # noqa: E402

# A cold run forks a child for the references and consistency stages only in
# a single-threaded process (one BLAS thread, as set above unless the
# environment says otherwise) with two CPUs; the tests that need the child
# skip elsewhere, and every other test covers whichever path the process takes.
needs_fork = pytest.mark.skipif(
    not forking.can_fork(), reason="forks only from a single-threaded process with two CPUs"
)


@pytest.fixture()
def forks(monkeypatch) -> list[int]:
    """The pids of the children that ``os.fork`` starts from now on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def in_child_only(fn):
    """``fn`` wrapped to run only in a forked child, never in the test process."""
    test_pid = os.getpid()

    def wrapped(*args, **kwargs):
        assert os.getpid() != test_pid, "the stage ran in the test process"
        return fn(*args, **kwargs)

    return wrapped
