"""Test-session setup, run before any test module imports numpy."""

import os

# As the `demix` command does: one BLAS thread, so that runs in the test
# process may fork (see `demix.pipeline`) and the tests of the forked child
# run on multi-CPU hosts. A value set in the environment is kept, so
# OPENBLAS_NUM_THREADS=2 covers the in-process path.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
