"""Benchmark worker: one fresh interpreter that makes one workload's calls.

Usage: python perfbench/worker.py SPEC.json RESULT.json

The spec names the workload kind, the generated inputs, the time budget and
whether to trace. The worker times each operation, times a speed probe after
it, records only what the parent needs to check it afterwards, and writes the
result file: operations, spans (when traced), its own peak RSS and its BLAS
thread count. The parent runs every check, so apart from the probe this
process makes nothing but the workload's calls.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe
from tracer import Tracer


def digest(path) -> str:
    """128-bit BLAKE2b hex digest of a file."""
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _search(spec: dict, ops: list, tracer: Tracer | None, probe: SpeedProbe) -> None:
    """Each config runs cold in its own run root, then warm reruns of it
    follow for `rerun_block_s` (at least `min_reruns`). Warm reruns of the
    last config then fill the rest of `seconds`. Spreading the reruns over
    the whole run keeps their median from sampling one moment only."""
    from demix import pipeline
    from demix.config import load_config

    configs = [load_config(path) for path in spec["configs"]]
    start = time.perf_counter()

    def rerun(config, root) -> None:
        t0 = time.perf_counter()
        manifest = pipeline.run_pipeline(config, run_root=root)
        elapsed = time.perf_counter() - t0
        ops.append({"kind": "warm", "s": elapsed,
                    "recomputed": sum(bool(r.get("recomputed")) for r in manifest.stages.values()),
                    "report": digest(Path(manifest.run_dir) / "report.json"), "probe_s": probe()})

    for config, root in zip(configs, spec["roots"]):
        if tracer:
            tracer.op = len(ops)
        t0 = time.perf_counter()
        manifest = pipeline.run_pipeline(config, run_root=root)
        elapsed = time.perf_counter() - t0
        ops.append({"kind": "cold", "s": elapsed, "run_dir": manifest.run_dir,
                    "recomputed": sum(bool(r.get("recomputed")) for r in manifest.stages.values()),
                    "stages": len(manifest.stages), "probe_s": probe()})
        block_start, reruns = time.perf_counter(), 0
        while reruns < spec["min_reruns"] or time.perf_counter() - block_start < spec["rerun_block_s"]:
            rerun(config, root)
            reruns += 1
    while time.perf_counter() - start < spec["seconds"]:
        rerun(configs[-1], spec["roots"][-1])


def _cli_calls(spec: dict, ops: list, tracer: Tracer | None, probe: SpeedProbe) -> None:
    """Repeated `demix` command lines through `cli.main`, until the budget is
    spent (at least `min_calls`, at most one call per argv).

    With `digest_last`, the file named by each call's last argument is
    digested after the call, and deleted once `keep` calls have kept theirs,
    which bounds the disk that large outputs take."""
    from demix import cli

    start = time.perf_counter()
    argvs = spec["argvs"]
    while len(ops) < spec["min_calls"] or (
        time.perf_counter() - start < spec["seconds"] and len(ops) < len(argvs)
    ):
        argv = argvs[len(ops)]
        if tracer:
            tracer.op = len(ops)
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        op = {"kind": "call", "s": elapsed, "code": code}
        out = Path(argv[-1])
        if spec.get("digest_last") and out.exists():
            op["digest"] = digest(out)
            if len(ops) >= spec["keep"]:
                out.unlink()
        op["probe_s"] = probe()
        ops.append(op)


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    probe = SpeedProbe()
    first_probe_s = probe()
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    ops: list = []
    error = None
    restored = None
    try:
        {"search": _search, "cli": _cli_calls}[spec["kind"]](spec, ops, tracer, probe)
    except Exception:
        error = traceback.format_exc()
    finally:
        if tracer:
            restored = tracer.restore()
    result = {
        "ops": ops,
        "first_probe_s": first_probe_s,
        "error": error,
        "spans": tracer.spans if tracer else [],
        "restored": restored,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": _blas_threads(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
