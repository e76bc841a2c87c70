"""Digests of every result file of four experiment runs, a partial rerun of
each, and two dedups.

Usage, from the root of a checkout:

    python3 tests/result_digests.py > digests.txt

Runs the whole pipeline (`demix.pipeline.run_pipeline`) on the default lab
(the empty config) and on the wide lab (8 domains, d=256, a one-hidden-layer
MLP) at experiment seeds 0 and 1, each in a fresh temporary directory, and
prints one `<lab> <seed> <file> <sha256>` line per file the run wrote, except
the manifest, which records times. It then deletes `references.csv` and
`search_result.json`, runs again, and prints `<lab> <seed> rerun recomputed
<stages>` and a `<lab> <seed> rerun <file> <sha256>` line per file. Then it
runs `demix dedup` on the benchmark's `dedup_corpus` corpora
(`perfbench/inputs.py`, imported and only read) at seeds 0 and 1, and prints
`dedup <seed> <file> <sha256>` for the report and the kept documents.
Last it saves the benchmark's `merge_10m` components (`inputs.merge_inputs`
at seed 0, full size, so every tensor spans many blocks of the merge kernel),
runs `demix merge` at each of their distinct ratios and prints
`merge <ratio#> <sha256>` for each merged archive. Then it writes a NaN over
the last value of the second component, which a forked merge reaches in its
child's half of the payload, runs `demix merge` once more and prints `merge
nan exit <code>` and `merge nan stderr <message>`, with the temporary
directory shown as `<tmp>`, so an error that changes shows too. It puts that
value back, writes a NaN over the first value of the third component, in the
half that the merging process computes itself, and prints `merge nan_first_half
exit` and `merge nan_first_half stderr` the same way.
Last it rewrites the `lab.npz` of the default lab's seed-0 run with its first
benchmark's y one row short, runs `demix run` on that run directory, and
prints `lab malformed exit <code>` and `lab malformed stderr <message>` the
same way, or `lab malformed raised <type>` if the command raised instead.
Then it writes the lab back with that y whole but its first value NaN, runs
`demix run` again and prints `lab nan exit`, `lab nan stderr` (or `lab nan
raised`) the same way. Last it writes the lab back whole but with its
candidate `dom2` renamed `domX`, runs `demix run` again and prints `lab
renamed exit` and `lab renamed stderr` (or `lab renamed raised`) the same
way. Two checkouts, or two runs of one checkout under
different settings, made the same results when their outputs are equal.

The runs follow the environment as `demix run` does: OPENBLAS_NUM_THREADS
defaults to 1, so a cold run and the partial rerun fork the references and
consistency stages beside the search, and each merge forks a child that writes
the second half of its archive; with OPENBLAS_NUM_THREADS=2 every stage and
every merge runs in-process.
The name has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads, as demix.cli does
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import numpy as np  # noqa: E402
from demix import pipeline  # noqa: E402
from demix.cli import main as demix_main  # noqa: E402
from demix.config import load_config  # noqa: E402
from demix.tensor_store import ParameterSet, save_archive  # noqa: E402

LABS = {
    "default": "",
    "wide": "[lab]\nn_domains = 8\nfeature_dim = 256\nfamily = mlp_1hidden\nhidden_units = 64\n",
}
SEEDS = (0, 1)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def payload_start(path: Path) -> int:
    """The file offset of an archive's payload: preamble plus declared header length."""
    with open(path, "rb") as fh:
        return 16 + struct.unpack("<Q", fh.read(16)[8:])[0]


def print_digests(prefix: str, run_dir: Path) -> None:
    for path in sorted(run_dir.iterdir()):
        if path.name not in ("manifest.json", ".lock"):
            print(prefix, path.name, sha256(path))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for lab, section in LABS.items():
            for seed in SEEDS:
                config_path = Path(tmp) / f"{lab}_{seed}.ini"
                config_path.write_text(f"[experiment]\nseed = {seed}\n{section}")
                run_root = str(Path(tmp) / f"runs_{lab}_{seed}")
                manifest = pipeline.run_pipeline(load_config(config_path), run_root=run_root)
                run_dir = Path(manifest.run_dir)
                print_digests(f"{lab} {seed}", run_dir)
                # Both branches stale again: a partial rerun, forked where a cold run forks.
                for name in ("references.csv", "search_result.json"):
                    (run_dir / name).unlink()
                manifest = pipeline.run_pipeline(load_config(config_path), run_root=run_root)
                recomputed = [name for name, record in manifest.stages.items() if record["recomputed"]]
                print(lab, seed, "rerun recomputed", ",".join(recomputed))
                print_digests(f"{lab} {seed} rerun", run_dir)
        for seed in SEEDS:
            work = Path(tmp) / f"dedup_{seed}"
            work.mkdir()
            corpus, report, kept = (work / name for name in
                                    ("corpus.jsonl", "dedup_report.json", "dedup_kept.jsonl"))
            inputs.write_jsonl(corpus, inputs.dedup_corpus(seed, small=False)[0])
            argv = ["dedup", "--in", str(corpus), "--report", str(report), "--out", str(kept)]
            with contextlib.redirect_stdout(io.StringIO()):  # its "kept ..., removed ..." line
                if demix_main(argv) != 0:
                    sys.exit(f"demix {' '.join(argv)} failed")
            for path in (report, kept):
                print("dedup", seed, path.name, sha256(path))
        work = Path(tmp) / "merge"
        work.mkdir()
        components, ratios = inputs.merge_inputs(0, small=False)
        paths = [work / f"{comp_id}.dmxt" for comp_id in components]
        for path, arrays in zip(paths, components.values()):
            save_archive(ParameterSet.from_arrays(arrays, model_id=path.stem), path)
        del components, arrays
        for i, ratio in enumerate(ratios):
            out = work / f"merged_{i}.dmxt"
            argv = ["merge", "--method", "linear", "--ratio", inputs.ratio_arg(ratio),
                    "--components", ",".join(map(str, paths)), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):  # its "wrote ..." line
                if demix_main(argv) != 0:
                    sys.exit(f"demix {' '.join(argv)} failed")
            print("merge", i, sha256(out))
        # The second component's last value, which a forked merge reaches in its
        # child, then the third's first, which it reaches in this process; each
        # put back after its merge.
        for label, path, seek in (("nan", paths[1], (-8, os.SEEK_END)),
                                  ("nan_first_half", paths[2], (payload_start(paths[2]), os.SEEK_SET))):
            with open(path, "r+b") as fh:
                fh.seek(*seek)
                value = fh.read(8)
                fh.seek(-8, os.SEEK_CUR)
                fh.write(struct.pack("<d", float("nan")))
            argv = ["merge", "--ratio", inputs.ratio_arg(ratios[0]), "--components",
                    ",".join(map(str, paths)), "--out", str(work / "merged_nan.dmxt")]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = demix_main(argv)
            print("merge", label, "exit", code)
            print("merge", label, "stderr", stderr.getvalue().replace(tmp, "<tmp>").rstrip("\n"))
            with open(path, "r+b") as fh:
                fh.seek(*seek)
                fh.write(value)
        run_root = Path(tmp) / "runs_default_0"
        (lab,) = run_root.glob("*/lab.npz")
        with np.load(lab) as data:
            finished = dict(data)
        nan_y = finished["bench_0_y"].copy()
        nan_y[0] = np.nan
        meta = json.loads(finished["meta"].tobytes())
        meta["candidates"][2]["id"] = "domX"
        renamed = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        argv = ["run", "--config", str(Path(tmp) / "default_0.ini"), "--run-root", str(run_root)]
        for name, change in (("malformed", {"bench_0_y": finished["bench_0_y"][:-1]}),
                             ("nan", {"bench_0_y": nan_y}), ("renamed", {"meta": renamed})):
            with open(lab, "wb") as fh:
                np.savez(fh, **{**finished, **change})
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = demix_main(argv)
            except Exception as exc:  # older checkouts let this error escape main
                print(f"lab {name} raised", type(exc).__name__)
            else:
                print(f"lab {name} exit", code)
                print(f"lab {name} stderr", stderr.getvalue().replace(tmp, "<tmp>").rstrip("\n"))


if __name__ == "__main__":
    main()
