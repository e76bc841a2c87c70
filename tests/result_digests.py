"""Digests of every result file of four experiment runs.

Usage, from the root of a checkout:

    python3 tests/result_digests.py > digests.txt

Runs the whole pipeline (`demix.pipeline.run_pipeline`) on the default lab
(the empty config) and on the wide lab (8 domains, d=256, a one-hidden-layer
MLP) at experiment seeds 0 and 1, each in a fresh temporary directory, and
prints one `<lab> <seed> <file> <sha256>` line per file the run wrote, except
the manifest, which records times. Two checkouts, or two runs of one checkout
under different settings, made the same results when their outputs are equal.

The runs follow the environment as `demix run` does: OPENBLAS_NUM_THREADS
defaults to 1, so a cold run forks the references and consistency stages
beside the search; with OPENBLAS_NUM_THREADS=2 every stage runs in-process.
The name has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads, as demix.cli does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from demix import pipeline  # noqa: E402
from demix.config import load_config  # noqa: E402

LABS = {
    "default": "",
    "wide": "[lab]\nn_domains = 8\nfeature_dim = 256\nfamily = mlp_1hidden\nhidden_units = 64\n",
}
SEEDS = (0, 1)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for lab, section in LABS.items():
            for seed in SEEDS:
                config_path = Path(tmp) / f"{lab}_{seed}.ini"
                config_path.write_text(f"[experiment]\nseed = {seed}\n{section}")
                manifest = pipeline.run_pipeline(
                    load_config(config_path), run_root=str(Path(tmp) / f"runs_{lab}_{seed}")
                )
                for path in sorted(Path(manifest.run_dir).iterdir()):
                    if path.name in ("manifest.json", ".lock"):
                        continue
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(lab, seed, path.name, digest)


if __name__ == "__main__":
    main()
