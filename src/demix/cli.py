"""Command-line interface: `demix <subcommand>`.

Exit codes: 0 on success, otherwise the failing error class decides
(validation 2, archive 3, training 4, metrics 5, search 6, pipeline 7);
a size that memory cannot hold, such as a model too wide for it, exits 8.
Every command exits 1 when the reader of its standard output goes away.

Importing this module before numpy sets OPENBLAS_NUM_THREADS=1 for the process
and its children, unless the variable is already set, so that `demix run` and
`demix merge` can fork a child to share their work (see `demix.forking`).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

# Read when numpy loads OpenBLAS, which the import of `pipeline` below does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, merge_engine, pipeline
from .config import load_config
from .dedup import dedup_corpus
from .errors import DemixError, NonFiniteError, ValidationError
from .merge_engine import MixtureRatio
from .tensor_store import atomic_write, load_archive, save_archive


def _parse_ratio(text: str, candidate_ids: list[str]) -> MixtureRatio:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"--ratio expects comma-separated numbers, got {text!r}") from None
    return MixtureRatio(weights=weights, candidate_ids=candidate_ids)


def _cmd_merge(args) -> int:
    paths = [Path(p) for p in args.components.split(",")]
    # load_archive still maps each archive and checks its header, index and
    # bounds, as for every other reader (perfbench's merge_10m trace requires
    # the call). Its finiteness pass is skipped: the merge reads each value
    # once, and its check on every merged block covers the inputs under it.
    components = [load_archive(p, check_values=False) for p in paths]
    # An archive's id is its file stem, or its path where two stems are the
    # same; the merge sums in id order, so ids fix the result's last bits.
    candidate_ids = [p.stem for p in paths]
    if len(set(candidate_ids)) < len(candidate_ids):
        candidate_ids = [str(p) for p in paths]
    ratio = _parse_ratio(args.ratio, candidate_ids)
    merged = merge_engine.merge(components, ratio, model_id="merged")
    try:
        save_archive(merged, args.out, metadata={"method": args.method, "ratio": args.ratio})
    except NonFiniteError:
        # Name the first archive that holds a non-finite value, as a checked
        # load does; if none does, the merge itself overflowed.
        for path in paths:
            load_archive(path)
        raise
    print(f"wrote {args.out}")
    return 0


def _read_corpus(path) -> list[tuple[str, str]]:
    """(id, text) of each non-blank line of a UTF-8 JSONL corpus."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # "\n", "\r\n" and "\r" each end a line, as read below
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from None
    docs = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}:{number}: not JSON: {exc}") from None
        if not (isinstance(doc, dict) and all(isinstance(doc.get(k), str) for k in ("id", "text"))):
            raise ValidationError(f'{path}:{number}: expected an object with string "id" and "text"')
        try:
            doc["text"].encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"{path}:{number}: text escapes a lone surrogate") from None
        docs.append((doc["id"], doc["text"]))
    return docs


def _cmd_dedup(args) -> int:
    docs = _read_corpus(args.input)
    result = dedup_corpus(docs)
    pipeline.dump_json(args.report, result.to_report())
    if args.out:
        kept = set(result.kept_ids)
        with atomic_write(args.out) as fh:
            fh.writelines(
                (json.dumps({"id": doc_id, "text": text}, sort_keys=True) + "\n").encode("utf-8")
                for doc_id, text in docs
                if doc_id in kept
            )
    print(f"kept {len(result.kept_ids)}, removed {len(result.removed_ids)}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = pipeline.run_pipeline(config, run_root=args.run_root)
    print(f"run dir: {manifest.run_dir}")
    for name, record in manifest.stages.items():
        flag = "ran" if record.get("recomputed") else "cached"
        print(f"  {name}: {record['status']} ({flag})")
    report = pipeline.load_report(manifest)
    print(pipeline.format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"demix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    merge = sub.add_parser("merge", help="merge component archives at a mixture ratio")
    merge.add_argument(
        "--method", default="linear", choices=["linear"],
        help="linear, the only method; kept so that command lines that pass it, "
        "perfbench's among them, keep working",
    )
    merge.add_argument("--ratio", required=True, help="comma-separated weights")
    merge.add_argument("--components", required=True, help="comma-separated archive paths")
    merge.add_argument("--out", required=True)
    merge.set_defaults(fn=_cmd_merge)

    dedup = sub.add_parser(
        "dedup", help="exact + fuzzy deduplication of a JSONL corpus", description=(
            "Deduplicate a JSONL corpus of {\"id\", \"text\"} objects, keeping the earliest "
            "document of every cluster of exact or near duplicates."))
    dedup.add_argument("--in", dest="input", required=True)
    dedup.add_argument("--report", required=True)
    dedup.add_argument("--out", help="write kept documents here")
    dedup.set_defaults(fn=_cmd_dedup)

    run = sub.add_parser("run", help="run the full pipeline from a config file", description=(
        "Run the full pipeline from a config file. BLAS gets one thread unless "
        "OPENBLAS_NUM_THREADS is set; with one, on Linux with two or more CPUs, a forked child "
        "runs the references and consistency stages beside the search. It prints the "
        "report; report.json in the run directory holds it in machine-readable form."))
    run.add_argument("--config", required=True)
    run.add_argument("--run-root", default="runs", help="run directory root (default: runs)")
    run.set_defaults(fn=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`demix run | head -1`). As the
        # `signal` module docs advise, point stdout at devnull so that the
        # interpreter's final flush does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except DemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 8


if __name__ == "__main__":
    sys.exit(main())
