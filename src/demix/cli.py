"""Command-line interface: `demix <subcommand>`.

`demix lab gen|train-components|train-references` and `demix search` run the
pipeline's own stage functions and read their settings from `--config` (the
defaults without one), so they write the same artifacts as `demix run`.

Exit codes: 0 on success, otherwise the failing error class decides
(validation 2, archive 3, training 4, metrics 5, search 6, pipeline 7;
`tensor diff` exits 1 when the archives differ, and every command exits 1
when the reader of its standard output goes away).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, merge_engine, pipeline, toy_lab
from .config import ExperimentConfig, load_config
from .dedup import dedup_corpus
from .errors import DemixError, ValidationError
from .eval_metrics import consistency_report
from .merge_engine import MixtureRatio
from .pipeline import ExperimentManifest, read_score_csv
from .tensor_store import atomic_write, load_archive, read_header, save_archive


def _parse_ratio(text: str, candidate_ids: list[str]) -> MixtureRatio:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"--ratio expects comma-separated numbers, got {text!r}") from None
    return MixtureRatio(weights=weights, candidate_ids=candidate_ids)


def _config(args) -> ExperimentConfig:
    return load_config(args.config) if args.config else ExperimentConfig()


def _cmd_tensor(args) -> int:
    if args.action == "inspect":
        header = read_header(args.path)
        doc = {
            "format_version": header.format_version,
            "metadata": header.metadata,
            "tensors": [
                {"name": n, "shape": list(s), "offset": o, "length": l}
                for n, s, o, l in header.index
            ],
        }
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"format version {doc['format_version']}")
            for key, value in sorted(header.metadata.items()):
                print(f"  {key} = {value}")
            for t in doc["tensors"]:
                print(f"  {t['name']}  shape={t['shape']}  bytes={t['length']}")
        return 0
    if args.action == "checksum":
        print(load_archive(args.path).checksum())
        return 0
    if args.other is None:
        raise ValidationError("demix tensor diff requires a second archive")
    a = load_archive(args.path)
    b = load_archive(args.other)
    if a.schema() != b.schema():
        print("schemas differ", file=sys.stderr)
        return 1
    worst = 0.0
    for name in a.names():
        diff = float(np.max(np.abs(a.entries[name] - b.entries[name]))) if a.entries[name].size else 0.0
        worst = max(worst, diff)
        print(f"{name}: max abs diff {diff:.3e}")
    return 0 if worst <= args.atol else 1


def _cmd_merge(args) -> int:
    paths = [Path(p) for p in args.components.split(",")]
    components = [load_archive(p) for p in paths]
    # An archive's id is its file stem, or its path where two stems are the
    # same; the merge sums in id order, so ids fix the result's last bits.
    candidate_ids = [p.stem for p in paths]
    if len(set(candidate_ids)) < len(candidate_ids):
        candidate_ids = [str(p) for p in paths]
    ratio = _parse_ratio(args.ratio, candidate_ids)
    merged = merge_engine.merge(components, ratio, model_id="merged")
    save_archive(merged, args.out, metadata={"method": args.method, "ratio": args.ratio})
    print(f"wrote {args.out}")
    return 0


def _cmd_search(args) -> int:
    config = _config(args)
    lab = toy_lab.load_lab(args.benchmarks)
    components = pipeline.load_components(Path(args.components), lab)
    transcript = Path(args.transcript) if args.transcript else None
    result = pipeline.search_mixture(config, lab, components, Path(args.out), transcript)
    print(json.dumps(result["best_mixture"], sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    reference = read_score_csv(args.reference, args.domains)
    proxy = read_score_csv(args.proxy, args.domains)
    report = consistency_report(reference, proxy)
    pipeline.dump_json(args.out, report)
    print(
        f"macro rho {report['macro_avg_rho']:.3f}, "
        f"mean capability recovery {report['mean_capability_recovery']:.3f}"
    )
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
        line = data.count(b"\n", 0, exc.start) + 1
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
    result = dedup_corpus(docs, mode=args.mode, seed=args.seed, ngram=args.ngram)
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


def _cmd_lab(args) -> int:
    def option(name: str) -> str:
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise ValidationError(f"demix lab {args.action} requires --{name}")
        return value

    config = _config(args)
    if args.action == "gen":
        pipeline.generate_lab(config, option("out"))
        print(f"wrote {args.out}")
        return 0
    lab = toy_lab.load_lab(option("lab"))
    if args.action == "evaluate":
        row = toy_lab.evaluate_model(load_archive(option("model")), lab.tasks)
        print(json.dumps(row, indent=2, sort_keys=True))
        return 0
    out_dir = Path(option("out-dir"))
    base = load_archive(option("base")) if args.action == "train-references" else None
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.action == "train-components":
        pipeline.train_components(config, lab, out_dir)
        print(f"wrote base + {len(lab.candidates)} components to {out_dir}")
    else:
        pipeline.train_references(config, lab, base, out_dir)
        print(f"wrote {config.references.count} reference rows to {out_dir}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = pipeline.run_pipeline(config, run_root=args.run_root)
    print(f"run dir: {manifest.run_dir}")
    for name in pipeline.STAGE_VERSIONS:
        if name in manifest.stages:
            record = manifest.stages[name]
            flag = "ran" if record.get("recomputed") else "cached"
            print(f"  {name}: {record['status']} ({flag})")
    report = pipeline.load_report(manifest)
    print(pipeline.format_report(report))
    return 0


def _cmd_report(args) -> int:
    manifest, _ = ExperimentManifest.load(args.manifest)
    report = pipeline.load_report(manifest)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(pipeline.format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="demix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"demix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tensor = sub.add_parser("tensor", help="inspect, diff or checksum tensor archives")
    tensor.add_argument("action", choices=["inspect", "diff", "checksum"])
    tensor.add_argument("path")
    tensor.add_argument("other", nargs="?", help="second archive (diff only)")
    tensor.add_argument("--atol", type=float, default=0.0)
    tensor.add_argument("--json", action="store_true")
    tensor.set_defaults(fn=_cmd_tensor)

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

    search = sub.add_parser("search", help="run the iterative mixture search over merged proxies")
    search.add_argument("--components", required=True, help="directory with component archives")
    search.add_argument("--benchmarks", required=True, help="lab .npz with benchmark tasks")
    search.add_argument("--config", help="experiment config file")
    search.add_argument("--out", required=True)
    search.add_argument("--transcript")
    search.set_defaults(fn=_cmd_search)

    evalp = sub.add_parser("eval", help="consistency metrics between two score tables")
    evalp.add_argument("--reference", required=True)
    evalp.add_argument("--proxy", required=True)
    evalp.add_argument("--domains", required=True)
    evalp.add_argument("--out", required=True)
    evalp.set_defaults(fn=_cmd_eval)

    dedup = sub.add_parser("dedup", help="exact + fuzzy deduplication of a JSONL corpus")
    dedup.add_argument("--in", dest="input", required=True)
    dedup.add_argument("--mode", default="both", choices=["exact", "fuzzy", "both"])
    dedup.add_argument("--seed", type=int, default=0)
    dedup.add_argument("--ngram", type=int, default=24)
    dedup.add_argument("--report", required=True)
    dedup.add_argument("--out", help="write kept documents here")
    dedup.set_defaults(fn=_cmd_dedup)

    lab = sub.add_parser("lab", help="generate data, train components/references, evaluate")
    lab.add_argument("action", choices=["gen", "train-components", "train-references", "evaluate"])
    lab.add_argument("--config", help="experiment config file")
    lab.add_argument("--lab", help="lab .npz (required except for gen)")
    lab.add_argument("--out", help="output path (gen)")
    lab.add_argument("--out-dir", help="output directory (training actions)")
    lab.add_argument("--base", help="base archive (train-references)")
    lab.add_argument("--model", help="model archive (evaluate)")
    lab.set_defaults(fn=_cmd_lab)

    run = sub.add_parser("run", help="run the full pipeline from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--run-root", help="override the run directory root")
    run.set_defaults(fn=_cmd_run)

    report = sub.add_parser("report", help="print the report for a finished run")
    report.add_argument("--manifest", required=True)
    report.add_argument("--json", action="store_true")
    report.set_defaults(fn=_cmd_report)
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DemixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
