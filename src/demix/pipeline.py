"""End-to-end pipeline: lab generation, component preparation, reference
training and consistency reporting, proxy-based mixture search, and the
final report.

Each stage is one entry of the table in `_run_stages`, which states the
files it reads and writes in the run directory:

    stage         reads                                 writes
    lab           -                                     lab.npz
    components    lab.npz                               base.dmxt, component_<id>.dmxt
    references    lab.npz, base.dmxt                    reference_ratios.json,
                                                        references.csv, domains.csv
    consistency   lab.npz, the references' files,       proxy_scores.csv, consistency.json
                  component_<id>.dmxt
    search        lab.npz, component_<id>.dmxt          search_result.json, transcript.jsonl
    report        search_result.json, consistency.json  report.json

The stage bodies are module-level functions. The references and the consistency
stage build their score tables with one function, :func:`score_table`, from
one row of scores per mixture: the references score models trained on all
the mixtures at once (:func:`toy_lab.trained_scores`), the consistency stage
scores the components merged at all of them in one :func:`proxy_scores` call. The
run directory is named by the config's content hash, so a stage is cached by
a hash over the package's source code (:func:`_code_fingerprint`) and the
contents of the files it reads (the report also keys on the experiment name,
which the content hash leaves out). It reruns when that hash changed or a file it
writes is missing, so any edit to the code recomputes every stage once, and
deleting an artifact recomputes only its stage and, where their inputs
actually changed, the stages downstream of it. A finished experiment reruns
without loading anything (a stage body loads the lab and the components on
first use), and rewrites ``manifest.json`` only if something in it changed.
The consistency and search stages merge the components linearly and
benchmark the result; they never train and never read the shared base.

The search reads nothing that the references and consistency stages write,
so a cold run forks one child that runs those two stages, in that order,
while the parent runs the search. It forks only when both that branch and
the search must be recomputed, and only if the process can fork safely
(:func:`demix.forking.can_fork`): it runs on Linux, has a single OS thread
(``/proc/self/task``, so BLAS threads count, and the CLI pins BLAS to one),
and may run on at least two CPUs (``os.sched_getaffinity``). Otherwise (warm
or partial reruns, more BLAS threads, a failed fork) the stages run in table
order in this process.
Either way the same :func:`_execute` calls run them. The child writes only
its own stages' outputs, never ``manifest.json``: it sends its two stage
records, the ``files`` records it added or dropped and its exception, if
any, pickled up a pipe, and the parent reaps it and merges them before the
run lock is released, then raises the first failure in stage order. The
child dies with its parent (``PR_SET_PDEATHSIG``), so a killed run leaves no
child writing, and :func:`remove_leftover_temps` removes the child's
``<name>.<pid>.tmp`` files at the next run.

An input's digest is hashed once and then reused while the file is unchanged.
The manifest's ``files`` records each input's stamp, ``(st_ino, st_size,
st_mtime_ns, st_ctime_ns)``, beside its digest, and a rerun whose stat returns
the same stamp takes the digest without reading the file. A changed file never
matches: every write sets ``st_ctime``, which user space cannot set back (as
``touch -r`` or ``os.utime`` can ``st_mtime``), and :func:`atomic_write` and
copies make new inodes. The one way to change a file without changing its
stamp is to rewrite it at the same size within one timestamp tick of the
stamp's ``st_ctime``. So, as with git's "racily clean" index entries, a stamp
is recorded only if the file was the same before and after hashing and its
``st_ctime`` is at least :data:`RACY_WINDOW_NS` older than the moment hashing
began; a file changed more recently is hashed again by the next run.

Reports and transcripts contain no timestamps and serialize with sorted keys,
so identical configs produce byte-identical result files.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import itertools
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forking, merge_engine, mixture_search, toy_lab
from .config import ExperimentConfig
from .errors import PipelineError, ValidationError
from .eval_metrics import ScoreTable, consistency_report
from .merge_engine import MixtureRatio
from .tensor_store import ParameterSet, atomic_write, load_archive, remove_leftover_temps, save_archive

# How long before its hashing an input must have last changed for its stamp
# to be recorded: longer than any filesystem's timestamp tick.
RACY_WINDOW_NS = 1_000_000_000


@dataclass
class ExperimentManifest:
    config: dict
    config_hash: str
    run_dir: str
    stages: dict[str, dict] = field(default_factory=dict)
    # Input file name -> {"stamp": [...], "digest": ...}; see _input_digest.
    files: dict[str, dict] = field(default_factory=dict)
    created_at: float = 0.0

    def stage(self, name: str) -> dict:
        return self.stages.setdefault(
            name, {"status": "pending", "hash": None, "recomputed": False}
        )

    def save(self, path) -> None:
        """Write through :func:`atomic_write`, so a run killed mid-save leaves
        the previous manifest whole."""
        _write_text(path, json.dumps(vars(self), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> tuple["ExperimentManifest", dict]:
        """The manifest in ``path``, whose ``run_dir`` is the directory it is
        read from, and the JSON document as it is on disk: a copy that changes
        to the manifest leave untouched. A manifest that lacks ``files``
        loads with none, and a ``files`` record of the wrong shape is dropped,
        so its file is hashed again."""
        doc = read_json(path, "cannot read manifest {path}: {reason}",
                        "{path}: not a demix manifest: {reason}")
        try:
            # A deep copy of doc: JSON's C codec is quicker than copy.deepcopy.
            manifest = cls(**json.loads(json.dumps(doc)))
        except TypeError as exc:
            raise PipelineError(f"{path}: not a demix manifest: {exc}") from exc
        _check_types(vars(manifest), MANIFEST_TYPES, f"{path}: not a demix manifest")
        manifest.run_dir = str(Path(path).parent)
        manifest.files = {
            name: record for name, record in manifest.files.items()
            if isinstance(record, dict)
            and isinstance(record.get("digest"), str)
            and isinstance(record.get("stamp"), list)
            and list(map(type, record["stamp"])) == [int] * 4
        }
        return manifest, doc


def _file_hash(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def _code_fingerprint() -> str:
    """A digest of numpy's version and the name and bytes of every source
    file of the package: part of every stage's hash, so that results made by
    other code are never reused. Computed on the first run in a process, not
    at import, and then kept, so warm reruns do not hash the sources again."""
    h = hashlib.blake2b(np.__version__.encode("utf-8"), digest_size=16)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(f"\0{path.name}\0{len(source)}\0".encode("utf-8"))
        h.update(source)
    return h.hexdigest()


def _stamp(path: Path) -> list[int]:
    st = os.stat(path)
    return [st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _input_digest(run_dir: Path, name: str, files: dict[str, dict]) -> str:
    """The digest of the file ``name`` in ``run_dir``. ``files`` holds the
    stamp and digest of earlier hashings (the manifest's ``files``): a
    record whose stamp the file still has is reused, and a new one is
    recorded only if the stamp can be trusted (see the module docstring)."""
    path = run_dir / name
    stamp = _stamp(path)
    record = files.get(name)
    if record is not None and record["stamp"] == stamp:
        return record["digest"]
    started = time.time_ns()
    digest = _file_hash(path)
    if _stamp(path) == stamp and stamp[3] <= started - RACY_WINDOW_NS:
        files[name] = {"digest": digest, "stamp": stamp}
    else:
        files.pop(name, None)
    return digest


def read_json(
    path, unreadable: str = "cannot read {path}: {reason}", invalid: str = "{path}: not JSON: {reason}"
):
    """The JSON document in ``path``. A file that cannot be read, or is not
    UTF-8 JSON, raises PipelineError with the message ``unreadable`` or
    ``invalid``, formatted with ``path`` and ``reason``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise PipelineError(unreadable.format(path=path, reason=exc.strerror)) from None
    except (ValueError, RecursionError) as exc:
        raise PipelineError(invalid.format(path=path, reason=exc)) from None


def _write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def dump_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys, through :func:`atomic_write`."""
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_score_csv(table: ScoreTable, scores_path: Path, domains_path: Path | None = None) -> None:
    lines = ["model_id,benchmark_id,score"]
    for model in table.models():
        for bench in table.benchmarks():
            lines.append(f"{model},{bench},{table.rows[model][bench]!r}")
    _write_text(scores_path, "\n".join(lines) + "\n")
    if domains_path is not None:
        rows = ["benchmark_id,domain"]
        rows += [f"{b},{table.domain_of[b]}" for b in table.benchmarks()]
        _write_text(domains_path, "\n".join(rows) + "\n")


def _csv_rows(path, header: list[str]):
    """(line number, fields) of each row under ``header`` in a CSV file. All
    fields but the last are the row's key, and a repeated key is an error."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    if not lines or lines[0].split(",")[: len(header)] != header:
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    seen: dict[str, int] = {}
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValidationError(
                f"{path}:{number}: expected {len(header)} fields, got {len(fields)}"
            )
        key = ",".join(fields[:-1])
        first = seen.setdefault(key, number)
        if first != number:
            raise ValidationError(
                f"{path}:{number}: repeated {','.join(header[:-1])} {key!r}, first on line {first}"
            )
        yield number, fields


def read_score_csv(scores_path, domains_path) -> ScoreTable:
    rows: dict[str, dict[str, float]] = {}
    header = ["model_id", "benchmark_id", "score"]
    for number, (model, bench, score) in _csv_rows(scores_path, header):
        try:
            rows.setdefault(model, {})[bench] = float(score)
        except ValueError:
            raise ValidationError(f"{scores_path}:{number}: bad score {score!r}") from None
    domain_of = dict(fields for _, fields in _csv_rows(domains_path, ["benchmark_id", "domain"]))
    try:
        return ScoreTable(rows=rows, domain_of=domain_of)
    except ValidationError as exc:
        raise ValidationError(f"{scores_path}: {exc}") from None


def proxy_scores(components, tasks, ratios: list[MixtureRatio]):
    """The benchmark scores of the components merged at each of ``ratios``,
    in order: the stand-ins for models trained on those mixtures, and the
    search's evaluator. Each row is merged and scored as it is read, so one
    merged model is alive at a time and a failure surfaces at its own row."""
    for ratio in ratios:
        yield toy_lab.evaluate_model(merge_engine.merge(components, ratio), tasks)


def score_table(rows, lab: toy_lab.ToyLab) -> ScoreTable:
    """The score rows of a list of ratios, one dict each in ratio order, as
    rows ``mix_000``, ``mix_001``, ..., so tables of trained and of merged
    models over the same ratios line up row for row."""
    named = {f"mix_{j:03d}": row for j, row in enumerate(rows)}
    return ScoreTable(rows=named, domain_of=lab.domain_of_benchmarks())


def generate_lab(config: ExperimentConfig, path: Path) -> None:
    """The lab stage: generate the configured lab world and save it."""
    lab = toy_lab.make_domains(config.lab.n_domains, config.lab.feature_dim, config.seed)
    toy_lab.save_lab(lab, path)


def train_components(config: ExperimentConfig, lab: toy_lab.ToyLab, out_dir: Path) -> None:
    """The components stage: train the shared base, then one component per
    candidate; saved as ``base.dmxt`` and ``component_<id>.dmxt``."""
    base, components = toy_lab.prepare_components(
        lab.candidates, lab.general, config.training_config()
    )
    save_archive(base, out_dir / "base.dmxt")
    for cand, comp in zip(lab.candidates, components):
        save_archive(comp, out_dir / f"component_{cand.id}.dmxt")


def load_components(directory: Path, lab: toy_lab.ToyLab) -> list[ParameterSet]:
    """The components in ``directory``, in the lab's candidate order."""
    return [load_archive(directory / f"component_{c.id}.dmxt") for c in lab.candidates]


def train_references(
    config: ExperimentConfig, lab: toy_lab.ToyLab, base: ParameterSet, out_dir: Path
) -> None:
    """The references stage: train one reference model per sampled ratio, all
    in lockstep, and save the ratios and the reference score table."""
    candidate_ids = [c.id for c in lab.candidates]
    ratios = mixture_search.sample_simplex(
        len(candidate_ids),
        config.references.count,
        int(np.random.SeedSequence([config.seed, 0xEF]).generate_state(1)[0]),
        candidate_ids=candidate_ids,
    )
    dump_json(out_dir / "reference_ratios.json", [r.as_dict() for r in ratios])
    table = score_table(toy_lab.trained_scores(lab, base, config.training_config(), ratios), lab)
    write_score_csv(table, out_dir / "references.csv", out_dir / "domains.csv")


def check_consistency(
    lab: toy_lab.ToyLab, components: list[ParameterSet], run_dir: Path
) -> None:
    """The consistency stage: score merged proxies at the reference ratios
    and compare their rankings with the trained references'."""
    ids = [c.id for c in lab.candidates]
    path = run_dir / "reference_ratios.json"
    try:
        ratios = [
            MixtureRatio(weights=[rd[c] for c in ids], candidate_ids=ids) for rd in read_json(path)
        ]
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise PipelineError(
            f"{path}: not a list of mixture ratios over {', '.join(ids)}: "
            f"{type(exc).__name__}: {exc}"
        ) from None
    reference = read_score_csv(run_dir / "references.csv", run_dir / "domains.csv")
    if len(ratios) != len(reference.models()):
        raise PipelineError(
            f"{path} holds {len(ratios)} ratios, but {run_dir / 'references.csv'} "
            f"scores {len(reference.models())} models"
        )
    proxy = score_table(proxy_scores(components, lab.tasks, ratios), lab)
    try:
        report = consistency_report(reference, proxy)
    except ValidationError as exc:
        # The proxy table is made from the lab, so the reference's files are at fault.
        files = f"{run_dir / 'references.csv'} and {run_dir / 'domains.csv'}"
        raise ValidationError(f"{files} do not match the lab: {exc}") from None
    write_score_csv(proxy, run_dir / "proxy_scores.csv")
    dump_json(run_dir / "consistency.json", report)


def search_mixture(
    config: ExperimentConfig,
    lab: toy_lab.ToyLab,
    components: list[ParameterSet],
    result_path: Path,
    transcript_path: Path,
) -> None:
    """The search stage: the iterative search over merged proxies. Writes the
    transcript and the result document."""
    best, transcript = mixture_search.run_search(
        functools.partial(proxy_scores, components, lab.tasks),
        [c.id for c in lab.candidates],
        config.search,
        config.seed,
        benchmark_domains=lab.domain_of_benchmarks(),
    )
    _write_text(transcript_path, transcript.to_jsonl())
    result = {
        "best_mixture": best.as_dict(),
        "evaluations": len(transcript.evaluations),
        "planned_evaluations": config.search.total_evaluations(),
        # Counts the ratios scored, equal to "evaluations", not calls: run_search
        # calls the evaluator once per pass, then refits on every evaluation so far.
        "evaluator_calls": len(transcript.evaluations),
        "fits": [
            {"after_iteration": i, "n_observations": n}
            for i, n in enumerate(itertools.accumulate(config.search.plan))
        ],
        "final_pool_size": config.search.pool,
        "final_top_k": config.search.top_k,
    }
    dump_json(result_path, result)


class _RunLock:
    """An exclusive ``flock`` on ``run_dir/.lock``. The kernel releases it when
    its holder exits, even on SIGKILL, so a killed run never blocks the next.
    The file is never removed: removing it would let two runs lock different
    inodes."""

    def __init__(self, run_dir: Path):
        self.path = run_dir / ".lock"
        self.fd = -1

    def __enter__(self):
        self.fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise PipelineError(
                f"run directory is locked by another process ({self.path})"
            ) from None
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        return False


def run_pipeline(config: ExperimentConfig, run_root: str = "runs") -> ExperimentManifest:
    """Execute all stages for a config, reusing cached results where valid."""
    config_hash = config.content_hash()
    run_dir = Path(run_root) / config_hash
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = run_dir / "manifest.json"
    with _RunLock(run_dir):
        # Read under the lock: a manifest read before taking it could be one
        # that the run then holding the lock has since replaced.
        on_disk = None
        if manifest_path.exists():
            manifest, on_disk = ExperimentManifest.load(manifest_path)
            if manifest.config_hash != config_hash:
                raise PipelineError("manifest in run directory belongs to a different config")
        else:
            manifest = ExperimentManifest(
                config=config.resolved(),
                config_hash=config_hash,
                run_dir=str(run_dir),
                created_at=time.time(),
            )
        try:
            _run_stages(config, run_dir, manifest)
        finally:
            # A rerun that changed nothing leaves the file alone. Compared with
            # the document as read, so a copied run directory's manifest,
            # which names the directory it was copied from, is rewritten.
            if vars(manifest) != on_disk:
                manifest.save(manifest_path)
    return manifest


def _is_current(record: dict, stage_hash: str, run_dir: Path, outputs: list[str]) -> bool:
    """Whether a stage record is done at ``stage_hash`` with its outputs present."""
    return (
        record["status"] == "done"
        and record.get("hash") == stage_hash
        and all((run_dir / output).exists() for output in outputs)
    )


def _execute(
    manifest, run_dir: Path, name: str, stage_hash: str, outputs: list[str], fn, save: bool = True
) -> None:
    """Run one stage unless its hash matches and its outputs are present.
    With ``save``, the manifest marking the stage running is saved first."""
    record = manifest.stage(name)
    if _is_current(record, stage_hash, run_dir, outputs):
        record["recomputed"] = False
        return
    record.update(status="running", hash=stage_hash, recomputed=True, started_at=time.time())
    # On disk before the stage writes anything, so a run killed inside the
    # stage leaves it marked running and the next run recomputes it.
    if save:
        manifest.save(run_dir / "manifest.json")
    try:
        fn()
    except Exception as exc:
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        raise
    record.update(status="done", error=None, finished_at=time.time())


def _run_beside(
    manifest, run_dir: Path, branch: list[str], pending: str, run_branch, run_search
) -> bool:
    """Run the stages ``branch`` by ``run_branch()`` in a forked child while
    this process runs ``run_search()``, then merge what the child sends back:
    its stage records, the ``files`` records it added or dropped, and its
    exception, if any. ``pending``, the branch's first stale stage, is saved
    as running before the fork, since the child never saves the manifest. The
    first failure in stage order is raised, the child's before the search's.
    Returns False, having run nothing, if the fork failed."""
    record = manifest.stage(pending)
    record["status"] = "running"
    manifest.save(run_dir / "manifest.json")

    def in_child() -> bytes:
        files = dict(manifest.files)
        error = None
        try:
            run_branch()
        except BaseException as exc:
            error = exc
        records = {name: manifest.stages[name] for name in branch if name in manifest.stages}
        changed = {
            name: manifest.files.get(name) for name in files.keys() | manifest.files.keys()
            if files.get(name) != manifest.files.get(name)
        }
        try:
            data = pickle.dumps((records, changed, error))
            pickle.loads(data)
        except Exception:  # an exception that does not survive pickling
            data = pickle.dumps((records, changed, PipelineError(f"{type(error).__name__}: {error}")))
        return data

    child = forking.fork(in_child)
    if child is None:
        return False
    try:
        run_search()
    finally:
        data, status = forking.join(child)
        if data:
            records, changed, error = pickle.loads(data)
            manifest.stages.update(records)
            for name, file_record in changed.items():
                if file_record is None:
                    manifest.files.pop(name, None)
                else:
                    manifest.files[name] = file_record
        else:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            stages = " and ".join(branch)
            error = PipelineError(f"{pending}: the process running the {stages} stages {how}")
            record.update(status="failed", error=f"PipelineError: {error}")
        if error is not None:
            raise error
    return True


def _run_stages(config: ExperimentConfig, run_dir: Path, manifest: ExperimentManifest) -> None:
    # Loaded by the first stage body that needs them, after the stages that
    # write them, so a fully cached run loads neither.
    lab = functools.cache(lambda: toy_lab.load_lab(run_dir / "lab.npz"))
    components = functools.cache(lambda: load_components(run_dir, lab()))
    # Merging needs no base, so only the references stage reads and hashes it.
    component_files = [f"component_{c}.dmxt" for c in toy_lab.domain_ids(config.lab.n_domains)]
    references = ["reference_ratios.json", "references.csv", "domains.csv"]

    # (name, input files, output files, body), in the order the stages run.
    # References and consistency may run in a forked child beside the search
    # (see the module docstring); lab, components and report run alone.
    stages = [
        ("lab", [], ["lab.npz"], lambda: generate_lab(config, run_dir / "lab.npz")),
        (
            "components", ["lab.npz"], ["base.dmxt", *component_files],
            lambda: train_components(config, lab(), run_dir),
        ),
        (
            "references", ["lab.npz", "base.dmxt"], references,
            lambda: train_references(config, lab(), load_archive(run_dir / "base.dmxt"), run_dir),
        ),
        (
            "consistency", ["lab.npz", *references, *component_files],
            ["proxy_scores.csv", "consistency.json"],
            lambda: check_consistency(lab(), components(), run_dir),
        ),
        (
            "search", ["lab.npz", *component_files], ["search_result.json", "transcript.jsonl"],
            lambda: search_mixture(
                config, lab(), components(),
                run_dir / "search_result.json", run_dir / "transcript.jsonl",
            ),
        ),
        (
            "report", ["search_result.json", "consistency.json"], ["report.json"],
            lambda: dump_json(run_dir / "report.json", _build_report(config, run_dir)),
        ),
    ]

    # Run under the run lock, so no other run is writing these.
    remove_leftover_temps(
        run_dir, ["manifest.json", *(output for _, _, outputs, _ in stages for output in outputs)]
    )

    # The run directory is named by the config's content hash, so a stage's
    # hash needs to cover only the code and its input files (each digested at
    # most once per run, and not at all while its stamp holds).
    code = _code_fingerprint()
    file_hash = functools.cache(lambda name: _input_digest(run_dir, name, manifest.files))

    def stage_hash(name: str, inputs: list[str]) -> str:
        doc = {"code": code, "inputs": {f: file_hash(f) for f in inputs}}
        if name == "report":
            # The report shows the experiment name, the one field the run
            # directory's name leaves out.
            doc["name"] = config.name
        digest = hashlib.blake2b(json.dumps(doc, sort_keys=True).encode("utf-8"), digest_size=16)
        return digest.hexdigest()

    def stale(entry) -> bool:
        name, inputs, outputs, _ = entry
        return not _is_current(manifest.stage(name), stage_hash(name, inputs), run_dir, outputs)

    def run(entries, save: bool = True) -> None:
        for name, inputs, outputs, body in entries:
            _execute(manifest, run_dir, name, stage_hash(name, inputs), outputs, body, save)

    run(stages[:2])
    branch, search = stages[2:4], stages[4]
    # The search is checked first: on a warm rerun it is current, so the
    # branch is not checked twice. `pending` is the branch's first stale
    # stage; checking stops at the references stage when it is stale, as it
    # rewrites files that the consistency stage's hash reads.
    pending = stale(search) and next((entry[0] for entry in branch if stale(entry)), None)
    forked = False
    if pending and forking.can_fork():
        components()  # loaded before the fork, so the child need not load them
        forked = _run_beside(manifest, run_dir, [entry[0] for entry in branch], pending,
                             lambda: run(branch, save=False), lambda: run([search]))
    if not forked:
        run([*branch, search])
    run(stages[5:])
    # In the order the stages run, which `demix run` lists them in; a
    # manifest read back from disk has its keys sorted.
    manifest.stages = {name: manifest.stages[name] for name, *_ in stages}


def _wrong_types(doc, spec, key: str = "") -> list[str]:
    """The key paths at which ``doc`` lacks what ``spec`` asks for: a type or
    a tuple of types; a dict of specs, for an object with those keys; or a
    one-item list of a spec, for an object whose values all meet it."""
    if isinstance(spec, (dict, list)):
        if not isinstance(doc, dict):
            return [key or "the whole document"]
        items = spec.items() if isinstance(spec, dict) else ((k, spec[0]) for k in doc)
        return [
            wrong for k, sub in items
            for wrong in _wrong_types(doc.get(k), sub, f"{key}.{k}" if key else k)
        ]
    return [] if isinstance(doc, spec) else [key]


def _check_types(doc, spec: dict, what: str) -> None:
    wrong = _wrong_types(doc, spec)
    if wrong:
        raise PipelineError(f"{what}: missing or of the wrong type: {', '.join(wrong)}")


# The keys of the manifest that a run reads, and of each result file that the
# report stage or format_report reads.
MANIFEST_TYPES = {
    "config": dict, "config_hash": str, "run_dir": str, "files": dict,
    "stages": [{"status": str, "hash": (str, type(None))}],
}
_NUMBER = (int, float)
SEARCH_RESULT_TYPES = {
    "best_mixture": [_NUMBER], "evaluations": int, "planned_evaluations": int,
    "final_pool_size": int, "final_top_k": int,
}
CONSISTENCY_TYPES = {
    "n_models": int, "macro_avg_rho": _NUMBER, "mean_capability_recovery": _NUMBER,
    "per_domain_rho": [_NUMBER],
}
REPORT_TYPES = {
    "experiment": {"name": str, "seed": int},
    "optimal_mixture": [_NUMBER],
    "proxy_budget": {"used": int, "planned": int},
    "consistency": CONSISTENCY_TYPES,
}


def _build_report(config: ExperimentConfig, run_dir: Path) -> dict:
    path = run_dir / "search_result.json"
    search_result = read_json(path)
    _check_types(search_result, SEARCH_RESULT_TYPES, f"{path}: not a search result")
    path = run_dir / "consistency.json"
    consistency = read_json(path)
    _check_types(consistency, CONSISTENCY_TYPES, f"{path}: not a consistency report")
    return {
        "experiment": {"name": config.name, "seed": config.seed},
        "optimal_mixture": search_result["best_mixture"],
        "proxy_budget": {
            "planned": search_result["planned_evaluations"],
            "used": search_result["evaluations"],
            # run_search evaluates exactly the plan's count in each iteration.
            "per_iteration": {str(i): n for i, n in enumerate(config.search.plan)},
        },
        "search": {
            "final_pool_size": search_result["final_pool_size"],
            "final_top_k": search_result["final_top_k"],
            # The only method; kept so the report's bytes stay the same.
            "merge_method": "linear",
        },
        "consistency": consistency,
    }


def load_report(manifest: ExperimentManifest) -> dict:
    """Read the machine-readable summary of a manifest's finished run. A report
    that :func:`format_report` cannot render raises PipelineError naming its file."""
    path = Path(manifest.run_dir) / "report.json"
    report = read_json(
        path,
        "report: {path} is missing; rerun the pipeline",
        "report: {path} is not JSON: {reason}",
    )
    _check_types(report, REPORT_TYPES, f"report: {path} is not a demix report")
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of the machine summary."""
    lines = [f"experiment {report['experiment']['name']} (seed {report['experiment']['seed']})"]
    lines.append("optimal mixture:")
    for cid, w in sorted(report["optimal_mixture"].items()):
        lines.append(f"  {cid}: {w:.4f}")
    budget = report["proxy_budget"]
    lines.append(f"proxy evaluations: {budget['used']} used / {budget['planned']} planned")
    cons = report["consistency"]
    lines.append(
        f"proxy consistency over {cons['n_models']} references: "
        f"macro rho {cons['macro_avg_rho']:.3f}, "
        f"mean capability recovery {cons['mean_capability_recovery']:.3f}"
    )
    for domain in sorted(cons["per_domain_rho"]):
        lines.append(f"  rho[{domain}] = {cons['per_domain_rho'][domain]:.3f}")
    return "\n".join(lines)
