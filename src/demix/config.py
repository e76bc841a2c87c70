"""Experiment configuration: flat sectioned key = value files.

Every knob has a default; an empty file is a valid experiment. The config is
the one place where settings become runtime objects: its methods build the
training config, the lab, the sample plan, the unfitted rank predictor and the
merge spec, and ``load_config`` validates a file by building them. The config
hash that names run directories covers only result-affecting fields, so the
same experiment resolves to the same artifacts wherever it is run.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .errors import ValidationError
from .gbdt import BoostedTreesRegressor
from .merge_engine import MergeSpec
from .mixture_search import SamplePlan
from .toy_lab import ComponentTrainingConfig, ToyLab, make_domains


@dataclass
class LabSection:
    n_domains: int = 3
    feature_dim: int = 13
    shared_dims: int = 4
    examples_per_domain: int = 600
    general_examples: int = 600
    benchmark_examples: int = 256
    family: str = "linear_regression"
    hidden_units: int = 8


@dataclass
class TrainingSection:
    beta: float = 0.5
    steps: int = 100
    base_steps: int = 100
    step_size: float = 0.2
    batch_size: int = 64
    full_batch: bool = False


@dataclass
class ReferencesSection:
    enabled: bool = True
    count: int = 24


@dataclass
class SearchSection:
    plan: list[int] = field(default_factory=lambda: [64, 32, 16])
    pool: int = 100_000
    top_k: int = 128
    merge_method: str = "linear"
    merge_seed: int | None = None
    gbdt_learning_rate: float = 0.02
    gbdt_rounds: int = 300
    gbdt_max_depth: int = 3
    gbdt_min_samples_leaf: int = 2


SECTIONS = ("lab", "training", "references", "search")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    run_root: str = "runs"
    lab: LabSection = field(default_factory=LabSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    references: ReferencesSection = field(default_factory=ReferencesSection)
    search: SearchSection = field(default_factory=SearchSection)

    def resolved(self) -> dict:
        doc = {name: asdict(getattr(self, name)) for name in SECTIONS}
        doc["experiment"] = {"name": self.name, "seed": self.seed, "run_root": self.run_root}
        return doc

    def content_hash(self) -> str:
        """Hash over result-affecting fields only (name and run_root excluded)."""
        doc = self.resolved()
        doc["experiment"] = {"seed": self.seed}
        blob = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=8).hexdigest()

    def training_config(self) -> ComponentTrainingConfig:
        return ComponentTrainingConfig(
            general_mix_beta=self.training.beta,
            steps=self.training.steps,
            step_size=self.training.step_size,
            batch_size=self.training.batch_size,
            seed=self.seed,
            model_family=self.lab.family,
            hidden_units=self.lab.hidden_units,
            base_steps=self.training.base_steps,
            full_batch=self.training.full_batch,
        )

    def make_lab(self) -> ToyLab:
        lab = self.lab
        return make_domains(
            n_domains=lab.n_domains,
            d=lab.feature_dim,
            seed=self.seed,
            family=lab.family,
            examples_per_domain=lab.examples_per_domain,
            general_examples=lab.general_examples,
            benchmark_examples=lab.benchmark_examples,
            shared_dims=lab.shared_dims,
        )

    def sample_plan(self) -> SamplePlan:
        return SamplePlan(
            per_iteration_counts=list(self.search.plan),
            final_candidate_pool=self.search.pool,
            top_k_average=self.search.top_k,
            rng_seed=self.seed,
        )

    def predictor(self) -> BoostedTreesRegressor:
        return BoostedTreesRegressor(
            learning_rate=self.search.gbdt_learning_rate,
            n_rounds=self.search.gbdt_rounds,
            max_depth=self.search.gbdt_max_depth,
            min_samples_leaf=self.search.gbdt_min_samples_leaf,
        )

    def merge_spec(self) -> MergeSpec:
        return MergeSpec(method=self.search.merge_method, seed=self.search.merge_seed)


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"config: cannot parse boolean {text!r}")


def _parse_plan(text: str) -> list[int]:
    try:
        counts = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise ValidationError(f"config: bad plan {text!r}") from exc
    if not counts:
        raise ValidationError("config: empty plan")
    return counts


def _parse_value(key: str, current, raw: str):
    if key == "plan":
        return _parse_plan(raw)
    if key == "merge_seed":
        return int(raw) if raw else None
    if isinstance(current, bool):
        return _parse_bool(raw)
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


def _apply(target, items, section: str) -> None:
    """Set each ``key = raw`` pair on the config or section object ``target``."""
    known = {f.name for f in fields(target)} - set(SECTIONS)
    for key, raw in items:
        if key not in known:
            raise ValidationError(f"config: unknown key {key!r} in [{section}]")
        try:
            value = _parse_value(key, getattr(target, key), raw.strip())
        except ValueError as exc:
            raise ValidationError(f"config: bad value {raw!r} for {key!r} in [{section}]") from exc
        setattr(target, key, value)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    config = ExperimentConfig()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ValidationError(f"config: cannot read {path!r}")
        for section in parser.sections():
            if section != "experiment" and section not in SECTIONS:
                raise ValidationError(f"config: unknown section [{section}]")
            target = config if section == "experiment" else getattr(config, section)
            _apply(target, parser.items(section), section)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"config: cannot parse {path!r}: {exc}") from exc
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    """Build every runtime object once, then check what none of them checks."""
    config.training_config()
    config.make_lab()
    config.sample_plan()
    config.predictor()
    config.merge_spec()
    if config.seed < 0:
        raise ValidationError("config: seed must be non-negative")
    if config.references.enabled and config.references.count < 2:
        raise ValidationError("config: references.count must be at least 2")
