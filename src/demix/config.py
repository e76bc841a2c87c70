"""Experiment configuration: flat sectioned key = value files.

Every knob has a default; an empty file is a valid experiment. The
``[search]`` section is :class:`mixture_search.SamplePlan` itself, and the
one translation left is ``training_config``. ``load_config`` checks every
section before any stage runs. The lab's sizes and the predictor's tree
shape are constants of ``toy_lab`` and ``gbdt``, not settings. The config
hash that names run directories covers only result-affecting fields, so the
same experiment resolves to the same artifacts wherever it is run.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ValidationError
from .mixture_search import SamplePlan
from .toy_lab import ComponentTrainingConfig, check_lab_size


@dataclass
class LabSection:
    n_domains: int = 3
    feature_dim: int = 13
    family: str = "linear_regression"
    hidden_units: int = 8


@dataclass
class TrainingSection:
    beta: float = 0.5
    steps: int = 100
    base_steps: int = 100
    step_size: float = 0.2
    batch_size: int = 64
    # False is its only legal value, as training is mini-batch only. The key stays
    # because run-directory names hash every key, and the benchmark reads it.
    full_batch: bool = False


@dataclass
class ReferencesSection:
    count: int = 24


SECTIONS = ("lab", "training", "references", "search")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    run_root: str = "runs"
    lab: LabSection = field(default_factory=LabSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    references: ReferencesSection = field(default_factory=ReferencesSection)
    search: SamplePlan = field(default_factory=SamplePlan)

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


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValidationError(f"config: cannot parse boolean {text!r}") from None


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
    # No header can name the section "", so [DEFAULT] is an ordinary section,
    # refused below like any unknown one, and seeds no keys into the others.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
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
    """Check each section; ``_apply`` set the search keys past ``__post_init__``."""
    check_lab_size(config.lab.n_domains, config.lab.feature_dim, config.training_config())
    config.search = replace(config.search)
    if config.seed < 0:
        raise ValidationError("config: seed must be non-negative")
    if config.seed >= 2**64:
        # The lab's random streams take the seed's low 64 bits only.
        raise ValidationError("config: seed must be below 2**64")
    if config.references.count < 2:
        raise ValidationError("config: references.count must be at least 2")
