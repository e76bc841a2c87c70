"""Property tests of the text parsers: arbitrary input gives either a value
or a typed DemixError, never any other exception."""

from dataclasses import fields

from hypothesis import given, settings, strategies as st

from demix.cli import _parse_ratio
from demix.config import SECTIONS, ExperimentConfig, _apply, load_config
from demix.errors import DemixError
from demix.pipeline import read_score_csv

CONFIG_KEYS = [("experiment", key) for key in ("name", "seed", "run_root")] + [
    (section, f.name) for section in SECTIONS for f in fields(getattr(ExperimentConfig(), section))
]


def value_or_typed_error(parse, *args):
    try:
        return parse(*args)
    except DemixError:
        return None


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_config_file_parses_or_gives_a_typed_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    value_or_typed_error(load_config, path)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(CONFIG_KEYS), text=st.text())
def test_every_config_value_parses_or_gives_a_typed_error(key, text):
    section, name = key
    config = ExperimentConfig()
    target = config if section == "experiment" else getattr(config, section)
    value_or_typed_error(_apply, target, [(name, text)], section)


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_ratio_parses_or_gives_a_typed_error(text):
    value_or_typed_error(_parse_ratio, text, ["a", "b", "c"])


@settings(max_examples=200, deadline=None)
@given(scores=st.text(), domains=st.text())
def test_score_csv_parses_or_gives_a_typed_error(tmp_path_factory, scores, domains):
    root = tmp_path_factory.mktemp("csv")
    (root / "scores.csv").write_text("model_id,benchmark_id,score\n" + scores, encoding="utf-8")
    (root / "domains.csv").write_text("benchmark_id,domain\n" + domains, encoding="utf-8")
    value_or_typed_error(read_score_csv, root / "scores.csv", root / "domains.csv")
