"""Fuzzing the config JSON and ``metrics.csv`` parsers.

Good input round-trips: a valid config through ``config_to_dict``, JSON
text and ``config_from_dict`` to an equal config with the same run id,
and a ``to_csv`` text through ``from_csv`` and ``to_csv`` to the same
bytes.  Bad input raises a ``ValueError`` that names its config key or
its CSV line; no other exception escapes either parser.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcre.cli import EncoderConfig, ExperimentConfig, config_from_dict, config_to_dict, run_id
from fcre.datagen import SyntheticSpec
from fcre.inference import HEADS, MetricsReport, TaskAccuracy
from fcre.losses import HyperParams

positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
non_negative = st.floats(min_value=0.0, max_value=1e6)
fraction = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def valid_configs(draw):
    feature_dim = draw(st.integers(1, 64))
    synthetic = SyntheticSpec(
        n_tasks=draw(st.integers(1, 20)),
        n_way=draw(st.integers(1, 20)),
        shots=draw(st.integers(1, 50)),
        test_per_relation=draw(st.integers(1, 50)),
        feature_dim=feature_dim,
        cluster_separation=draw(
            st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True)
        ),
        within_class_noise=draw(non_negative),
        task1_oversample=draw(st.integers(1, 1000)),
        seed=draw(st.integers(0, 2**63)),
    )
    betas = draw(st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4).filter(any))
    hyper = HyperParams(
        tau=draw(positive),
        margin=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        beta_sc=betas[0], beta_st=betas[1], beta_hm=betas[2], beta_mi=betas[3],
        alpha=draw(fraction),
        epsilon=draw(positive),
        k_desc=draw(st.integers(1, 50)),
        memory_size=draw(st.integers(1, 50)),
        epochs_current=draw(st.integers(0, 50)),
        epochs_memory=draw(st.integers(0, 50)),
        learning_rate=draw(positive),
    )
    files = {}
    if draw(st.booleans()):
        files = {
            "data_mode": "files",
            "dataset_path": draw(st.text(min_size=1)),
            "descriptions_path": draw(st.text(min_size=1)),
        }
    heads = draw(st.permutations(HEADS))[: draw(st.integers(1, len(HEADS)))]
    return ExperimentConfig(
        synthetic=synthetic,
        encoder=EncoderConfig(feature_dim, draw(st.integers(1, 64)), draw(st.integers(1, 64))),
        hyper=hyper,
        seeds=draw(st.lists(st.integers(0, 2**63), min_size=1, max_size=5, unique=True)),
        heads=heads,
        description_spread=draw(non_negative),
        out_dir=draw(st.text()),
        **files,
    )


def leaves(obj, path=""):
    """``(dotted key, value)`` of every non-section entry of a config dict."""
    for key, value in obj.items():
        child = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from leaves(value, child)
        else:
            yield child, value


LEAVES = list(leaves(config_to_dict(ExperimentConfig())))
SECTIONS = ["", "data", "data.synthetic", "encoder", "hyperparams"]
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)
    ),
    max_leaves=8,
)


def wrong_type(default):
    """JSON values that the key of ``default`` must reject for their type."""
    not_a_number = (st.booleans(), st.none(), st.text(), st.lists(json_scalars))
    if type(default) is int:
        return st.one_of(*not_a_number, st.floats(allow_nan=False))
    if type(default) is float:
        return st.one_of(*not_a_number)
    if type(default) is list:  # seeds and heads: not a list, or an entry of the other kind
        entry = st.text() if type(default[0]) is int else st.integers()
        return st.one_of(
            st.integers(), st.text(), st.none(), st.lists(entry, min_size=1, max_size=3)
        )
    # a string, or a path whose default is null
    return st.one_of(
        st.booleans(), st.integers(), st.lists(json_scalars),
        st.dictionaries(st.text(), json_scalars),
    )


def nested(path, value):
    """The config dict that sets only the dotted key ``path``."""
    obj = value
    for key in reversed(path.split(".")):
        obj = {key: obj}
    return obj


def through_json(obj):
    return json.loads(json.dumps(obj))


class TestConfigJson:
    @given(valid_configs())
    @settings(max_examples=60)
    def test_a_valid_config_round_trips_to_an_equal_config_and_run_id(self, config):
        text = json.dumps(config_to_dict(config))
        back = config_from_dict(json.loads(text))
        assert back == config
        assert run_id(back, config.seeds[0]) == run_id(config, config.seeds[0])
        assert json.dumps(config_to_dict(back)) == text

    @given(st.data())
    @settings(max_examples=100)
    def test_a_value_of_the_wrong_type_is_named_by_its_key(self, data):
        path, default = data.draw(st.sampled_from(LEAVES))
        value = data.draw(wrong_type(default))
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}(\[\d+\])? must be "):
            config_from_dict(through_json(nested(path, value)))

    @given(st.sampled_from(SECTIONS), st.text(), json_values)
    @settings(max_examples=60)
    def test_an_unknown_key_is_named(self, section, key, value):
        known = config_to_dict(ExperimentConfig())
        for part in filter(None, section.split(".")):
            known = known[part]
        if key in known:
            return
        obj = {key: value} if not section else nested(section, {key: value})
        where = f"keys in config section {section!r}" if section else "top-level config keys"
        with pytest.raises(ValueError, match=re.escape(f"unknown {where}: {[key]}")):
            config_from_dict(through_json(obj))

    def test_the_retired_description_source_key_is_rejected(self):
        for source in ("k-set", "raw-mean"):
            with pytest.raises(
                ValueError, match=r"^unknown top-level config keys: \['description_source'\]$"
            ):
                config_from_dict({"description_source": source})

    @given(json_values)
    @settings(max_examples=100)
    def test_any_json_value_parses_or_raises_value_error(self, obj):
        try:
            config_from_dict(obj)
        except ValueError:
            pass


@st.composite
def reports(draw):
    """A report of distinct (task, head) rows over at most six tasks."""
    n_tasks = draw(st.integers(1, 6))
    keys = draw(
        st.lists(st.tuples(st.integers(1, n_tasks), st.sampled_from(HEADS)), unique=True, max_size=8)
    )
    report = MetricsReport()
    for task, head in keys:
        seen = draw(st.sets(st.integers(1, n_tasks)))
        report.add(TaskAccuracy(task, head, {t: draw(fraction) for t in sorted(seen)}, draw(fraction)))
    return report


# cell texts that each kind of column rejects (an empty per-task cell is valid)
INVALID = {
    "task": ["x", "2.0", ""],
    "head": ["x", "", "NCM"],
    "accuracy": ["x", "2.0", "-1", "nan", "inf"],
    "drop": ["x", "nan", "1e999", ""],
}


class TestMetricsCsv:
    @given(reports())
    @settings(max_examples=80)
    def test_a_valid_text_round_trips_byte_for_byte(self, report):
        text = report.to_csv()
        assert MetricsReport.from_csv(text).to_csv() == text

    @given(reports().filter(lambda report: report.rows), st.data())
    @settings(max_examples=100)
    def test_a_bad_cell_or_a_missing_one_is_named_by_its_line(self, report, data):
        lines = report.to_csv().split("\r\n")
        line = data.draw(st.integers(2, len(report.rows) + 1))
        cells = lines[line - 1].split(",")
        column = data.draw(st.integers(0, len(cells) - 1))
        if data.draw(st.booleans()):
            del cells[column]
        else:
            kind = {0: "task", 1: "head", len(cells) - 1: "drop"}.get(column, "accuracy")
            cells[column] = data.draw(st.sampled_from(INVALID[kind]))
        lines[line - 1] = ",".join(cells)
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            MetricsReport.from_csv("\r\n".join(lines))

    @given(st.text())
    @settings(max_examples=200)
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            MetricsReport.from_csv(text)
        except ValueError:
            pass

    def test_a_carriage_return_inside_a_field_is_named_by_its_line(self):
        text = "task,head,acc_avg,acc_per_task_1,drop\r\n1,ncm,0.5\r0,0.5,0.0\r\n"
        with pytest.raises(ValueError, match=r"^line 2: new-line character seen in unquoted field"):
            MetricsReport.from_csv(text)
