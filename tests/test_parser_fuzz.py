"""Fuzzing the config JSON, ``metrics.csv``, dataset and description parsers.

Good input round-trips: a valid config through ``config_to_dict``, JSON
text and ``config_from_dict`` to an equal config with the same run id,
and a ``to_csv`` text through ``from_csv`` and ``to_csv`` to the same
bytes.  Bad input raises a ``ValueError`` that names its config key or
its CSV line; no other exception escapes either parser.  Any bytes given
to ``ingest_dataset`` or ``ingest_descriptions`` parse or raise that
module's format error; ``tests/test_formats.py`` holds both JSONL
formats' round-trip and corrupted-line properties.
"""

import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcre.cli import EncoderConfig, ExperimentConfig, config_from_dict, config_to_dict, run_id
from fcre.datagen import DatasetFormatError, SyntheticSpec, ingest_dataset
from fcre.descriptions import DescriptionFormatError, ingest_descriptions
from fcre.formats import read_json
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


# mostly plain numbers, so that whole files parse; the rest probe the row checks
numbers = st.one_of(
    st.floats(-2.0, 2.0), st.integers(-3, 3), st.floats(),
    st.sampled_from([0.0, 1e-200, 1e200, 1e308, 10**400]),
)
rows = st.one_of(st.lists(numbers, min_size=2, max_size=2), st.lists(numbers, max_size=3))
relations = st.integers(-1, 2)
DATASET_FIELDS = {
    "task": st.integers(0, 2),
    "relation": relations,
    "split": st.sampled_from(["train", "test", "dev"]),
    "features": rows,
}
DESCRIPTION_FIELDS = {"relation": relations, "vectors": st.lists(rows, min_size=1, max_size=2)}


@st.composite
def records(draw, fields):
    """One JSONL line: the schema's keys with typed values, at times one key dropped or any JSON."""
    record = draw(st.fixed_dictionaries(fields))
    key, edit = draw(st.sampled_from(sorted(record))), draw(st.sampled_from(["", "", "drop", "any"]))
    if edit == "drop":
        del record[key]
    elif edit == "any":
        record[key] = draw(json_values)
    return json.dumps(record).encode("utf-8")


@st.composite
def edits(draw, valid: bytes):
    """``valid`` with one to three short spans replaced by random bytes."""
    text = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        text[start : start + draw(st.integers(0, 4))] = draw(st.binary(max_size=4))
    return bytes(text)


def jsonl_files(fields, valid: bytes):
    """Bytes of a JSONL file of ``records``, an edited ``valid`` file, or any bytes."""
    lines = st.lists(records(fields), max_size=10).map(b"\n".join)
    return st.one_of(lines, lines, edits(valid), st.binary(max_size=64))


def jsonl(objects) -> bytes:
    return b"".join(json.dumps(obj).encode("utf-8") + b"\n" for obj in objects)


VALID_DATASET = jsonl(
    {"task": task, "relation": rel, "split": split, "features": [0.5, -1.0 * rel]}
    for task, rel in ((1, 0), (1, 1), (2, 2)) for split in ("train", "test")
)
VALID_DESCRIPTIONS = jsonl({"relation": rel, "vectors": [[1.0, 0.5], [0.0, -2.0]]} for rel in range(3))
PARSERS = {
    "dataset": (ingest_dataset, DatasetFormatError, jsonl_files(DATASET_FIELDS, VALID_DATASET)),
    "descriptions": (
        ingest_descriptions, DescriptionFormatError,
        jsonl_files(DESCRIPTION_FIELDS, VALID_DESCRIPTIONS),
    ),
}


class TestJsonlBytes:
    @pytest.mark.parametrize("parser", sorted(PARSERS))
    @given(data=st.data())
    @settings(max_examples=300)
    def test_any_bytes_parse_or_raise_the_format_error(self, tmp_path_factory, parser, data):
        ingest, error, files = PARSERS[parser]
        path = tmp_path_factory.mktemp(parser) / "input.jsonl"
        path.write_bytes(data.draw(files))
        with warnings.catch_warnings():  # a zero mean description is legal and warns
            warnings.filterwarnings("ignore", "relation .* average to the zero vector")
            try:
                ingest(path)
            except error:
                pass

    @pytest.mark.parametrize("parser", sorted(PARSERS))
    def test_a_line_nested_beyond_the_decoder_limit_is_named(self, tmp_path, parser):
        ingest, error, _ = PARSERS[parser]
        path = tmp_path / "deep.jsonl"
        path.write_text("\n" + "[" * 100_000 + "\n")
        with pytest.raises(error, match="^line 2: invalid JSON: maximum recursion depth"):
            ingest(path)

    def test_a_json_file_nested_beyond_the_decoder_limit_names_the_file(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not valid JSON: "):
            read_json(path)
