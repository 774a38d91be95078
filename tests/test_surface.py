"""The public surface of the ``fcre`` modules, and the owner of file parsing, pinned.

A public name is a top-level ``def``, ``class`` or assignment target
without a leading underscore, ``logger`` excluded, in every module but
``__init__`` and ``__main__``.  Adding or deleting one changes this list
and the count that ROADMAP tracks as the package's public symbols.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import fcre
from fcre.cli import EncoderConfig, ExperimentConfig
from fcre.continual import ContinualState
from fcre.datagen import SyntheticSpec
from fcre.losses import HyperParams

PUBLIC = [
    "cli.DEFAULT_SEEDS",
    "cli.EncoderConfig",
    "cli.ExperimentConfig",
    "cli.cmd_generate",
    "cli.cmd_report",
    "cli.cmd_run",
    "cli.config_from_dict",
    "cli.config_to_dict",
    "cli.load_config",
    "cli.main",
    "cli.run_id",
    "cli.run_single_seed",
    "continual.ContinualState",
    "continual.MemoryBuffer",
    "continual.ProtocolError",
    "continual.Prototypes",
    "continual.Task",
    "continual.build_prototypes",
    "continual.checkpoint_dict",
    "continual.init_state",
    "continual.read_checkpoint",
    "continual.run_task",
    "continual.select_memory",
    "continual.write_checkpoint",
    "datagen.DatasetFormatError",
    "datagen.GenerationError",
    "datagen.SyntheticSpec",
    "datagen.generate_stream",
    "datagen.ingest_dataset",
    "datagen.sample_separated_centers",
    "datagen.write_dataset",
    "descriptions.DescriptionFormatError",
    "descriptions.DescriptionSet",
    "descriptions.ingest_descriptions",
    "descriptions.synth_descriptions",
    "encoder.AdamState",
    "encoder.BilinearForm",
    "encoder.EncoderParams",
    "encoder.encode",
    "encoder.encode_backward",
    "encoder.encode_batch",
    "encoder.init_adam",
    "encoder.init_bilinear",
    "encoder.init_encoder",
    "encoder.step",
    "formats.checked",
    "formats.read_json",
    "formats.read_jsonl",
    "formats.write_atomic",
    "formats.write_jsonl",
    "geometry.Ranking",
    "geometry.as_embedding",
    "geometry.cosine",
    "geometry.euclidean",
    "geometry.rank_scores",
    "geometry.row_dots",
    "geometry.unit_normalize",
    "geometry.unit_rows",
    "inference.EVAL_BLOCK_ENTRIES",
    "inference.HEADS",
    "inference.MetricsReport",
    "inference.TaskAccuracy",
    "inference.check_heads",
    "inference.dri_predict",
    "inference.dri_predict_from_scores",
    "inference.dri_score",
    "inference.evaluate",
    "inference.ncm_predict",
    "losses.Batch",
    "losses.HSMT_FLOOR",
    "losses.HmResult",
    "losses.HsmtResult",
    "losses.HyperParams",
    "losses.JointResult",
    "losses.MiResult",
    "losses.MiningSets",
    "losses.SclResult",
    "losses.hm_loss",
    "losses.hsmt_loss",
    "losses.joint_loss",
    "losses.mi_loss",
    "losses.mine_hard",
    "losses.scl_loss",
]


def public_names(source: str) -> list[str]:
    """Public top-level names of one module's source, in order of definition."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_") and name != "logger"]


MODULES = sorted(Path(fcre.__file__).parent.glob("*.py"))


def test_public_names_are_the_pinned_list():
    found = set()
    for path in MODULES:
        if path.stem not in ("__init__", "__main__"):
            found.update(f"{path.stem}.{name}" for name in public_names(path.read_text(encoding="utf-8")))
    assert sorted(found) == PUBLIC
    assert len(PUBLIC) == 83


def parsing_uses(source: str) -> set[str]:
    """The imports of ``base64`` and the uses of ``json.load``/``json.loads`` in one module."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses.update(alias.name for alias in node.names if alias.name == "base64")
        elif isinstance(node, ast.ImportFrom) and node.module == "base64":
            uses.add("base64")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            uses.update(f"json.{a.name}" for a in node.names if a.name in ("load", "loads"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
            and node.attr in ("load", "loads")
        ):
            uses.add(f"json.{node.attr}")
    return uses


def test_only_formats_decodes_files():
    """One owner per file format: base64 and JSON parsing live in ``formats`` only."""
    found = {path.stem: parsing_uses(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: uses for stem, uses in found.items() if uses} == {
        "formats": {"base64", "json.load", "json.loads"}
    }


def validate_uses(source: str) -> list[str]:
    """Each ``validate`` a module defines and each ``.validate`` it reads, by line."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "validate":
            uses.append(f"def validate, line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "validate":
            uses.append(f".validate, line {node.lineno}")
    return uses


def test_no_module_defines_or_calls_validate():
    """A config is checked once, when it is built, so nothing re-validates one."""
    found = {path.stem: validate_uses(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: uses for stem, uses in found.items() if uses} == {}


SET_STATE = ("_ids", "_table", "_means")


def set_fills(node, where="module") -> list[str]:
    """Each ``__new__`` call naming ``DescriptionSet`` and each ``SET_STATE`` assignment, by function."""
    found = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
        named = [node.func.value, *node.args]
        if any(isinstance(arg, ast.Name) and arg.id == "DescriptionSet" for arg in named):
            found.append(f"__new__ in {where}")
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    for target in filter(None, targets):
        found += [
            f"{sub.attr} in {where}"
            for sub in ast.walk(target)
            if isinstance(sub, ast.Attribute) and sub.attr in SET_STATE
        ]
    for child in ast.iter_child_nodes(node):
        found += set_fills(child, where)
    return found


def test_one_constructor_fills_every_description_set():
    """``DescriptionSet._of_table`` is the one place that makes a set and sets its arrays."""
    found = {path.stem: set_fills(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}
    assert {stem: fills for stem, fills in found.items() if fills} == {
        "descriptions": [
            "__new__ in _of_table", "_ids in _of_table", "_table in _of_table", "_means in _of_table"
        ]
    }


@pytest.mark.parametrize("config_type", [ExperimentConfig, SyntheticSpec, EncoderConfig, HyperParams])
def test_config_types_are_frozen_and_check_themselves(config_type):
    assert config_type.__dataclass_params__.frozen
    assert "__post_init__" in vars(config_type)
    config = config_type()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, dataclasses.fields(config)[0].name, None)


def test_the_run_state_holds_no_derived_field():
    """Prototypes are a function of memory and encoder, built where they are used, not stored."""
    assert [field.name for field in dataclasses.fields(ContinualState)] == [
        "encoder", "bilinear", "optimizer", "memory", "descriptions", "completed_tasks", "report",
        "rng",
    ]


def key_calls(source: str) -> list[str]:
    """Each call of ``euclidean`` or ``cosine``, by name or as an attribute, by line."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("euclidean", "cosine"):
                calls.append(f"{name}, line {node.lineno}")
    return calls


def holds(node, *phrases: str) -> bool:
    """Whether ``node`` is an f-string whose literal text holds one of ``phrases``."""
    return isinstance(node, ast.JoinedStr) and any(
        isinstance(part, ast.Constant) and phrase in part.value for part in node.values for phrase in phrases
    )


BOUND_PHRASES = ("must be >= ", "must be an integer >= ")


def bound_messages(source: str) -> list[str]:
    """Each f-string, and each plain string passed to a raised error, holding one of
    ``BOUND_PHRASES``, as source text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if holds(node, *BOUND_PHRASES):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            found += [
                ast.unparse(arg)
                for arg in node.exc.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and any(phrase in arg.value for phrase in BOUND_PHRASES)
            ]
    return found


def test_formats_at_least_owns_the_bounded_count_rule():
    """Each "<name> must be >= k, got v" comes from ``formats._at_least``.

    The one other f-string states another rule: a minimum over a list.
    """
    found = {path.stem: bound_messages(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: messages for stem, messages in found.items() if messages} == {
        "cli": ["f'seeds must be >= 0, got {min(self.seeds)}'"],
        "formats": ["f'{name} must be >= {low}, got {value}'"],
    }


def test_formats_relation_id_owns_the_int64_rule():
    """Each "<name> must fit in an int64" comes from ``formats._relation_id``.

    A single id goes to it directly; an array, sequence or iterator of
    ids or labels goes through ``formats._as_labels``, which sends it
    each entry, or an unsigned array's maximum.
    """
    messages, callers = {}, {}
    for path in MODULES:
        for node, where in scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if holds(node, "must fit in an int64"):
                messages.setdefault(path.stem, []).append(where)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_relation_id":
                callers.setdefault(path.stem, []).append(where)
    assert messages == {"formats": ["_relation_id"]}
    assert callers == {
        "datagen": ["ingest_dataset", "ingest_dataset"],  # a relation id, a task index
        "descriptions": ["DescriptionSet.vectors", "DescriptionSet.mean", "ingest_descriptions"],
        "formats": ["_relation_items", "_as_labels", "_as_labels"],  # a mapping's keys; the array rule
        "geometry": ["_checked_scores"],
        "inference": ["dri_score"],
    }


def scoped_nodes(node, where=""):
    """Each node below ``node`` with the dotted name of the class or function it is in."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}" if where else child.name
        yield child, inner
        yield from scoped_nodes(child, inner)


def array_checks(source: str) -> list[str]:
    """Each function or class with an ``if`` that tests ``.ndim`` or ``isfinite``, by dotted name."""
    found = []
    for node, where in scoped_nodes(ast.parse(source)):
        tested = ast.walk(node.test) if isinstance(node, ast.If) else ()
        if where not in found and any(
            getattr(sub, "attr", None) in ("ndim", "isfinite") or getattr(sub, "id", None) == "isfinite"
            for sub in tested
        ):
            found.append(where)
    return found


def test_formats_as_matrix_owns_the_float_array_rule():
    """Only ``formats._as_matrix`` checks the rank and the entries of an input float array.

    Every other test of an array's rank or finiteness is named here with
    the reason it is not that rule.
    """
    found = {path.stem: array_checks(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: sites for stem, sites in found.items() if sites} == {
        "continual": ["_nonfinite_term"],  # which loss term made a training gradient non-finite
        "encoder": [
            "EncoderParams.with_vector",  # its own flat vector; the constructor names the array
            "_adam",  # the gradient, internal state
        ],
        "formats": ["checked", "_as_matrix", "_float_entries"],  # one scalar, and the rule
        "inference": ["MetricsReport.from_csv"],  # one scalar cell of metrics.csv
    }


def float_conversions(source: str) -> list[str]:
    """Each function or class that calls ``np.asarray``, ``np.array`` or
    ``np.ascontiguousarray`` with a float dtype, by dotted name."""
    found = []
    for node, where in scoped_nodes(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and getattr(node.func.value, "id", None) == "np"
            and node.func.attr in ("asarray", "array", "ascontiguousarray")
        ):
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
        if any(ast.unparse(dtype) in FLOAT_DTYPES for dtype in dtypes):
            found.append(where)
    return found


FLOAT_DTYPES = {"float", "np.float64", "np.float32", "np.double", "'float64'", "'f8'", "'<f8'"}


def test_only_formats_converts_input_to_a_float_array():
    """Outside ``formats``, no call turns an input into a float array by ``dtype=``:
    ``formats._as_matrix`` does, after checking each entry.

    The one exception is named with its reason.
    """
    found = {path.stem: float_conversions(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: sites for stem, sites in found.items() if sites and stem != "formats"} == {
        "encoder": ["EncoderParams.with_vector"],  # copies its own flat vector; the constructor checks it
    }


def test_only_read_jsonl_takes_an_error_class():
    """Shared checks raise ``ValueError``; a parser raises its own class where it catches one."""
    found = [
        f"{path.stem}.{where}"
        for path in MODULES
        for node, where in scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.arg) and node.arg == "error"
    ]
    assert found == ["formats.read_jsonl"]


def test_each_parser_names_a_bad_line_in_one_place():
    """Each parser prefixes ``line N: `` in one place, besides rules checked after its loop."""
    found = {
        path.stem: [
            where
            for node, where in scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.JoinedStr) and getattr(node.values[0], "value", None) == "line "
        ]
        for path in MODULES
    }
    assert {stem: sites for stem, sites in found.items() if sites} == {
        "datagen": ["ingest_dataset", "ingest_dataset"],  # each line's rules, a missing split
        "descriptions": ["ingest_descriptions"],
        "formats": ["read_jsonl"],  # a line that is not JSON
        "inference": ["MetricsReport.from_csv", "MetricsReport.from_csv"],
    }


def test_only_geometry_calls_the_one_vector_key_forms():
    """Both heads take their keys from ``inference._keys``: no module keeps a second key path."""
    found = {path.stem: key_calls(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: calls for stem, calls in found.items() if calls and stem != "geometry"} == {}
