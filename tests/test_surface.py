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
    "continual.TaskStream",
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
    "formats.float_row",
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
    assert len(PUBLIC) == 85


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


@pytest.mark.parametrize("config_type", [ExperimentConfig, SyntheticSpec, EncoderConfig, HyperParams])
def test_config_types_are_frozen_and_check_themselves(config_type):
    assert config_type.__dataclass_params__.frozen
    assert "__post_init__" in vars(config_type)
    config = config_type()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, dataclasses.fields(config)[0].name, None)


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


def test_only_geometry_calls_the_one_vector_key_forms():
    """Both heads take their keys from ``inference._keys``: no module keeps a second key path."""
    found = {path.stem: key_calls(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {stem: calls for stem, calls in found.items() if calls and stem != "geometry"} == {}
