"""Command-line front end: ``generate``, ``run``, and ``report``.

A run is identified by a short hash of the fully-resolved config plus
the seed, and owns a directory ``<out>/<run-id>/`` containing
``config.json``, ``metrics.csv``, and one checkpoint per task under
``checkpoints/``.  Neither the output directory nor the config's other
seeds enter the hash, so a seed writes the same directory whichever
seed list ran it.  ``config.json`` is written before the first task,
each checkpoint after its task and ``metrics.csv`` last, each through a
temporary file renamed into place, so a failed run leaves whole files.
``config.json`` holds the config with the run's seed alone, so ``fcre
run --config <run-dir>/config.json`` rewrites the same directory with
byte-identical contents.  Seeds are independent replicates, run one
after another; several ``fcre run --seed N`` into one ``--out``, one
per core, followed by ``fcre report``, spread them over cores.
A config is frozen and checks itself when built, as do the configs it
nests, so the commands take the configs they are given as valid.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from fcre.continual import init_state, run_task, write_checkpoint
from fcre.datagen import SyntheticSpec, generate_stream, ingest_dataset, write_dataset
from fcre.descriptions import ingest_descriptions, synth_descriptions
from fcre.formats import _checked_fields, checked, read_json, write_atomic
from fcre.geometry import unit_rows
from fcre.inference import HEADS, MetricsReport, check_heads
from fcre.losses import HyperParams

logger = logging.getLogger(__name__)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class EncoderConfig:
    feature_dim: int = 32
    hidden_dim: int = 32
    embed_dim: int = 16

    def __post_init__(self) -> None:
        _checked_fields(self, "encoder.")
        for name, value in asdict(self).items():
            if value < 1:
                raise ValueError(f"encoder.{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved description of one experiment (all seeds), valid once built.

    ``seeds`` is stored as a tuple of Python ints, ``heads`` as a tuple of
    strings and ``description_spread`` as a float, whatever built them, as
    the nested configs store theirs.  Either tuple may be given as any
    sequence but a string.
    """

    data_mode: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    dataset_path: str | None = None
    descriptions_path: str | None = None
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    hyper: HyperParams = field(default_factory=HyperParams)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    heads: tuple[str, ...] = HEADS
    description_spread: float = 0.1
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_dir", checked(self.out_dir, str, "out_dir"))
        for name in ("dataset_path", "descriptions_path"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, checked(getattr(self, name), str, name))
        if self.data_mode not in ("synthetic", "files"):
            raise ValueError(
                f"data_mode must be 'synthetic' or 'files', got {self.data_mode!r}"
            )
        if self.data_mode == "files":
            if not self.dataset_path or not self.descriptions_path:
                raise ValueError(
                    "data_mode 'files' requires both dataset_path and descriptions_path"
                )
        elif self.synthetic.feature_dim != self.encoder.feature_dim:
            raise ValueError(
                f"synthetic feature_dim {self.synthetic.feature_dim} does not "
                f"match encoder feature_dim {self.encoder.feature_dim}"
            )
        for name, kind in (("seeds", int), ("heads", str)):
            value = getattr(self, name)
            if isinstance(value, Sequence) and not isinstance(value, str):
                value = list(value)  # anything else fails as a config file's value does
            object.__setattr__(self, name, tuple(checked(value, [kind], name)))
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds: {self.seeds}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        check_heads(self.heads)
        spread = checked(self.description_spread, float, "description_spread")
        object.__setattr__(self, "description_spread", spread)
        if spread < 0.0:
            raise ValueError(f"description_spread must be >= 0, got {spread}")


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "data": {
            "mode": config.data_mode,
            "synthetic": asdict(config.synthetic),
            "dataset_path": config.dataset_path,
            "descriptions_path": config.descriptions_path,
        },
        "encoder": asdict(config.encoder),
        "hyperparams": asdict(config.hyper),
        "seeds": list(config.seeds),
        "heads": list(config.heads),
        "description_spread": config.description_spread,
        "out_dir": config.out_dir,
    }


def _checked(value, default, key: str):
    """``value`` if its JSON type is that of ``default``; a ``ValueError`` names ``key`` otherwise.

    Unknown keys are errors, a list's entries take its first default's
    type, and a field whose default is None takes a string or null.
    """
    if isinstance(default, dict):
        value = checked(value, dict, f"config section {key!r}" if key else "config")
        unknown = set(value) - set(default)
        if unknown:
            where = f"keys in config section {key!r}" if key else "top-level config keys"
            raise ValueError(f"unknown {where}: {sorted(unknown)}")
        return {k: _checked(v, default[k], f"{key}.{k}" if key else k) for k, v in value.items()}
    if isinstance(default, list):
        return checked(value, [type(default[0])], key)
    if default is None and value is None:
        return None
    return checked(value, str if default is None else type(default), key)


def config_from_dict(obj) -> ExperimentConfig:
    """Build a config from parsed JSON; unknown keys and wrong JSON types are rejected."""
    defaults = ExperimentConfig()
    obj = _checked(obj, config_to_dict(defaults), "")
    data = obj.get("data", {})
    return ExperimentConfig(
        data_mode=data.get("mode", defaults.data_mode),
        synthetic=replace(defaults.synthetic, **data.get("synthetic", {})),
        dataset_path=data.get("dataset_path"),
        descriptions_path=data.get("descriptions_path"),
        encoder=replace(defaults.encoder, **obj.get("encoder", {})),
        hyper=replace(defaults.hyper, **obj.get("hyperparams", {})),
        seeds=obj.get("seeds", defaults.seeds),
        heads=obj.get("heads", defaults.heads),
        description_spread=obj.get("description_spread", defaults.description_spread),
        out_dir=obj.get("out_dir", defaults.out_dir),
    )


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


def run_id(config: ExperimentConfig, seed: int) -> str:
    """Short stable identifier; neither the output location nor the other seeds affect it."""
    ident = config_to_dict(config)
    ident.pop("out_dir")
    ident.pop("seeds")
    payload = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(f"{payload}|seed={seed}".encode("utf-8")).hexdigest()
    return digest[:12]


def _derived_seeds(seed: int) -> tuple[int, int]:
    """Independent sub-seeds for description-center projection and jitter."""
    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(int(c.generate_state(1)[0]) for c in children)


def _description_centers(
    center_map: dict[int, np.ndarray], embed_dim: int, seed: int
) -> dict[int, np.ndarray]:
    """Project feature-space class centers to unit vectors in embedding space."""
    rng = np.random.default_rng(seed)
    feature_dim = next(iter(center_map.values())).size
    proj = rng.standard_normal((embed_dim, feature_dim)) / math.sqrt(feature_dim)
    relations = sorted(center_map)
    # one matrix-vector product per center: a single matrix product would
    # round the rows differently
    projected = np.stack([proj @ center_map[rel] for rel in relations])
    rows = unit_rows(projected, [f"projected center {rel}" for rel in relations])
    return dict(zip(relations, rows))


def _synthetic_data(config: ExperimentConfig, seed: int):
    spec = replace(config.synthetic, seed=seed)
    stream, center_map = generate_stream(spec)
    proj_seed, desc_seed = _derived_seeds(seed)
    centers_d = _description_centers(center_map, config.encoder.embed_dim, proj_seed)
    descriptions = synth_descriptions(
        desc_seed, centers_d, config.hyper.k_desc, config.description_spread
    )
    return stream, descriptions


def _file_data(config: ExperimentConfig):
    stream = ingest_dataset(config.dataset_path)
    if stream.feature_dim != config.encoder.feature_dim:
        raise ValueError(
            f"{config.dataset_path} holds features of dimension {stream.feature_dim}, "
            f"but encoder.feature_dim is {config.encoder.feature_dim}"
        )
    descriptions = ingest_descriptions(config.descriptions_path)
    if descriptions.dim != config.encoder.embed_dim:
        raise ValueError(
            f"{config.descriptions_path} holds description vectors of dimension "
            f"{descriptions.dim}, but encoder.embed_dim is {config.encoder.embed_dim}"
        )
    if descriptions.k_desc != config.hyper.k_desc:
        raise ValueError(
            f"{config.descriptions_path} holds {descriptions.k_desc} description vectors "
            f"per relation, but hyperparams.k_desc is {config.hyper.k_desc}"
        )
    missing = set(stream.relations) - set(descriptions.relations)
    if missing:
        raise ValueError(
            f"{config.descriptions_path} holds no description vectors for relations "
            f"{sorted(missing)} of {config.dataset_path}"
        )
    return stream, descriptions


def run_single_seed(config: ExperimentConfig, seed: int) -> dict:
    """Execute one replicate and write its run directory.

    Returns a summary dict: run_dir plus final accuracy and drop per head.
    """
    if config.data_mode == "synthetic":
        stream, descriptions = _synthetic_data(config, seed)
    else:
        stream, descriptions = _file_data(config)
    dims = config.encoder
    state = init_state(dims.feature_dim, dims.hidden_dim, dims.embed_dim, seed)
    run_dir = Path(config.out_dir) / run_id(config, seed)
    checkpoints = run_dir / "checkpoints"
    checkpoints.mkdir(parents=True, exist_ok=True)
    resolved = config_to_dict(replace(config, seeds=(seed,)))
    write_atomic(run_dir / "config.json", json.dumps(resolved, sort_keys=True, indent=2) + "\n")
    for task in stream.tasks:
        run_task(state, task, descriptions, config.hyper, heads=config.heads)
        write_checkpoint(checkpoints / f"task_{task.index:02d}.json", state)
        logger.info("seed %d: finished task %d/%d", seed, task.index, stream.n_tasks)
    write_atomic(run_dir / "metrics.csv", state.report.to_csv())
    summary = {"seed": seed, "run_dir": str(run_dir), "final": {}, "drop": {}}
    for head in config.heads:
        rows = state.report.head_rows(head)
        summary["final"][head] = rows[-1].acc_avg
        summary["drop"][head] = state.report.final_drop(head)
    return summary


def cmd_generate(config: ExperimentConfig, out_dir: str) -> int:
    """Write dataset.jsonl and descriptions.jsonl for the synthetic spec."""
    if config.data_mode != "synthetic":
        raise ValueError("generate requires a synthetic data config")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stream, descriptions = _synthetic_data(config, config.synthetic.seed)
    dataset_path = out / "dataset.jsonl"
    descriptions_path = out / "descriptions.jsonl"
    write_dataset(stream, dataset_path)
    descriptions.write(descriptions_path)
    print(f"wrote {dataset_path}")
    print(f"wrote {descriptions_path}")
    return 0


def cmd_run(config: ExperimentConfig) -> int:
    """Run the seeds in order, printing each one's summary or failure, then their report."""
    run_dirs = []
    for seed in config.seeds:
        try:
            summary = run_single_seed(config, seed)
        except Exception as exc:  # noqa: BLE001 - report and keep going
            print(f"seed {seed}: FAILED: {exc}", file=sys.stderr)
            continue
        run_dirs.append(summary["run_dir"])
        finals = "  ".join(f"{head}={summary['final'][head]:.4f}" for head in config.heads)
        print(f"seed {seed}: {finals}  -> {summary['run_dir']}")
    if run_dirs:
        cmd_report(run_dirs, None)
    return 1 if len(run_dirs) < len(config.seeds) else 0


def _sample_std(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def cmd_report(run_dirs: list[str], out: str | None) -> int:
    """Aggregate metrics.csv across run dirs; print and optionally save.

    A run whose (task, head) rows differ from the first run's raises a
    ``ValueError`` naming its file, and a directory given twice (under
    any spelling) one naming it."""
    cells: dict[tuple[int, str], list[float]] = {}
    given: dict[Path, str] = {}  # each run directory, resolved, as first given
    for i, dirname in enumerate(run_dirs):
        resolved = Path(dirname).resolve()
        if resolved in given:
            raise ValueError(f"run directory {dirname} is {given[resolved]}, given already")
        given[resolved] = dirname
        path = Path(dirname) / "metrics.csv"
        if not path.exists():
            raise ValueError(f"no metrics.csv under {dirname}")
        try:  # a parse or decoding error names the file
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = MetricsReport.from_csv(fh.read()).rows
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        keys = {(row.task_index, row.head) for row in rows}
        if i == 0:
            first_path, first_keys = path, keys
        elif keys != first_keys:
            task, head = min(keys ^ first_keys)
            raise ValueError(
                f"{path}: runs cover different tasks or heads; task {task}, head {head!r} "
                f"has a row in only one of this file and {first_path}"
            )
        for row in rows:
            cells.setdefault((row.task_index, row.head), []).append(row.acc_avg)
    heads = sorted({head for _, head in cells})
    tasks = sorted({task for task, _ in cells})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["task", "head", "mean_acc_avg", "std_acc_avg", "n_runs"])
    for task in tasks:
        for head in heads:
            values = cells.get((task, head))
            if values:
                mean = sum(values) / len(values)
                writer.writerow([task, head, repr(mean), repr(_sample_std(values)), len(values)])
    if out:
        write_atomic(out, buf.getvalue())
        print(f"wrote {out}")
    print(f"aggregated {len(run_dirs)} run(s):")
    for head in heads:
        first = cells.get((tasks[0], head))
        last = cells.get((tasks[-1], head))
        if not first or not last:
            continue
        mean = sum(last) / len(last)
        drop = sum(first) / len(first) - mean
        # 0.0 - drop, not -drop: a zero drop prints as 0.0000, not -0.0000
        print(
            f"  {head}: final_acc {mean:.4f} +/- {_sample_std(last):.4f}  "
            f"drop {drop:.4f}  signed_delta {0.0 - drop:.4f}"
        )
    return 0


def _parse_seed_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"--seed expects an integer or comma list, got {raw!r}") from None


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """``config`` with ``fcre run``'s flags; the hyperparameters change in one ``replace``."""
    given = {"k_desc": args.k_desc, "alpha": args.alpha, "epsilon": args.epsilon}
    ablated = {
        "beta_sc": args.no_sc, "beta_st": args.no_st, "beta_hm": args.no_hm, "beta_mi": args.no_mi
    }
    changes = {name: value for name, value in given.items() if value is not None}
    changes.update((beta, 0.0) for beta, off in ablated.items() if off)
    config = replace(config, hyper=replace(config.hyper, **changes))
    if args.seed is not None:
        config = replace(config, seeds=_parse_seed_list(args.seed))
    if args.head is not None:
        config = replace(config, heads=tuple(h.strip() for h in args.head.split(",") if h.strip()))
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so importing the library does not load it
    parser = argparse.ArgumentParser(
        prog="fcre",
        description="Few-shot continual classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic dataset/description files")
    gen.add_argument("--config", help="experiment config JSON")
    gen.add_argument("--out", default="data", help="output directory (default: data)")
    gen.add_argument("--seed", help="override the generator seed")
    gen.add_argument("--k-desc", type=int, dest="k_desc", help="descriptions per relation")

    run = sub.add_parser("run", help="train and evaluate over the task stream")
    run.add_argument("--config", help="experiment config JSON")
    run.add_argument("--seed", help="comma-separated seed list (default 0,1,2,3,4)")
    run.add_argument("--head", help="comma-separated heads among: ncm,dri")
    run.add_argument("--no-sc", action="store_true", help="disable the contrastive term")
    run.add_argument("--no-st", action="store_true", help="disable the hardest-pair term")
    run.add_argument("--no-hm", action="store_true", help="disable the hard-mining term")
    run.add_argument("--no-mi", action="store_true", help="disable the mutual-information term")
    run.add_argument("--k-desc", type=int, dest="k_desc", help="descriptions per relation")
    run.add_argument("--alpha", type=float, help="rank-fusion weight in [0, 1]")
    run.add_argument("--epsilon", type=float, help="rank-fusion smoothing > 0")
    run.add_argument("--out", help="output directory (default: runs)")

    rep = sub.add_parser("report", help="aggregate metrics across run directories")
    rep.add_argument("run_dirs", nargs="+", help="run directories with metrics.csv")
    rep.add_argument("--out", help="write the combined CSV here")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            config = load_config(args.config) if args.config else ExperimentConfig()
            if args.seed is not None:
                seeds = _parse_seed_list(args.seed)
                if len(seeds) != 1:
                    raise ValueError("generate takes a single --seed")
                config = replace(config, synthetic=replace(config.synthetic, seed=seeds[0]))
            if args.k_desc is not None:
                config = replace(config, hyper=replace(config.hyper, k_desc=args.k_desc))
            return cmd_generate(config, args.out)
        if args.command == "run":
            config = load_config(args.config) if args.config else ExperimentConfig()
            return cmd_run(_apply_overrides(config, args))
        if args.command == "report":
            return cmd_report(args.run_dirs, args.out)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
