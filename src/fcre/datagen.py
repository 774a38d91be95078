"""Synthetic task streams and the JSONL dataset file format.

Synthetic data places one unit-norm class center per relation on the
feature sphere (rejection-sampled so every pair of centers is at least
``cluster_separation`` radians apart; a candidate is decided from one
stacked product with the centers accepted so far, whose entries have
the bits of per-pair ``np.dot`` calls) and draws samples as
center + within_class_noise * gaussian, one draw per task, which takes
the numbers in the order separate per-relation draws would.  Relation
ids are dense: task t (1-based) owns ids (t-1)*n_way .. t*n_way - 1.

Dataset files are JSONL, one sample per line; this module owns their
schema, and ``formats`` the line reader, the checks and the writer:

    {"task": 1, "relation": 0, "split": "train", "features": [...]}

``write_dataset`` emits a canonical ordering (task ascending, train
rows before test rows, stored sample order within a split), so
serialize -> parse -> serialize is byte-identical.  Feature entries
must be JSON numbers: ``true`` or ``"0.5"`` is rejected with its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fcre.continual import Task
from fcre.formats import _as_matrix, _at_least, _checked_fields, _relation_id, checked
from fcre.formats import read_jsonl, write_jsonl
from fcre.geometry import row_dots, unit_normalize

_MAX_ATTEMPTS_PER_CENTER = 10_000
_SCHEMA = {"task": int, "relation": int, "split": str, "features": list}


class GenerationError(RuntimeError):
    """Raised when the requested geometry cannot be realized."""


class DatasetFormatError(ValueError):
    """Raised when a dataset file violates the JSONL contract."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the synthetic stream generator, valid once built.

    Construction (``dataclasses.replace`` included) requires each field
    to hold a number of its default's kind (an integer that is not a
    bool, or a finite real) in its range, and stores the Python int or
    float it holds.
    """

    n_tasks: int = 8
    n_way: int = 5
    shots: int = 5
    test_per_relation: int = 20
    feature_dim: int = 32
    cluster_separation: float = 0.5
    within_class_noise: float = 0.1
    task1_oversample: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _checked_fields(self)
        for name in ("n_tasks", "n_way", "shots", "test_per_relation", "feature_dim",
                     "task1_oversample"):
            _at_least(getattr(self, name), 1, name)
        if not 0.0 < self.cluster_separation < math.pi:
            raise ValueError(
                f"cluster_separation must lie in (0, pi), got {self.cluster_separation}"
            )
        _at_least(self.within_class_noise, 0, "within_class_noise", float)
        _at_least(self.seed, 0, "seed")

    @property
    def n_relations(self) -> int:
        return self.n_tasks * self.n_way


def sample_separated_centers(
    rng: np.random.Generator, count: int, dim: int, min_angle: float
) -> np.ndarray:
    """Unit vectors with pairwise angle >= min_angle, by rejection."""
    max_dot = math.cos(min_angle)
    centers = np.empty((count, dim))
    for i in range(count):
        for _ in range(_MAX_ATTEMPTS_PER_CENTER):
            candidate = unit_normalize(rng.standard_normal(dim))
            if np.all(row_dots(centers[:i], candidate) <= max_dot):
                centers[i] = candidate
                break
        else:
            raise GenerationError(
                f"placed only {i} of {count} class centers in {dim} dimensions "
                f"at separation {min_angle}; try a smaller cluster_separation"
            )
    return centers


def generate_stream(spec: SyntheticSpec) -> tuple[tuple[Task, ...], dict[int, np.ndarray]]:
    """Draw a full task stream; also returns the class centers by relation.

    One generator seeded by ``spec.seed`` drives every draw in a fixed
    order (centers, then task by task, relation by relation, train pool
    before test pool), so identical specs produce identical streams.
    """
    rng = np.random.default_rng(spec.seed)
    centers = sample_separated_centers(
        rng, spec.n_relations, spec.feature_dim, spec.cluster_separation
    )
    tasks = []
    n_test, dim = spec.test_per_relation, spec.feature_dim
    for t in range(1, spec.n_tasks + 1):
        relations = np.arange((t - 1) * spec.n_way, t * spec.n_way)
        n_train = spec.task1_oversample if t == 1 else spec.shots
        # relation by relation, train rows before test rows: the order in
        # which one draw per pool would take them from the stream
        noise = rng.standard_normal((spec.n_way, n_train + n_test, dim))
        samples = centers[relations][:, None, :] + spec.within_class_noise * noise
        tasks.append(
            Task(
                index=t,
                train_x=samples[:, :n_train].reshape(-1, dim),
                train_y=np.repeat(relations, n_train),
                test_x=samples[:, n_train:].reshape(-1, dim),
                test_y=np.repeat(relations, n_test),
            )
        )
    center_map = {rel: centers[rel] for rel in range(spec.n_relations)}
    return tuple(tasks), center_map


def write_dataset(stream: tuple[Task, ...], path) -> None:
    """Serialize a stream in canonical JSONL order, whole or not at all.

    A stream ``ingest_dataset`` would refuse is an error naming its task, with nothing written.
    """
    if not stream:
        raise ValueError("cannot write an empty stream")
    home, width = {}, stream[0].feature_dim  # each relation's task, and task 1's feature width
    for t, task in enumerate(stream, start=1):
        if task.index != t:
            raise ValueError(f"tasks must run 1..n in order: expected task {t}, got {task.index}")
        if task.feature_dim != width:
            raise ValueError(f"task {t} has feature dimension {task.feature_dim}, expected {width}")
        for rel in task.relations:
            if home.setdefault(rel, t) != t:
                raise ValueError(f"relation {rel} appears in both task {home[rel]} and task {t}")
    records = (
        {"task": task.index, "relation": label, "split": split, "features": row}
        for task in stream
        for split, xs, ys in (
            ("train", task.train_x, task.train_y), ("test", task.test_x, task.test_y)
        )
        for row, label in zip(xs.tolist(), ys.tolist())
    )
    write_jsonl(path, records)


def ingest_dataset(path) -> tuple[Task, ...]:
    """Parse a JSONL dataset file: the owner of the stream rules for files.

    Every per-row error starts ``line N:`` (1-based), a relation without
    train or test rows at its first line (the lowest first); an empty
    file and task indices not contiguous from 1 name no line.

    Each row is stored as a float64 array once its line is checked, so
    at most one line's features are held as Python floats, and a task's
    row arrays are freed once its own are stacked from them in file order.
    """
    rows: dict[int, dict[str, tuple[list[np.ndarray], list[int]]]] = {}
    # each relation's task, first line and splits, in order of first line
    relation_home: dict[int, tuple[int, int, set[str]]] = {}
    dim: int | None = None
    for lineno, obj in read_jsonl(path, DatasetFormatError):
        try:
            checked(obj, _SCHEMA, "")
            task, rel, split = obj["task"], obj["relation"], obj["split"]
            _at_least(_relation_id(task, "task"), 1, "task")
            _at_least(_relation_id(rel, "relation"), 0, "relation")
            if split not in ("train", "test"):
                raise ValueError(f"split must be 'train' or 'test', got {split!r}")
            values = _as_matrix(obj["features"], "features", 1)
            if dim is not None and values.size != dim:
                raise ValueError(f"features has dimension {values.size}, expected {dim}")
            home, _, splits = relation_home.setdefault(rel, (task, lineno, set()))
            if home != task:
                raise ValueError(f"relation {rel} appears in both task {home} and task {task}")
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from None
        dim = values.size
        splits.add(split)
        split_rows = rows.setdefault(task, {"train": ([], []), "test": ([], [])})
        split_rows[split][0].append(values)
        split_rows[split][1].append(rel)
    if not rows:
        raise DatasetFormatError("dataset file is empty")
    indices = sorted(rows)
    if indices != list(range(1, len(indices) + 1)):
        raise DatasetFormatError(
            f"task indices must be contiguous from 1, got {indices}"
        )
    for rel, (task, lineno, splits) in relation_home.items():
        if len(splits) == 1:
            missing = "test" if "train" in splits else "train"
            raise DatasetFormatError(
                f"line {lineno}: relation {rel} of task {task} has no {missing} rows"
            )
    tasks = []
    for t in indices:
        # train, then test; popped, so its row arrays are freed once its own are built
        (train_rows, train_labels), (test_rows, test_labels) = rows.pop(t).values()
        tasks.append(
            Task(
                index=t,
                train_x=np.array(train_rows),
                train_y=np.array(train_labels, dtype=np.int64),
                test_x=np.array(test_rows),
                test_y=np.array(test_labels, dtype=np.int64),
            )
        )
    return tuple(tasks)
