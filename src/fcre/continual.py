"""Task-stream training driver with memory-based rehearsal.

The lifecycle for each incoming task mirrors the standard
memory-rehearsal recipe:

1. register the new relations' descriptions,
2. train on the task's own data for ``epochs_current`` epochs,
3. select ``memory_size`` representatives per new relation (the samples
   whose embeddings are closest to their relation's embedding centroid;
   ties go to the lower sample index) from one encoding of the task's
   training pool, and append them to the memory,
4. train again on the union of all *previous* tasks' memory and the
   current task data for ``epochs_memory`` epochs,
5. rebuild the prototypes from memory with the final encoder and log a
   cumulative evaluation row per prediction head.

Prototypes are always recomputed from raw stored features with the
current encoder, so rebuilding them twice in a row is a no-op.  Memory
is append-only: once a relation's representatives are chosen they are
never replaced.

Each training phase (steps 2 and 4) validates its pool once: the
features, the hyperparameters and the pool's (R, K, d) description
table, which go into a ``losses._Plan``.  Batches are formed per epoch:
one full batch when the pool fits in 64 samples, otherwise shuffled
minibatches of 32 (a would-be trailing singleton is merged into the
previous batch, since the contrastive losses need company).  A full
batch is the same rows every epoch, so its label layout is built once.
Each step runs one encoder forward, one ``joint_loss`` pass over the
plan's batch, one backward and one Adam update; the plan is dropped
when the phase ends.  A non-finite gradient stops the run with an error
naming the task, the phase, the epoch and the first loss term whose own
gradient is non-finite.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from fcre.descriptions import DescriptionSet
from fcre.encoder import (
    Activations,
    AdamState,
    BilinearForm,
    EncoderParams,
    _embed,
    _feature_rows,
    backward,
    encode_batch,
    floats_from_b64,
    floats_to_b64,
    init_adam,
    init_bilinear,
    init_encoder,
    params_from_json_dict,
    params_to_json_dict,
    step,
)
from fcre.geometry import euclidean
from fcre.inference import HEADS, MetricsReport, evaluate
from fcre.losses import Batch, HyperParams, _Plan, joint_loss

logger = logging.getLogger(__name__)

FULL_BATCH_MAX = 64
MINIBATCH_SIZE = 32

DESCRIPTION_SOURCES = ("k-set", "raw-mean")


class ProtocolError(RuntimeError):
    """Violation of the task-stream contract (ordering, overlap, coverage)."""


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Task:
    """One N-way few-shot task: disjoint train and test pools."""

    index: int
    relations: tuple[int, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"task index must be >= 1, got {self.index}")
        rels = tuple(int(r) for r in self.relations)
        if len(rels) == 0:
            raise ValueError("task must cover at least one relation")
        if len(set(rels)) != len(rels):
            raise ValueError(f"task {self.index} has duplicate relations: {rels}")
        object.__setattr__(self, "relations", tuple(sorted(rels)))
        object.__setattr__(self, "train_x", _as_matrix(self.train_x, "train_x"))
        object.__setattr__(self, "test_x", _as_matrix(self.test_x, "test_x"))
        object.__setattr__(self, "train_y", np.asarray(self.train_y, dtype=np.int64))
        object.__setattr__(self, "test_y", np.asarray(self.test_y, dtype=np.int64))
        if self.train_y.shape != (self.train_x.shape[0],):
            raise ValueError("train labels do not match train features")
        if self.test_y.shape != (self.test_x.shape[0],):
            raise ValueError("test labels do not match test features")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValueError("train and test feature dimensions differ")
        rel_set = set(rels)
        for split, labels in ("train", self.train_y), ("test", self.test_y):
            extra = set(int(v) for v in labels) - rel_set
            if extra:
                raise ValueError(
                    f"task {self.index} {split} labels {sorted(extra)} are not in "
                    f"its relation set"
                )
        for r in rels:
            if not np.any(self.train_y == r):
                raise ValueError(f"task {self.index}: relation {r} has no train samples")
            if not np.any(self.test_y == r):
                raise ValueError(f"task {self.index}: relation {r} has no test samples")

    @property
    def feature_dim(self) -> int:
        return self.train_x.shape[1]

    @property
    def n_way(self) -> int:
        return len(self.relations)


@dataclass(frozen=True)
class TaskStream:
    """Tasks 1..T with pairwise-disjoint relation sets."""

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        tasks = tuple(self.tasks)
        object.__setattr__(self, "tasks", tasks)
        if len(tasks) == 0:
            raise ValueError("task stream is empty")
        indices = [t.index for t in tasks]
        if indices != list(range(1, len(tasks) + 1)):
            raise ValueError(f"task indices must be contiguous from 1, got {indices}")
        dims = {t.feature_dim for t in tasks}
        if len(dims) != 1:
            raise ValueError(f"tasks disagree on feature dimension: {sorted(dims)}")
        seen: set[int] = set()
        for t in tasks:
            overlap = seen & set(t.relations)
            if overlap:
                raise ValueError(
                    f"task {t.index} reuses relations {sorted(overlap)} from an "
                    "earlier task"
                )
            seen.update(t.relations)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def feature_dim(self) -> int:
        return self.tasks[0].feature_dim

    @property
    def relations(self) -> tuple[int, ...]:
        return tuple(sorted(r for t in self.tasks for r in t.relations))


class MemoryBuffer:
    """Append-only store of raw feature representatives per relation."""

    def __init__(self) -> None:
        self._entries: dict[int, np.ndarray] = {}

    def add(self, relation: int, features) -> None:
        relation = int(relation)
        if relation in self._entries:
            raise ProtocolError(
                f"memory for relation {relation} was already selected; "
                "memory is append-only"
            )
        block = _as_matrix(features, f"memory for relation {relation}")
        self._entries[relation] = block.copy()  # snapshot; callers may reuse buffers

    @property
    def relations(self) -> tuple[int, ...]:
        """Relations in insertion (task) order."""
        return tuple(self._entries)

    def __contains__(self, relation: int) -> bool:
        return int(relation) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_samples(self) -> int:
        return sum(block.shape[0] for block in self._entries.values())

    def features(self, relation: int) -> np.ndarray:
        try:
            return self._entries[int(relation)]
        except KeyError:
            raise KeyError(f"no memory for relation {relation}") from None

    def stacked(self, exclude: set[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """All stored samples (insertion order) as one (X, y) pair."""
        exclude = exclude or set()
        xs = []
        ys = []
        for rel, block in self._entries.items():
            if rel in exclude:
                continue
            xs.append(block)
            ys.append(np.full(block.shape[0], rel, dtype=np.int64))
        if not xs:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        return np.concatenate(xs), np.concatenate(ys)


class PrototypeStore:
    """Relation id -> class-mean embedding under some encoder snapshot."""

    def __init__(self, prototypes: Mapping[int, np.ndarray] | None = None) -> None:
        self._protos: dict[int, np.ndarray] = {}
        for rel, vec in (prototypes or {}).items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise ValueError(f"prototype for relation {rel} must be a finite vector")
            self._protos[int(rel)] = vec.copy()

    @property
    def relations(self) -> tuple[int, ...]:
        return tuple(sorted(self._protos))

    def items(self):
        return [(r, self._protos[r]) for r in self.relations]

    def __getitem__(self, relation: int) -> np.ndarray:
        try:
            return self._protos[int(relation)]
        except KeyError:
            raise KeyError(f"no prototype for relation {relation}") from None

    def __contains__(self, relation: int) -> bool:
        return int(relation) in self._protos

    def __len__(self) -> int:
        return len(self._protos)


@dataclass
class ContinualState:
    """Everything that evolves while consuming a task stream."""

    encoder: EncoderParams
    bilinear: BilinearForm
    optimizer: AdamState
    memory: MemoryBuffer
    prototypes: PrototypeStore
    descriptions: DescriptionSet
    completed_tasks: list[Task] = field(default_factory=list)
    report: MetricsReport = field(default_factory=MetricsReport)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    @property
    def seen_relations(self) -> tuple[int, ...]:
        return tuple(sorted(r for t in self.completed_tasks for r in t.relations))


def init_state(
    feature_dim: int,
    hidden_dim: int,
    embed_dim: int,
    hp: HyperParams,
    seed: int,
) -> ContinualState:
    """Fresh state: seeded encoder/bilinear init and one Adam over both."""
    hp.validate()
    rng = np.random.default_rng(seed)
    params = init_encoder(feature_dim, hidden_dim, embed_dim, rng)
    bilinear = init_bilinear(embed_dim, rng)
    optimizer = init_adam(params.n_params + embed_dim * embed_dim, hp.learning_rate)
    return ContinualState(
        encoder=params,
        bilinear=bilinear,
        optimizer=optimizer,
        memory=MemoryBuffer(),
        prototypes=PrototypeStore(),
        descriptions=DescriptionSet.empty(),
        rng=rng,
    )


def _central_rows(embedded: np.ndarray, memory_size: int) -> list[int]:
    """Indices of the ``memory_size`` rows closest to the rows' centroid.

    Distance ties go to the lower row index; with fewer rows, all of
    them, ordered by distance.
    """
    centroid = embedded.mean(axis=0)
    dists = [euclidean(row, centroid) for row in embedded]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    return order[:memory_size]


def select_memory(
    samples_by_relation: Mapping[int, np.ndarray],
    encode_fn: Callable[[np.ndarray], np.ndarray],
    memory_size: int,
) -> dict[int, np.ndarray]:
    """Pick the ``memory_size`` most central samples of each relation.

    Centrality is Euclidean distance from the relation's embedding
    centroid (a 1-means fit); distance ties are resolved by the lower
    sample index.  Relations with fewer samples keep everything.
    ``encode_fn`` embeds one feature row at a time; ``run_task`` applies
    the same rule to one batched encoding of the task's training pool.
    """
    if memory_size < 1:
        raise ValueError(f"memory_size must be >= 1, got {memory_size}")
    if len(samples_by_relation) == 0:
        raise ValueError("no relations to select memory from")
    selected: dict[int, np.ndarray] = {}
    for rel in sorted(samples_by_relation):
        block = _as_matrix(samples_by_relation[rel], f"samples for relation {rel}")
        embedded = np.stack([np.asarray(encode_fn(row), dtype=np.float64) for row in block])
        selected[int(rel)] = block[_central_rows(embedded, memory_size)].copy()
    return selected


def build_prototypes(
    memory: MemoryBuffer, encode_fn: Callable[[np.ndarray], np.ndarray]
) -> PrototypeStore:
    """Mean embedding of each relation's stored samples, freshly encoded.

    ``encode_fn`` maps an (n, f) block of features to (n, d) embeddings;
    all of memory is encoded in one call.  Pure function of (memory,
    encoder): calling it twice with the same arguments gives identical
    prototypes.
    """
    if len(memory) == 0:
        return PrototypeStore()
    features, _ = memory.stacked()
    embedded = np.asarray(encode_fn(features), dtype=np.float64)
    protos: dict[int, np.ndarray] = {}
    start = 0
    for rel in memory.relations:  # stacked() keeps this order
        stop = start + memory.features(rel).shape[0]
        protos[rel] = embedded[start:stop].mean(axis=0)
        start = stop
    return PrototypeStore(protos)


def _description_table(
    descriptions: DescriptionSet, labels: np.ndarray, source: str
) -> tuple[np.ndarray, np.ndarray]:
    """One description block per relation of a pool, and each sample's row in it.

    Returns the (R, K, d) table -- (R, 1, d) for ``raw-mean`` -- over the
    pool's R relations in id order, and the (n,) row of each label, so a
    minibatch's (B, K, d) block is ``table[row_of[idx]]``.
    """
    relations = sorted(set(labels.tolist()))
    for rel in relations:
        if rel not in descriptions:
            raise ProtocolError(f"no descriptions registered for relation {rel}")
    if source == "k-set":
        table = np.stack([descriptions.vectors(rel) for rel in relations])
    else:
        table = np.stack([descriptions.mean(rel)[None, :] for rel in relations])
    return table, np.searchsorted(relations, labels)


def _epoch_batches(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    if n <= FULL_BATCH_MAX:
        return [np.arange(n)]
    perm = rng.permutation(n)
    batches = [perm[i : i + MINIBATCH_SIZE] for i in range(0, n, MINIBATCH_SIZE)]
    if len(batches) > 1 and batches[-1].size == 1:
        # Contrastive terms need at least a pair; fold the straggler in.
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _train(
    state: ContinualState,
    train_x: np.ndarray,
    train_y: np.ndarray,
    hp: HyperParams,
    epochs: int,
    description_source: str,
    *,
    task_index: int = 0,
    phase: str = "current",
) -> None:
    """Train on one pool for ``epochs`` epochs from a plan validated once.

    A non-finite gradient stops training with a ``ValueError`` naming
    ``task_index``, ``phase``, the epoch and the first loss term whose
    own gradient is non-finite on the failing batch.
    """
    n = train_x.shape[0]
    if epochs == 0 or n == 0:
        return
    if n == 1:
        logger.warning("training pool has a single sample; nothing to contrast, skipping")
        return
    encoder = state.encoder
    w = state.bilinear.matrix
    n_enc = encoder.n_params
    table, row_of = _description_table(state.descriptions, train_y, description_source)
    x = _feature_rows(encoder, train_x)
    plan = _Plan(table, row_of, train_y, encoder.embed_dim, hp)
    vec = np.concatenate([encoder.to_vector(), w.ravel()])
    for epoch in range(1, epochs + 1):
        for idx in _epoch_batches(n, state.rng):
            acts = _embed(encoder, x[idx])
            batch = plan.batch(idx, acts.z)
            result = joint_loss(batch, hp, w)
            grads = np.concatenate(
                [backward(encoder, acts, result.grad_z), result.grad_w.ravel()]
            )
            try:
                vec, state.optimizer = step(state.optimizer, vec, grads)
            except ValueError as err:
                if np.isfinite(grads).all():
                    raise
                raise ValueError(
                    f"task {task_index}, {phase} phase, epoch {epoch}: non-finite gradient, "
                    f"first from {_nonfinite_term(batch, hp, w, encoder, acts)}"
                ) from err
            encoder = encoder.with_vector(vec[:n_enc])
            w = vec[n_enc:].reshape(w.shape)
    state.encoder = encoder
    state.bilinear = BilinearForm(matrix=w)


_LOSS_TERMS = (("scl", "beta_sc"), ("hsmt", "beta_st"), ("hm", "beta_hm"), ("mi", "beta_mi"))


def _nonfinite_term(
    batch: Batch, hp: HyperParams, w: np.ndarray, encoder: EncoderParams, acts: Activations
) -> str:
    """The first enabled loss term whose gradient alone is non-finite on ``batch``."""
    off = {beta: 0.0 for _, beta in _LOSS_TERMS}
    for name, beta in _LOSS_TERMS:
        if getattr(hp, beta) == 0.0:
            continue
        alone = joint_loss(batch, replace(hp, **{**off, beta: getattr(hp, beta)}), w)
        grad = np.concatenate([backward(encoder, acts, alone.grad_z), alone.grad_w.ravel()])
        if not np.isfinite(grad).all():
            return f"the {name} term"
    return "no single loss term"


def run_task(
    state: ContinualState,
    task: Task,
    descriptions: DescriptionSet,
    hp: HyperParams,
    heads: tuple[str, ...] = HEADS,
    description_source: str = "k-set",
) -> ContinualState:
    """Consume one task: train, remember, re-train, evaluate.

    ``descriptions`` must cover every relation of the task; only those
    relations are absorbed into the state.  Appends one metrics row per
    head and returns the (mutated) state.
    """
    hp.validate()
    if description_source not in DESCRIPTION_SOURCES:
        raise ValueError(
            f"description_source must be one of {DESCRIPTION_SOURCES}, "
            f"got {description_source!r}"
        )
    for head in heads:
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}; expected one of {HEADS}")
    expected_index = len(state.completed_tasks) + 1
    if task.index != expected_index:
        raise ProtocolError(
            f"tasks must arrive in order: expected task {expected_index}, "
            f"got task {task.index}"
        )
    overlap = set(task.relations) & set(state.seen_relations)
    if overlap:
        raise ProtocolError(
            f"task {task.index} reuses already-seen relations {sorted(overlap)}"
        )
    if task.feature_dim != state.encoder.feature_dim:
        raise ValueError(
            f"task features have dimension {task.feature_dim}, encoder expects "
            f"{state.encoder.feature_dim}"
        )
    missing = [r for r in task.relations if r not in descriptions]
    if missing:
        raise ProtocolError(
            f"descriptions missing for relations {missing} of task {task.index}"
        )
    new_descriptions = descriptions.subset(task.relations)
    if new_descriptions.dim != state.encoder.embed_dim:
        raise ValueError(
            f"description dimension {new_descriptions.dim} does not match "
            f"embedding dimension {state.encoder.embed_dim}"
        )
    state.descriptions = state.descriptions.union(new_descriptions)

    _train(
        state, task.train_x, task.train_y, hp, hp.epochs_current, description_source,
        task_index=task.index, phase="current",
    )

    embedded = encode_batch(state.encoder, task.train_x)
    for rel in task.relations:
        rows = np.flatnonzero(task.train_y == rel)
        keep = rows[_central_rows(embedded[rows], hp.memory_size)]
        state.memory.add(rel, task.train_x[keep])

    old_x, old_y = state.memory.stacked(exclude=set(task.relations))
    if old_x.shape[0] > 0:
        replay_x = np.concatenate([old_x, task.train_x])
        replay_y = np.concatenate([old_y, task.train_y])
    else:
        replay_x, replay_y = task.train_x, task.train_y
    _train(
        state, replay_x, replay_y, hp, hp.epochs_memory, description_source,
        task_index=task.index, phase="replay",
    )

    state.prototypes = build_prototypes(
        state.memory, lambda rows: encode_batch(state.encoder, rows)
    )
    state.completed_tasks.append(task)
    for row in evaluate(state, task.index, heads, hp):
        state.report.add(row)
    return state


def checkpoint_dict(state: ContinualState) -> dict:
    """JSON-safe snapshot taken after the most recent completed task."""
    return {
        "task_index": len(state.completed_tasks),
        "relations": list(state.seen_relations),
        "encoder": params_to_json_dict(state.encoder),
        "bilinear": {
            "dim": state.bilinear.dim,
            "data": floats_to_b64(state.bilinear.matrix.ravel()),
        },
        "memory": [
            {
                "relation": int(rel),
                "count": int(state.memory.features(rel).shape[0]),
                "feature_dim": int(state.memory.features(rel).shape[1]),
                "data": floats_to_b64(state.memory.features(rel).ravel()),
            }
            for rel in state.memory.relations
        ],
    }


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``: a run killed mid-write
    leaves the previous file, or none, never a partial one.  No newline
    translation, so the bytes are the text's UTF-8 encoding.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the write or the rename failed


def write_checkpoint(path, state: ContinualState) -> None:
    # one json.dumps call runs the C encoder; json.dump streams through
    # the pure-Python one, to the same bytes
    write_atomic(path, json.dumps(checkpoint_dict(state), sort_keys=True) + "\n")


def read_checkpoint(path) -> dict:
    """Load a checkpoint back into live objects.

    Returns a dict with keys: task_index, relations, encoder
    (EncoderParams), bilinear (BilinearForm), memory (MemoryBuffer).
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    encoder = params_from_json_dict(obj["encoder"])
    dim = int(obj["bilinear"]["dim"])
    bilinear = BilinearForm(
        matrix=floats_from_b64(obj["bilinear"]["data"], dim * dim).reshape(dim, dim)
    )
    memory = MemoryBuffer()
    for entry in obj["memory"]:
        count = int(entry["count"])
        fdim = int(entry["feature_dim"])
        memory.add(
            entry["relation"],
            floats_from_b64(entry["data"], count * fdim).reshape(count, fdim),
        )
    return {
        "task_index": int(obj["task_index"]),
        "relations": [int(r) for r in obj["relations"]],
        "encoder": encoder,
        "bilinear": bilinear,
        "memory": memory,
    }
