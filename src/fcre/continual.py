"""Task-stream training driver with memory-based rehearsal.

The lifecycle for each incoming task mirrors the standard
memory-rehearsal recipe:

1. register the new relations' descriptions,
2. train on the task's own data for ``epochs_current`` epochs,
3. select ``memory_size`` representatives per new relation (the samples
   whose embeddings are closest to their relation's embedding centroid;
   ties go to the lower sample index) from one encoding of the task's
   training pool, for all the task's relations at once: group means,
   per-row distances and one stable sort, with the bits and the picks
   of a per-relation loop; then append them to the memory,
4. train again on the union of all *previous* tasks' memory and the
   current task data for ``epochs_memory`` epochs,
5. rebuild the prototypes from memory with the final encoder, as group
   means over one encoding of the memory (each with the bits of its
   relation's own ``mean(axis=0)``, also when one append interleaves
   relations), and log a cumulative evaluation row per prediction head.

Prototypes are always recomputed from raw stored features with the
current encoder, so rebuilding them twice in a row is a no-op.  Memory
is one (n, f) feature matrix with an (n,) relation-id vector, in
insertion order, and is append-only: once a relation's representatives
are chosen they are never replaced.  The prototypes are one (R, d)
matrix over ascending relation ids, which ``evaluate`` reads as it is.
This module owns the checkpoint schema, its encoder block included.  A
checkpoint holds the state's arrays as they are held: ``task_index``,
the encoder's three sizes and ``data``, the bilinear matrix's
``data``, and ``memory.labels`` with the memory rows' ``data``, both in
insertion order.

A task's features, W and descriptions are checked once, where they enter
(``Task``, ``run_task``, ``DescriptionSet``); ``Task``, the memory and
``select_memory`` check a block of feature rows by
``formats._as_matrix``, the rule ``encoder.encode_batch`` applies too.
So a training phase (steps 2 and 4) checks nothing again: it reads the
registry's (R, K, d) description table in place, finds each sample's row
in it with one ``DescriptionSet.rows`` call, and takes the table's norms
and unit descriptions.  Batches are formed per epoch: one full batch
when the pool fits in 64 samples, otherwise shuffled minibatches of 32
(a would-be trailing singleton is merged into the previous batch, since
the contrastive losses need company).  A full batch is the same rows
every epoch, so its layout is built once, before the first epoch; a
minibatch's is built at its step, by ``losses._Layout.of_rows`` from the
table rows of its samples.  Each step runs one ``encoder._embed``, one
``losses._joint`` kernel pass over z and the layout, one
``encoder._backward`` into a flat gradient buffer and one Adam update in
place on the flat parameter vector; the norms, unit descriptions and
buffers are dropped when the phase ends.  A non-finite gradient stops
the run with an error naming the task, the phase, the epoch and the
first loss term whose own gradient is non-finite.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from fcre.descriptions import DescriptionSet
from fcre.encoder import (
    AdamState,
    BilinearForm,
    EncoderParams,
    _Activations,
    _adam,
    _backward,
    _embed,
    encode_batch,
    init_adam,
    init_bilinear,
    init_encoder,
)
from fcre.formats import _as_labels, _floats_from_b64, _floats_to_b64, _relation_ids
from fcre.formats import _as_matrix, _relation_items, checked, read_json, write_atomic
from fcre.geometry import row_dots
from fcre.inference import HEADS, MetricsReport, check_heads, evaluate
from fcre.losses import HyperParams, _as_bilinear, _joint, _Layout, _unit_blocks
# training calls ``_joint``; ``joint_loss`` stays bound here for code that
# wraps ``continual.joint_loss``, as perfbench's tracer does
from fcre.losses import joint_loss  # noqa: F401

logger = logging.getLogger(__name__)

_FULL_BATCH_MAX = 64
_MINIBATCH_SIZE = 32


class ProtocolError(RuntimeError):
    """Violation of the task-stream contract (ordering, overlap, coverage)."""


@dataclass(frozen=True)
class Task:
    """One N-way few-shot task: disjoint train and test pools over the same ``relations``."""

    index: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    relations: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", checked(self.index, int, "task index"))
        if self.index < 1:
            raise ValueError(f"task index must be >= 1, got {self.index}")
        object.__setattr__(self, "train_x", _as_matrix(self.train_x, "train_x"))
        object.__setattr__(self, "test_x", _as_matrix(self.test_x, "test_x"))
        object.__setattr__(self, "train_y", _as_labels(self.train_y, "train_y"))
        object.__setattr__(self, "test_y", _as_labels(self.test_y, "test_y"))
        if self.train_y.shape != (self.train_x.shape[0],):
            raise ValueError("train labels do not match train features")
        if self.test_y.shape != (self.test_x.shape[0],):
            raise ValueError("test labels do not match test features")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValueError("train and test feature dimensions differ")
        train, test = set(self.train_y.tolist()), set(self.test_y.tolist())
        if train != test:
            rel = min(train ^ test)
            split = "test" if rel in train else "train"
            raise ValueError(f"task {self.index}: relation {rel} has no {split} samples")
        object.__setattr__(self, "relations", tuple(sorted(train)))

    @property
    def feature_dim(self) -> int:
        return self.train_x.shape[1]


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
    """Append-only replay memory as arrays, in insertion (task) order.

    ``features`` is the (n, f) matrix of stored raw feature rows and
    ``labels`` the (n,) relation id of each row.  A relation's rows are
    appended once, in one call, and never change.
    """

    def __init__(self, feature_dim: int) -> None:
        if checked(feature_dim, int, "feature_dim") < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        self.features = np.zeros((0, feature_dim))
        self.labels = np.zeros(0, dtype=np.int64)

    def append(self, features, labels) -> None:
        """Store new relations' rows; a relation already in memory is rejected."""
        features = _as_matrix(features, "memory features")
        labels = _as_labels(labels, "memory labels")
        if labels.shape != (features.shape[0],):
            raise ValueError("memory labels do not match memory features")
        if features.shape[1] != self.features.shape[1]:
            raise ValueError(
                f"memory features have dimension {features.shape[1]}, "
                f"expected {self.features.shape[1]}"
            )
        # Python sets, not np.intersect1d/np.unique: those import numpy.ma,
        # which adds about 1 MB to a run's peak memory
        stored = set(labels.tolist()) & set(self.labels.tolist())
        if stored:
            raise ProtocolError(
                f"memory for relation {min(stored)} was already selected; "
                "memory is append-only"
            )
        # new arrays, never views of the caller's: earlier snapshots stay intact
        self.features = np.concatenate([self.features, features])
        self.labels = np.concatenate([self.labels, labels])

    @property
    def relations(self) -> tuple[int, ...]:
        """Relations in insertion (task) order."""
        return tuple(dict.fromkeys(self.labels.tolist()))

    @property
    def total_samples(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class Prototypes:
    """Class-mean embeddings: ascending (R,) relation ids and their (R, d) rows."""

    relations: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        relations = _relation_ids(self.relations, "prototype relations")
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)  # see inference._keys
        if relations.ndim != 1 or np.any(relations[1:] <= relations[:-1]):
            raise ValueError("prototype relations must be strictly ascending ids")
        if vectors.ndim != 2 or vectors.shape[0] != relations.size or vectors.shape[1] < 1:
            raise ValueError(
                f"expected one prototype row per relation, of width >= 1, got shape "
                f"{vectors.shape} for {relations.size} relations"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValueError("prototypes contain non-finite entries")
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "vectors", vectors)


@dataclass
class ContinualState:
    """Everything that evolves while consuming a task stream."""

    encoder: EncoderParams
    bilinear: BilinearForm
    optimizer: AdamState
    memory: MemoryBuffer
    prototypes: Prototypes
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
    seed: int,
) -> ContinualState:
    """Fresh state: seeded encoder/bilinear init and one Adam over both."""
    rng = np.random.default_rng(seed)
    params = init_encoder(feature_dim, hidden_dim, embed_dim, rng)
    bilinear = init_bilinear(embed_dim, rng)
    optimizer = init_adam(params.n_params + embed_dim * embed_dim)
    return ContinualState(
        encoder=params,
        bilinear=bilinear,
        optimizer=optimizer,
        memory=MemoryBuffer(feature_dim),
        prototypes=Prototypes(np.zeros(0, dtype=np.int64), np.zeros((0, embed_dim))),
        descriptions=DescriptionSet.empty(),
        rng=rng,
    )


def _group_means(rows: np.ndarray, group: np.ndarray, n_groups: int) -> np.ndarray:
    """Mean of each group's rows, with the bits of ``rows[group == g].mean(axis=0)``.

    Every group in ``0 .. n_groups - 1`` must hold a row.
    """
    if rows.shape[1] == 1:
        # mean(axis=0) of an (n, 1) block sums its one column pairwise,
        # which no batched sum reproduces
        return np.stack([rows[group == g].mean(axis=0) for g in range(n_groups)])
    # mean(axis=0) of an (n, d >= 2) block adds its rows one by one to 0.0,
    # and np.add.at adds them in row order
    sums = np.zeros((n_groups, rows.shape[1]))
    np.add.at(sums, group, rows)
    return sums / np.bincount(group, minlength=n_groups)[:, None]


def _central_rows(
    embedded: np.ndarray, group: np.ndarray, n_groups: int, memory_size: int
) -> np.ndarray:
    """The ``memory_size`` rows of each group closest to the group's centroid.

    Groups come in ascending order, each group's rows by distance; ties
    go to the lower row index, and a group with fewer rows keeps all of
    them.  Each distance has the bits of ``geometry.euclidean(row,
    centroid)``.
    """
    diff = embedded - _group_means(embedded, group, n_groups)[group]
    dists = np.sqrt(row_dots(diff, diff))
    order = np.lexsort((dists, group))  # stable: equal distances keep row order
    starts = np.searchsorted(group[order], np.arange(n_groups))
    rank = np.arange(order.size) - starts[group[order]]
    return order[rank < memory_size]


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
    if checked(memory_size, int, "memory_size") < 1:
        raise ValueError(f"memory_size must be >= 1, got {memory_size}")
    if len(samples_by_relation) == 0:
        raise ValueError("no relations to select memory from")
    selected: dict[int, np.ndarray] = {}
    for rel, samples in _relation_items(samples_by_relation):
        block = _as_matrix(samples, f"samples for relation {rel}")
        embedded = np.stack([np.asarray(encode_fn(row), dtype=np.float64) for row in block])
        group = np.zeros(len(block), dtype=np.int64)
        selected[rel] = block[_central_rows(embedded, group, 1, memory_size)].copy()
    return selected


def build_prototypes(
    memory: MemoryBuffer, encode_fn: Callable[[np.ndarray], np.ndarray]
) -> Prototypes:
    """Mean embedding of each relation's stored samples, freshly encoded.

    ``encode_fn`` maps an (n, f) block of features to (n, d) embeddings;
    all of memory is encoded in one call, and the rows come out in
    ascending relation id, each with the bits of the mean of its
    relation's rows.  Pure function of (memory, encoder): calling it
    twice with the same arguments gives identical prototypes.
    """
    relations = np.array(sorted(memory.relations), dtype=np.int64)
    if relations.size == 0:
        raise ValueError("memory is empty; there is nothing to build prototypes from")
    embedded = np.asarray(encode_fn(memory.features), dtype=np.float64)
    group = np.searchsorted(relations, memory.labels)
    return Prototypes(relations, _group_means(embedded, group, relations.size))


def _epoch_batches(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    if n <= _FULL_BATCH_MAX:
        return [np.arange(n)]
    perm = rng.permutation(n)
    batches = [perm[i : i + _MINIBATCH_SIZE] for i in range(0, n, _MINIBATCH_SIZE)]
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
    *,
    task_index: int,
    phase: str,
) -> None:
    """Train on one pool of checked rows for ``epochs`` epochs.

    It reads ``state.descriptions.table`` in place, each sample's row
    from one ``DescriptionSet.rows`` call, and takes the table's norms
    and unit descriptions once.  Each step passes the batch's embeddings
    and its ``_Layout.of_rows`` layout to ``losses._joint``, with no
    ``Batch`` in between.  A pool of at most ``_FULL_BATCH_MAX`` rows
    trains as ``np.arange(n)`` every epoch, so its layout is built once,
    before the first epoch.

    The encoder's four weight arrays and W are views into one flat
    parameter vector, and ``_backward`` and MI's W gradient write into the
    matching views of one flat gradient buffer; Adam updates the vector
    and its moments in place.  So a step allocates no parameter or
    optimizer arrays.  ``state.optimizer`` gets copies of the moments
    before the first step, and ``state.encoder`` and ``state.bilinear``
    copies of the weights after the last: objects taken from the state
    before or after this call never change with a later step.  A
    non-finite gradient stops training with a ``ValueError`` naming
    ``task_index``, ``phase``, the epoch and the first loss term whose
    own gradient is non-finite on the failing batch.
    """
    n = train_x.shape[0]
    if epochs == 0 or n == 0:
        return
    if n == 1:
        logger.warning("training pool has a single sample; nothing to contrast, skipping")
        return
    start, n_enc = state.encoder, state.encoder.n_params
    table, row_of = state.descriptions.table, state.descriptions.rows(train_y)
    norms, unit = _unit_blocks(table)
    whole = _Layout.of_rows(row_of, table, norms, unit) if n <= _FULL_BATCH_MAX else None
    vec = np.concatenate([start.to_vector(), state.bilinear.matrix.ravel()])
    grads = np.empty_like(vec)
    encoder, grad_encoder = start._views(vec[:n_enc]), start._views(grads[:n_enc])
    w = vec[n_enc:].reshape(state.bilinear.matrix.shape)
    grad_w = grads[n_enc:].reshape(w.shape)
    # the moments are updated in place, so the state gets copies; the
    # caller's earlier AdamState stays as it was
    opt = state.optimizer = replace(
        state.optimizer, m=state.optimizer.m.copy(), v=state.optimizer.v.copy()
    )
    work = np.empty((2, vec.size))
    for epoch in range(1, epochs + 1):
        for idx in _epoch_batches(n, state.rng):
            acts = _embed(encoder, train_x[idx])
            layout = _Layout.of_rows(row_of[idx], table, norms, unit) if whole is None else whole
            result = _joint(acts.z, layout, hp, w)
            _backward(encoder, acts, result.grad_z, grad_encoder)
            grad_w[...] = result.grad_w
            try:
                _adam(opt, vec, grads, work, hp.learning_rate)
            except ValueError as err:
                raise ValueError(
                    f"task {task_index}, {phase} phase, epoch {epoch}: non-finite gradient, "
                    f"first from {_nonfinite_term(acts, layout, hp, w, encoder)}"
                ) from err
    state.encoder = start.with_vector(vec[:n_enc])
    state.bilinear = BilinearForm(matrix=w.copy())


_LOSS_TERMS = (("scl", "beta_sc"), ("hsmt", "beta_st"), ("hm", "beta_hm"), ("mi", "beta_mi"))


def _nonfinite_term(
    acts: _Activations, layout: _Layout, hp: HyperParams, w: np.ndarray, encoder: EncoderParams
) -> str:
    """The first enabled loss term whose gradient alone is non-finite on a step's z and layout."""
    off = {beta: 0.0 for _, beta in _LOSS_TERMS}
    for name, beta in _LOSS_TERMS:
        if getattr(hp, beta) == 0.0:
            continue
        alone = _joint(acts.z, layout, replace(hp, **{**off, beta: getattr(hp, beta)}), w)
        grad = np.empty(encoder.n_params)
        _backward(encoder, acts, alone.grad_z, encoder._views(grad))
        if not (np.isfinite(grad).all() and np.isfinite(alone.grad_w).all()):
            return f"the {name} term"
    return "no single loss term"


def run_task(
    state: ContinualState,
    task: Task,
    descriptions: DescriptionSet,
    hp: HyperParams,
    heads: tuple[str, ...] = HEADS,
) -> ContinualState:
    """Consume one task: train, remember, re-train, evaluate.

    ``descriptions`` must cover every relation of the task; only those
    relations are absorbed into the state.  Appends one metrics row per
    head and returns the (mutated) state.  The task's order and feature
    dimension, W's shape and the descriptions are checked against the
    state before anything in it changes.
    """
    check_heads(heads)
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
    _as_bilinear(state.bilinear.matrix, state.encoder.embed_dim)
    missing = set(task.relations) - set(descriptions.relations)
    if missing:
        raise ProtocolError(
            f"descriptions missing for relations {sorted(missing)} of task {task.index}"
        )
    new_descriptions = descriptions.subset(task.relations)
    if new_descriptions.dim != state.encoder.embed_dim:
        raise ValueError(
            f"description dimension {new_descriptions.dim} does not match "
            f"embedding dimension {state.encoder.embed_dim}"
        )
    state.descriptions = state.descriptions.union(new_descriptions)

    _train(
        state, task.train_x, task.train_y, hp, hp.epochs_current,
        task_index=task.index, phase="current",
    )

    old_x, old_y = state.memory.features, state.memory.labels  # earlier tasks only
    embedded = encode_batch(state.encoder, task.train_x)
    group = np.searchsorted(task.relations, task.train_y)
    keep = _central_rows(embedded, group, len(task.relations), hp.memory_size)
    state.memory.append(task.train_x[keep], task.train_y[keep])

    _train(
        state, np.concatenate([old_x, task.train_x]), np.concatenate([old_y, task.train_y]),
        hp, hp.epochs_memory, task_index=task.index, phase="replay",
    )

    state.prototypes = build_prototypes(
        state.memory, lambda rows: encode_batch(state.encoder, rows)
    )
    state.completed_tasks.append(task)
    for row in evaluate(state, task.index, heads, hp):
        state.report.add(row)
    return state


# the JSON type of each checkpoint key; every ``data`` is a ``_floats_to_b64`` payload
_CHECKPOINT = {
    "task_index": int,
    "encoder": {"feature_dim": int, "hidden_dim": int, "embed_dim": int, "data": str},
    "bilinear": {"data": str},
    "memory": {"labels": [int], "data": str},
}


def checkpoint_dict(state: ContinualState) -> dict:
    """JSON-safe snapshot taken after the most recent completed task."""
    encoder, memory = state.encoder, state.memory
    return {
        "task_index": len(state.completed_tasks),
        "encoder": {
            "feature_dim": encoder.feature_dim,
            "hidden_dim": encoder.hidden_dim,
            "embed_dim": encoder.embed_dim,
            "data": _floats_to_b64(encoder.to_vector()),
        },
        "bilinear": {"data": _floats_to_b64(state.bilinear.matrix)},
        "memory": {"labels": memory.labels.tolist(), "data": _floats_to_b64(memory.features)},
    }


def write_checkpoint(path, state: ContinualState) -> None:
    # one json.dumps call runs the C encoder; json.dump streams through
    # the pure-Python one, to the same bytes
    write_atomic(path, json.dumps(checkpoint_dict(state), sort_keys=True) + "\n")


def read_checkpoint(path) -> dict:
    """Load a checkpoint back into live objects.

    Returns a dict with keys: task_index, encoder (EncoderParams),
    bilinear (BilinearForm, from ``embed_dim``² floats) and memory (a
    MemoryBuffer of one row of ``feature_dim`` floats per entry of
    ``memory.labels``, in the file's order).  A missing key, a wrong
    JSON type, a negative ``task_index``, a bad payload or a label
    beyond int64 raises ``ValueError`` naming the file and the key.
    """
    obj = read_json(path)
    try:
        checked(obj, _CHECKPOINT, "")
        if obj["task_index"] < 0:
            raise ValueError(f"task_index must be >= 0, got {obj['task_index']}")
        enc, mem = obj["encoder"], obj["memory"]
        f, h, d = enc["feature_dim"], enc["hidden_dim"], enc["embed_dim"]
        template = EncoderParams(np.zeros((h, f)), np.zeros(h), np.zeros((d, h)), np.zeros(d))
        encoder = template.with_vector(_floats_from_b64(enc["data"], template.n_params, "encoder"))
        w = _floats_from_b64(obj["bilinear"]["data"], d * d, "bilinear")
        bilinear = BilinearForm(w.reshape(d, d))
        memory = MemoryBuffer(f)
        rows = _floats_from_b64(mem["data"], len(mem["labels"]) * f, "memory").reshape(-1, f)
        if rows.size:  # append takes no empty block
            memory.append(rows, mem["labels"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return {
        "task_index": obj["task_index"], "encoder": encoder, "bilinear": bilinear, "memory": memory
    }
