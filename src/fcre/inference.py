"""Prediction heads and cumulative continual-learning metrics.

Two heads over the same frozen state:

* ``ncm_predict`` -- nearest class mean: argmax over relations of
  E(x, r) = -||z - p_r||.
* ``dri_predict`` -- descriptive rank fusion: rank all relations once
  by E(x, r) and once by cos(z, mean description of r), then fuse
  DRI(x, r) = alpha / (epsilon + rank_E(r)) + (1 - alpha) / (epsilon + rank_cos(r)).

Both heads decide through one core, so exact ties go to the lower
relation id everywhere: their keys come from ``_keys``, NCM takes the
first argmin, and DRI ranks both channels with ``geometry._ranks`` and
picks the first best column in ``_fuse``.  ``evaluate`` scores each test
pool, encoded once, in passes of at most ``EVAL_BLOCK_ENTRIES`` (queries
x relations) entries, and the per-query heads are one-row calls of the
same ``_keys``: a query embedding gets the same key bits, so the same
decision, in both, near-ties included; they check the means' width once,
as ``DescriptionSet`` checked each mean.  Their reference, in
``tests/loop_reference.py``, scores relation by relation with
``geometry.euclidean`` and ``geometry.cosine``.  ``evaluate`` embeds a
pool, which ``Task`` checked, with ``encoder._embed``, as ``encode_batch``
does, and ``encoder.encode`` sums in another order and gives a row other
last bits, so a per-query head fed ``encode(x)`` can decide otherwise
than ``evaluate`` at a near-tie.  Accuracy is cumulative: after task j,
every earlier task's test pool is scored against the full label space
seen so far, and ACC_j is the mean of those accuracies.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from fcre.encoder import _embed
from fcre.formats import _as_matrix, _relation_id, _relation_items
from fcre.geometry import _checked_scores, _pair, _ranks
# perfbench's tracer test reads ``inference.euclidean``; no code here calls it
from fcre.geometry import euclidean  # noqa: F401
from fcre.losses import HyperParams, _check_fusion_weights

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from fcre.continual import ContinualState, Prototypes
    from fcre.descriptions import DescriptionSet

HEADS = ("ncm", "dri")


def check_heads(heads) -> None:
    """Reject anything but a non-empty sequence of distinct names from ``HEADS``."""
    heads = tuple(heads)
    if not heads:
        raise ValueError("at least one prediction head is required")
    for head in heads:
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}; expected one of {HEADS}")
    if len(set(heads)) != len(heads):
        raise ValueError(f"duplicate heads: {heads}")


def _means(relations: list[int], descriptions: "DescriptionSet") -> tuple:
    """The (R, d) mean descriptions of exactly ``relations`` (ascending) and their norms."""
    if tuple(relations) != descriptions.relations:
        raise ValueError(
            f"mismatched relation registries: prototypes cover {list(relations)} "
            f"but descriptions cover {list(descriptions.relations)}"
        )
    means = descriptions.means
    mean_norms = np.sqrt(np.einsum("rd,rd->r", means, means))
    if np.any(mean_norms == 0.0):
        raise ValueError("cosine undefined: second argument has zero norm")
    return means, mean_norms


def _keys(z, prototypes, proto_sq_norms, means) -> tuple[np.ndarray, np.ndarray | None]:
    """The (queries, R) keys of the query rows ``z``, the smaller ranked first, for both heads.

    The distance key is |p_r|^2 - 2 z . p_r, the squared distance less
    |z|^2, so in exact arithmetic it orders relations as the distance
    does.  Given ``means`` (as ``_means`` returns them), the description
    key is the negated clipped cosine of z and each mean, else None.
    """
    # einsum, not a matrix product: it sums every (q, r) entry in one
    # order, so relations sharing a prototype or a mean description tie
    # exactly, and a contiguous row gets the same bits alone as in a block.
    key = proto_sq_norms[None, :] - 2.0 * np.einsum("qd,rd->qr", z, prototypes)
    if means is None:
        return key, None
    means, mean_norms = means
    z_norms = np.sqrt(np.einsum("qd,qd->q", z, z))
    if np.any(z_norms == 0.0):
        raise ValueError("cosine undefined: first argument has zero norm")
    dots = np.einsum("qd,rd->qr", z, means)
    return key, -np.clip(dots / (z_norms[:, None] * mean_norms[None, :]), -1.0, 1.0)


def _query_keys(z, prototypes, descriptions: "DescriptionSet | None" = None) -> tuple:
    """One query's ascending relation ids and its (1, R) ``_keys``; inputs checked by ``_pair``."""
    z = _as_matrix(z, "embedding", 1)
    if len(prototypes) == 0:
        raise ValueError("prototype store is empty")
    items = _relation_items(prototypes)
    relations = [r for r, _ in items]
    vectors = np.array([_pair(z, p)[1] for _, p in items])
    means = None
    if descriptions is not None:
        means = _means(relations, descriptions)
        _pair(z, means[0][0])  # the registry's rows share one width and were checked when filled
    # a contiguous row, as evaluate's are: einsum's summation order follows the strides
    return relations, *_keys(np.array([z]), vectors, np.einsum("rd,rd->r", vectors, vectors), means)


def ncm_predict(z, prototypes) -> int:
    """Nearest-class-mean prediction: the first argmin of the keys, ties to the lower id."""
    relations, key, _ = _query_keys(z, prototypes)
    return relations[int(np.argmin(key[0]))]


def _fuse(e_keys: np.ndarray, c_keys: np.ndarray, alpha: float, epsilon: float) -> tuple:
    """DRI of two (n, R) key blocks, and the first best column of each row.

    Columns are relations in ascending id order.  Each channel ranks a
    row by ``geometry._ranks`` (smaller key first, exact ties to the lower
    id), DRI = alpha / (epsilon + rank_e) + (1 - alpha) / (epsilon + rank_c),
    and ``argmax`` picks the first best column: fused ties go to the lower id.
    """
    n = e_keys.shape[0]
    ranks = _ranks(np.concatenate([e_keys, c_keys]))  # both channels in one sort
    fused = alpha / (epsilon + ranks[:n]) + (1.0 - alpha) / (epsilon + ranks[n:])
    return fused, np.argmax(fused, axis=1)


def dri_predict_from_scores(
    e_scores: Mapping[int, float], c_scores: Mapping[int, float], alpha: float, epsilon: float
) -> int:
    """DRI prediction from two score tables (higher scores rank first); ties go to the lower id."""
    e, c = _checked_scores(e_scores), _checked_scores(c_scores)
    _check_fusion_weights(alpha, epsilon)
    relations, c_relations = sorted(e), sorted(c)
    if relations != c_relations:
        raise ValueError(
            "mismatched relation registries: prototype scores cover "
            f"{relations} but description scores cover {c_relations}"
        )
    keys = -np.array([[e[r] for r in relations], [c[r] for r in relations]])
    return relations[int(_fuse(keys[:1], keys[1:], alpha, epsilon)[1][0])]


def _dri(z, prototypes, descriptions: "DescriptionSet", alpha, epsilon):
    """One query's ascending relation ids, its DRI row and the row's best column."""
    _check_fusion_weights(alpha, epsilon)
    relations, e_keys, c_keys = _query_keys(z, prototypes, descriptions)
    fused, best = _fuse(e_keys, c_keys, alpha, epsilon)
    return relations, fused[0], int(best[0])


def dri_score(
    z, rel: int, prototypes, descriptions: "DescriptionSet", alpha: float, epsilon: float
) -> float:
    """Fused score of one relation (ranks are computed over all of them)."""
    rel = _relation_id(rel, "relation id")
    relations, fused, _ = _dri(z, prototypes, descriptions, alpha, epsilon)
    if rel not in relations:
        raise ValueError(f"relation {rel} is not registered")
    return float(fused[relations.index(rel)])


def dri_predict(z, prototypes, descriptions: "DescriptionSet", alpha: float, epsilon: float) -> int:
    """Descriptive rank-fusion prediction; fused ties go to the lower id."""
    relations, _, best = _dri(z, prototypes, descriptions, alpha, epsilon)
    return relations[best]


@dataclass(frozen=True)
class TaskAccuracy:
    """Cumulative evaluation row logged after finishing one task."""

    task_index: int
    head: str
    acc_per_task: dict[int, float]
    acc_avg: float


def _task_index(text: str) -> int:
    """``text`` as a task index: a decimal of at least 1, written as ``str(int(...))`` writes it."""
    task = int(text)
    if task < 1 or str(task) != text:
        raise ValueError(f"task {text!r} is not a canonical task index >= 1")
    return task


@dataclass
class MetricsReport:
    """Ordered collection of evaluation rows plus CSV (de)serialization."""

    rows: list[TaskAccuracy] = field(default_factory=list)

    def add(self, row: TaskAccuracy) -> None:
        self.rows.append(row)

    def head_rows(self, head: str) -> list[TaskAccuracy]:
        return [r for r in self.rows if r.head == head]

    def final_drop(self, head: str) -> float:
        """ACC_1 - ACC_T for one head (positive means forgetting)."""
        rows = self.head_rows(head)
        if not rows:
            raise ValueError(f"no rows recorded for head {head!r}")
        return rows[0].acc_avg - rows[-1].acc_avg

    def to_csv(self) -> str:
        """Render all rows, with one accuracy column per task up to the last the rows name;
        float cells use repr so reruns are byte-identical."""
        total = max((max([r.task_index, *r.acc_per_task]) for r in self.rows), default=0)
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["task", "head", "acc_avg"]
        header += [f"acc_per_task_{i}" for i in range(1, total + 1)]
        header += ["drop"]
        writer.writerow(header)
        first_avg: dict[str, float] = {}
        for row in self.rows:
            if row.head not in first_avg:
                first_avg[row.head] = row.acc_avg
            cells = [str(row.task_index), row.head, repr(row.acc_avg)]
            for i in range(1, total + 1):
                cells.append(repr(row.acc_per_task[i]) if i in row.acc_per_task else "")
            cells.append(repr(first_avg[row.head] - row.acc_avg))
            writer.writerow(cells)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "MetricsReport":
        """Parse ``to_csv`` output; a malformed line raises ``ValueError`` naming it (1-based),
        as do an accuracy outside [0, 1], a non-finite drop, a second (task, head) row or task
        column and a task index that ``to_csv`` would not write back as it stands (see
        ``_task_index``)."""
        reader = csv.reader(io.StringIO(text))
        try:
            lines = [(reader.line_num, cells) for cells in reader]
        except csv.Error as exc:  # a carriage return inside an unquoted field, say
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        if not lines:
            raise ValueError("metrics CSV is empty")
        header = lines[0][1]
        if header[:3] != ["task", "head", "acc_avg"] or header[-1] != "drop":
            raise ValueError(f"line 1: unrecognized metrics CSV header: {header}")
        tasks = []
        for col in header[3:-1]:
            try:
                if not col.startswith("acc_per_task_"):
                    raise ValueError
                task = _task_index(col.removeprefix("acc_per_task_"))
            except ValueError:
                raise ValueError(f"line 1: column {col!r} is not acc_per_task_<task>") from None
            if task in tasks:
                raise ValueError(f"line 1: column {col!r} names task {task} a second time")
            tasks.append(task)
        report = cls()
        seen = set()
        for line, cells in lines[1:]:
            if not cells:
                continue
            try:
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells, expected {len(header)}")
                check_heads([cells[1]])
                key = _task_index(cells[0]), cells[1]
                if key in seen:
                    raise ValueError(f"a second row for task {key[0]}, head {key[1]!r}")
                seen.add(key)
                acc = {task: float(cell) for task, cell in zip(tasks, cells[3:-1]) if cell}
                row = TaskAccuracy(key[0], key[1], acc, float(cells[2]))
                for value in (row.acc_avg, *acc.values()):
                    if not 0.0 <= value <= 1.0:  # also false for nan
                        raise ValueError(f"accuracy {value!r} is not in [0, 1]")
                if not math.isfinite(float(cells[-1])):
                    raise ValueError(f"drop {cells[-1]!r} is not finite")
                report.add(row)
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
        return report


# (queries x relations) entries per scoring pass of ``evaluate``: each
# (queries, R) transient then takes at most 32 KB, and the DRI rank
# channels, sorted together, 64 KB.  The budget bounds scoring only: a
# pool of n queries is encoded whole, so the encoder's transients take
# n x (hidden + d) floats and grow with the pool.  Scoring each test pool
# in one pass writes the same metrics.csv but raised an eval_wide seed's
# peak RSS for no speed, and a 1,024-entry budget made the seed slower
# (CHANGES.md, "The loss layout is the one owner of each anchor's sets").
EVAL_BLOCK_ENTRIES = 4_096


def _predict_block(
    z: np.ndarray, prototypes: np.ndarray, proto_sq_norms: np.ndarray, means, hp: HyperParams
) -> dict[str, np.ndarray]:
    """Per head, the column of each query row's predicted relation, from the rows' ``_keys``:
    NCM's first argmin and, given ``means``, DRI's ``_fuse``, as the per-query heads decide."""
    e_keys, c_keys = _keys(z, prototypes, proto_sq_norms, means)
    predictions = {"ncm": np.argmin(e_keys, axis=1)}
    if c_keys is not None:
        predictions["dri"] = _fuse(e_keys, c_keys, hp.alpha, hp.epsilon)[1]
    return predictions


def evaluate(
    state: "ContinualState", prototypes: "Prototypes", heads: tuple[str, ...], hp: HyperParams
) -> list[TaskAccuracy]:
    """Score the test pool of every task in ``state.completed_tasks`` with each head.

    ``prototypes`` must cover exactly ``state.seen_relations``
    (``run_task`` builds them from the memory with the current encoder),
    so every prediction runs against the full label space seen so far
    and earlier tasks get harder as the stream grows.  Each pool is
    encoded once, whole (the encoder's transients, n x (hidden + d)
    floats for n queries, grow with the pool), and scored in passes of
    ``max(1, EVAL_BLOCK_ENTRIES // R)`` queries, which bound the scoring
    transients; every head scores a pass from the ``_keys`` of its rows
    against ``prototypes`` and, for DRI, the mean descriptions of
    ``state.descriptions``.  So each query gets the decision that
    ``ncm_predict`` and ``dri_predict`` give it, exact ties to the lower
    id.  Returns one row per head, in the order of ``heads``, each with
    task index ``len(state.completed_tasks)``.  The result is a pure fold
    over the test pools: sample order cannot affect it.
    """
    check_heads(heads)
    if not state.completed_tasks:
        raise ValueError("no task has been completed")
    relations, vectors = prototypes.relations, prototypes.vectors
    if tuple(relations.tolist()) != state.seen_relations:
        raise ValueError(
            f"prototypes cover relations {relations.tolist()} but the state has seen "
            f"{list(state.seen_relations)}"
        )
    means = _means(relations.tolist(), state.descriptions) if "dri" in heads else None
    proto_sq_norms = np.einsum("rd,rd->r", vectors, vectors)
    block = max(1, EVAL_BLOCK_ENTRIES // relations.size)
    acc_per_task: dict[str, dict[int, float]] = {head: {} for head in heads}
    for task in state.completed_tasks:
        hits = dict.fromkeys(heads, 0)
        embedded = _embed(state.encoder, task.test_x).z
        for start in range(0, task.test_y.size, block):
            rows = slice(start, start + block)
            predictions = _predict_block(embedded[rows], vectors, proto_sq_norms, means, hp)
            for head in hits:
                pred = relations[predictions[head]]
                hits[head] += int(np.count_nonzero(pred == task.test_y[rows]))
        for head, count in hits.items():
            acc_per_task[head][task.index] = count / len(task.test_y)
    return [
        TaskAccuracy(
            task_index=len(state.completed_tasks),
            head=head,
            acc_per_task=acc_per_task[head],
            acc_avg=sum(acc_per_task[head].values()) / len(acc_per_task[head]),
        )
        for head in heads
    ]
