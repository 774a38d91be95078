"""Prediction heads and cumulative continual-learning metrics.

Two heads over the same frozen state:

* ``ncm_predict`` -- nearest class mean: argmax over relations of
  E(x, r) = -||z - p_r||.
* ``dri_predict`` -- descriptive rank fusion: rank all relations once
  by E(x, r) and once by cos(z, mean description of r), then fuse
  DRI(x, r) = alpha / (epsilon + rank_E(r)) + (1 - alpha) / (epsilon + rank_cos(r)).

Both heads resolve exact score ties by ascending relation id, so
predictions are deterministic functions of their inputs.  These
per-query functions are the reference for ``evaluate``, which encodes
each test pool once and scores it in passes of at most
``EVAL_BLOCK_ENTRIES`` (queries x relations) entries: it orders
relations by the key |p_r|^2 - 2 z . p_r (the squared distance less a
per-query constant), takes both that key's and the cosines' products
with ``einsum`` so that relations sharing a prototype or a mean
description tie exactly, and ranks with NumPy's default sort, finding
ties in the sorted keys and sorting again stably only the rows that
hold one.  Accuracy is
reported cumulatively: after task j, every earlier task's test pool is
scored against the full label space seen so far, and ACC_j is the
unweighted mean of those per-task accuracies.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from fcre.encoder import encode_batch
from fcre.geometry import as_embedding, cosine, euclidean, rank_scores
from fcre.losses import HyperParams, _check_fusion_weights

if TYPE_CHECKING:  # pragma: no cover - import would be circular at runtime
    from fcre.continual import ContinualState
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


def _relation_items(prototypes) -> list[tuple[int, np.ndarray]]:
    """(id, vector) pairs of a mapping of relation id -> prototype, ids ascending."""
    out = [(int(r), np.asarray(p, dtype=np.float64)) for r, p in prototypes.items()]
    if not out:
        raise ValueError("prototype store is empty")
    return sorted(out, key=lambda pair: pair[0])


def euclidean_scores(z, prototypes) -> dict[int, float]:
    """E(x, r) = -||z - p_r|| for every registered relation."""
    z = as_embedding(z, name="embedding")
    return {r: -euclidean(z, p) for r, p in _relation_items(prototypes)}


def description_cosine_scores(z, descriptions: "DescriptionSet") -> dict[int, float]:
    """cos(z, mean description of r) for every relation in the set."""
    z = as_embedding(z, name="embedding")
    return {r: cosine(z, descriptions.mean(r)) for r in descriptions.relations}


def ncm_predict(z, prototypes) -> int:
    """Nearest-class-mean prediction; distance ties go to the lower id."""
    scores = euclidean_scores(z, prototypes)
    return _argmax_by_id(scores)


def _argmax_by_id(scores: Mapping[int, float]) -> int:
    best_rel = None
    best = -math.inf
    for rel in sorted(scores):
        if scores[rel] > best:
            best = scores[rel]
            best_rel = rel
    return int(best_rel)


def fuse_ranked_scores(
    e_scores: Mapping[int, float],
    c_scores: Mapping[int, float],
    alpha: float,
    epsilon: float,
) -> dict[int, float]:
    """Reciprocal-rank fusion of two score tables over the same relations."""
    _check_fusion_weights(alpha, epsilon)
    if set(e_scores) != set(c_scores):
        raise ValueError(
            "mismatched relation registries: prototype scores cover "
            f"{sorted(e_scores)} but description scores cover {sorted(c_scores)}"
        )
    e_ranks = rank_scores(e_scores).ranks
    c_ranks = rank_scores(c_scores).ranks
    return {
        r: alpha / (epsilon + e_ranks[r]) + (1.0 - alpha) / (epsilon + c_ranks[r])
        for r in e_ranks
    }


def dri_predict_from_scores(
    e_scores: Mapping[int, float],
    c_scores: Mapping[int, float],
    alpha: float,
    epsilon: float,
) -> int:
    fused = fuse_ranked_scores(e_scores, c_scores, alpha, epsilon)
    return _argmax_by_id(fused)


def dri_score(
    z, rel: int, prototypes, descriptions: "DescriptionSet", alpha: float, epsilon: float
) -> float:
    """Fused score of one relation (ranks are computed over all of them)."""
    fused = fuse_ranked_scores(
        euclidean_scores(z, prototypes),
        description_cosine_scores(z, descriptions),
        alpha,
        epsilon,
    )
    if int(rel) not in fused:
        raise ValueError(f"relation {rel} is not registered")
    return fused[int(rel)]


def dri_predict(z, prototypes, descriptions: "DescriptionSet", alpha: float, epsilon: float) -> int:
    """Descriptive rank-fusion prediction; fused ties go to the lower id."""
    return dri_predict_from_scores(
        euclidean_scores(z, prototypes),
        description_cosine_scores(z, descriptions),
        alpha,
        epsilon,
    )


@dataclass(frozen=True)
class TaskAccuracy:
    """Cumulative evaluation row logged after finishing one task."""

    task_index: int
    head: str
    acc_per_task: dict[int, float]
    acc_avg: float


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

    def n_tasks(self) -> int:
        return max((r.task_index for r in self.rows), default=0)

    def to_csv(self, n_tasks: int | None = None) -> str:
        """Render all rows; float cells use repr so reruns are byte-identical."""
        total = n_tasks if n_tasks is not None else self.n_tasks()
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
        as do an accuracy outside [0, 1], a non-finite drop and a second (task, head) row."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("metrics CSV is empty") from None
        if header[:3] != ["task", "head", "acc_avg"] or header[-1] != "drop":
            raise ValueError(f"line 1: unrecognized metrics CSV header: {header}")
        tasks = [col.removeprefix("acc_per_task_") for col in header[3:-1]]
        for col, task in zip(header[3:-1], tasks):
            if task == col or not task.isdecimal():
                raise ValueError(f"line 1: column {col!r} is not acc_per_task_<task>")
        report = cls()
        seen = set()
        for cells in reader:
            if not cells:
                continue
            try:
                if len(cells) != len(header):
                    raise ValueError(f"{len(cells)} cells, expected {len(header)}")
                check_heads([cells[1]])
                key = int(cells[0]), cells[1]
                if key in seen:
                    raise ValueError(f"a second row for task {key[0]}, head {key[1]!r}")
                seen.add(key)
                acc = {int(task): float(cell) for task, cell in zip(tasks, cells[3:-1]) if cell}
                row = TaskAccuracy(key[0], key[1], acc, float(cells[2]))
                for value in (row.acc_avg, *acc.values()):
                    if not 0.0 <= value <= 1.0:  # also false for nan
                        raise ValueError(f"accuracy {value!r} is not in [0, 1]")
                if not math.isfinite(float(cells[-1])):
                    raise ValueError(f"drop {cells[-1]!r} is not finite")
                report.add(row)
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        return report


# (queries x relations) entries per scoring pass of ``evaluate``: each
# (queries, R) transient then takes at most 32 KB, and the DRI rank
# channels, sorted together, 64 KB.  The budget bounds scoring only: a
# pool of n queries is encoded whole, so the encoder's transients take
# n x (hidden + d) floats and grow with the pool.  Scoring each test pool
# in one pass instead writes the same metrics.csv but raised the peak RSS
# of an eval_wide seed (80 relations, 5,400 queries per head) from 40,988
# to 41,768 KB (median of 8 fresh-interpreter seeds on a 2-core Xeon),
# about 1.9%, close to the benchmark's 0.02 bound on peak_rss_mb.
EVAL_BLOCK_ENTRIES = 4_096


def _ranks(keys: np.ndarray) -> np.ndarray:
    """1-based rank of every column per row: smaller key first, ties by column.

    Columns are relations in ascending id order, so exact ties go to the
    lower relation id, as ``rank_scores`` does.  The default sort is not
    stable, but a row whose sorted keys hold no two equal neighbours has
    one order only, which is the stable one; only rows with an exact tie
    (two equal neighbours in the sorted keys) are sorted again, stably.
    The ranks are scattered into place with one fancy-indexed assignment.
    """
    n_rows, n_cols = keys.shape
    order = np.argsort(keys, axis=1)
    ordered = np.sort(keys, axis=1)
    tied = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if tied.size:
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    ranks = np.empty(keys.shape)
    # order[q, k] is the column ranked k + 1 in row q
    ranks[np.arange(n_rows)[:, None], order] = np.arange(1.0, n_cols + 1.0)
    return ranks


def _predict_block(
    z: np.ndarray,
    prototypes: np.ndarray,
    proto_sq_norms: np.ndarray,
    means: np.ndarray | None,
    mean_norms: np.ndarray | None,
    hp: HyperParams,
) -> dict[str, np.ndarray]:
    """Column index of the predicted relation for each query row, per head.

    Both heads read one (queries, R) key matrix (see ``evaluate``): NCM
    takes its argmin, and DRI (present when ``means`` is given) fuses its
    ranks with the ranks of the description cosines.  Both pick the
    first best column, i.e. the lowest relation id among exact ties.
    """
    # einsum, not a matrix product, in both channels: it sums every (q, r)
    # entry in the same order, so two relations with one prototype, or one
    # mean description, get the same bits and still tie exactly;
    # ``z @ prototypes.T`` may round them apart.
    key = proto_sq_norms[None, :] - 2.0 * np.einsum("qd,rd->qr", z, prototypes)
    predictions = {"ncm": np.argmin(key, axis=1)}
    if means is None:
        return predictions
    z_norms = np.sqrt(np.einsum("qd,qd->q", z, z))
    if np.any(z_norms == 0.0):
        raise ValueError("cosine undefined: first argument has zero norm")
    dots = np.einsum("qd,rd->qr", z, means)
    cos = np.clip(dots / (z_norms[:, None] * mean_norms[None, :]), -1.0, 1.0)
    ranks = _ranks(np.concatenate([key, -cos]))  # both channels in one sort
    n = z.shape[0]
    fused = hp.alpha / (hp.epsilon + ranks[:n]) + (1.0 - hp.alpha) / (hp.epsilon + ranks[n:])
    predictions["dri"] = np.argmax(fused, axis=1)
    return predictions


def evaluate(
    state: "ContinualState", through_task: int, heads: tuple[str, ...], hp: HyperParams
) -> list[TaskAccuracy]:
    """Score the test pools of tasks 1..through_task with each head.

    Every prediction runs against the full label space seen so far (the
    prototype registry), so earlier tasks get harder as the stream
    grows.  Each pool is encoded once, whole (the encoder's transients,
    n x (hidden + d) floats for n queries, grow with the pool), and
    scored in passes of ``max(1, EVAL_BLOCK_ENTRIES // R)`` queries,
    which bound the scoring transients; every head scores a
    pass from one (queries, R) key matrix against the (R, d) matrix of
    ``state.prototypes``,
    key[q, r] = |p_r|^2 - 2 z_q . p_r: the squared distance less the
    per-query constant |z_q|^2, so in exact arithmetic it orders the
    relations as the distance does.  DRI also reads the (R, d) matrix of
    mean descriptions that ``state.descriptions`` holds.  Exact ties go to
    the lower relation id in both heads and both rank channels, as in
    ``ncm_predict`` and ``dri_predict``.  Returns one row per head, in the
    order of ``heads``.
    The result is a pure fold over the test pools: sample order cannot
    affect it.
    """
    check_heads(heads)
    done = {t.index: t for t in state.completed_tasks}
    if through_task < 1 or through_task > max(done, default=0):
        raise ValueError(f"through_task {through_task} has not been completed")
    relations, prototypes = state.prototypes.relations, state.prototypes.vectors
    if relations.size == 0:
        raise ValueError("prototype store is empty")
    if "dri" in heads and tuple(relations.tolist()) != state.descriptions.relations:
        raise ValueError(
            "mismatched relation registries: prototypes cover "
            f"{relations.tolist()} but descriptions cover {list(state.descriptions.relations)}"
        )
    proto_sq_norms = np.einsum("rd,rd->r", prototypes, prototypes)
    means = mean_norms = None
    if "dri" in heads:
        means = state.descriptions.means
        mean_norms = np.sqrt(np.einsum("rd,rd->r", means, means))
        if np.any(mean_norms == 0.0):
            raise ValueError("cosine undefined: second argument has zero norm")
    block = max(1, EVAL_BLOCK_ENTRIES // relations.size)
    acc_per_task: dict[str, dict[int, float]] = {head: {} for head in heads}
    for i in range(1, through_task + 1):
        task = done[i]
        hits = dict.fromkeys(heads, 0)
        embedded = encode_batch(state.encoder, task.test_x)
        for start in range(0, task.test_y.size, block):
            rows = slice(start, start + block)
            predictions = _predict_block(
                embedded[rows], prototypes, proto_sq_norms, means, mean_norms, hp
            )
            for head in hits:
                pred = relations[predictions[head]]
                hits[head] += int(np.count_nonzero(pred == task.test_y[rows]))
        for head, count in hits.items():
            acc_per_task[head][i] = count / len(task.test_y)
    return [
        TaskAccuracy(
            task_index=through_task,
            head=head,
            acc_per_task=acc_per_task[head],
            acc_avg=sum(acc_per_task[head].values()) / len(acc_per_task[head]),
        )
        for head in heads
    ]
