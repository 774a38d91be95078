"""Whole-pipeline invariants: the same experiment, presented another way, gives the same bytes.

The other test files check each part against its oracle; these cases
check that the parts compose.  Each invariant is exact:

* the files that ``fcre generate`` writes train, in files mode, to the
  ``metrics.csv`` and checkpoints of the synthetic run of the same seed;
* shuffling the test rows of ``dataset.jsonl`` changes neither, since
  the test split is only evaluated, and ``evaluate`` says that sample
  order cannot change its result;
* an increasing relabeling of the relations (r -> 3r + 7) keeps every
  order the pipeline takes from relation ids, so ``metrics.csv`` keeps
  its bytes and each checkpoint is the original with its ids mapped;
* a decreasing relabeling (r -> 1000 - r) reverses those orders, which
  changes only decisions that tie by relation id; the streams here have
  none, so ``metrics.csv`` keeps its bytes;
* at ``alpha = 1`` the DRI head predicts NCM's relation for every query.
"""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import fcre.inference as inference
from fcre.cli import ExperimentConfig, cmd_generate, config_to_dict, main, run_single_seed
from fcre.continual import Prototypes
from fcre.datagen import SyntheticSpec
from fcre.formats import write_jsonl
from fcre.inference import evaluate
from fcre.losses import HyperParams
from test_cli import tiny_config
from test_inference import HP, pool_state, shared_row_states, tied_queries


def test_file_mode_round_trip(tmp_path):
    # the files that ``generate`` writes train to the bytes of the
    # synthetic run of the same seed
    config = tiny_config(out_dir=str(tmp_path / "synthetic"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(config)))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 0
    file_config = tiny_config(
        data_mode="files",
        dataset_path=str(tmp_path / "data" / "dataset.jsonl"),
        descriptions_path=str(tmp_path / "data" / "descriptions.jsonl"),
        out_dir=str(tmp_path / "runs"),
    )
    synthetic = Path(run_single_seed(config, 0)["run_dir"])
    from_files = Path(run_single_seed(file_config, 0)["run_dir"])
    checkpoints = ["task_01.json", "task_02.json"]
    assert sorted(p.name for p in (from_files / "checkpoints").iterdir()) == checkpoints
    for name in ["metrics.csv"] + [f"checkpoints/{c}" for c in checkpoints]:
        assert (from_files / name).read_bytes() == (synthetic / name).read_bytes(), name


# ------------------------------------------------------------ presentation


def stream_config(seed, out_dir, data=None):
    """3 tasks of 3 relations, task 1 at 40 rows a relation (so minibatches), 2 + 2 epochs.

    With ``data``, the config reads that directory's files.
    """
    files = {} if data is None else {
        "data_mode": "files",
        "dataset_path": str(data / "dataset.jsonl"),
        "descriptions_path": str(data / "descriptions.jsonl"),
    }
    return ExperimentConfig(
        synthetic=SyntheticSpec(n_tasks=3, n_way=3, task1_oversample=40, seed=seed),
        hyper=HyperParams(epochs_current=2, epochs_memory=2),
        seeds=(seed,),
        out_dir=str(out_dir / "runs"),
        **files,
    )


def run_files(seed, root, data):
    """The run directory of a files-mode run on ``data``."""
    return Path(run_single_seed(stream_config(seed, root, data), seed)["run_dir"])


def records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def variant(root, name, dataset=lambda recs: recs, relation=lambda r: r):
    """A copy of ``root/data`` with every relation id mapped and the dataset's records edited."""
    out = root / name
    out.mkdir()
    for file, edit in (("dataset.jsonl", dataset), ("descriptions.jsonl", lambda recs: recs)):
        recs = [{**r, "relation": relation(r["relation"])} for r in records(root / "data" / file)]
        write_jsonl(out / file, edit(recs))
    return out


def checkpoints(run_dir):
    return sorted((run_dir / "checkpoints").iterdir())


@pytest.fixture(scope="module", params=range(4))
def generated(request, tmp_path_factory):
    """A seed, the directory whose ``data`` holds its generated files, and their files-mode run."""
    seed = request.param
    root = tmp_path_factory.mktemp(f"seed{seed}")
    with contextlib.redirect_stdout(io.StringIO()):
        cmd_generate(stream_config(seed, root), str(root / "data"))
    return seed, root, run_files(seed, root, root / "data")


class TestPresentation:
    def test_a_shuffled_test_split_keeps_every_artifact(self, generated):
        seed, root, expected = generated

        def shuffled(recs):
            at = [i for i, r in enumerate(recs) if r["split"] == "test"]
            out = list(recs)
            for i, j in zip(at, np.random.default_rng(seed).permutation(at)):
                out[i] = recs[j]
            return out

        data = variant(root, "shuffled", dataset=shuffled)
        assert (data / "dataset.jsonl").read_bytes() != (root / "data" / "dataset.jsonl").read_bytes()
        got = run_files(seed, root, data)
        assert (got / "metrics.csv").read_bytes() == (expected / "metrics.csv").read_bytes()
        assert [p.name for p in checkpoints(got)] == [p.name for p in checkpoints(expected)]
        for mine, theirs in zip(checkpoints(got), checkpoints(expected)):
            assert mine.read_bytes() == theirs.read_bytes(), mine.name

    def test_an_increasing_relabeling_maps_the_checkpoint_ids(self, generated):
        seed, root, expected = generated
        got = run_files(seed, root, variant(root, "increasing", relation=lambda r: 3 * r + 7))
        assert (got / "metrics.csv").read_bytes() == (expected / "metrics.csv").read_bytes()
        assert [p.name for p in checkpoints(got)] == [p.name for p in checkpoints(expected)]
        for path in checkpoints(expected):
            mapped = json.loads(path.read_text(encoding="utf-8"))
            mapped["memory"]["labels"] = [3 * r + 7 for r in mapped["memory"]["labels"]]
            text = (got / "checkpoints" / path.name).read_text(encoding="utf-8")
            assert text == json.dumps(mapped, sort_keys=True) + "\n", path.name

    def test_a_decreasing_relabeling_keeps_the_metrics(self, generated):
        seed, root, expected = generated
        got = run_files(seed, root, variant(root, "decreasing", relation=lambda r: 1000 - r))
        assert (got / "metrics.csv").read_bytes() == (expected / "metrics.csv").read_bytes()


# ------------------------------------------------------------ alpha = 1


def evaluated_predictions(state, prototypes, hp):
    """``evaluate``'s rows for both heads, and the per-query predictions of each scoring pass."""
    passes = []
    real = inference._predict_block

    def recording(*args):
        passes.append(real(*args))
        return passes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_predict_block", recording)
        rows = evaluate(state, prototypes, ("ncm", "dri"), hp)
    return rows, passes


class TestAlphaOne:
    """At alpha = 1 the fused score is 1 / (epsilon + rank_E(r)), so DRI's
    argmax is rank 1 of the distance channel: NCM's argmin, under the same
    lowest-id tie rule.  So the two heads predict alike, query by query."""

    HP1 = dataclasses.replace(HP, alpha=1.0)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_dri_predicts_the_ncm_relation_for_every_query(self, quantized):
        rng = np.random.default_rng(13)
        for _ in range(4):
            state, prototypes = pool_state(rng, quantized)
            vectors = prototypes.vectors.copy()
            n_pairs = vectors.shape[0] // 3
            vectors[1 : 3 * n_pairs : 3] = vectors[0 : 3 * n_pairs : 3]  # relations share prototypes
            prototypes = Prototypes(prototypes.relations, vectors)
            assert tied_queries(state, prototypes)[0] > 0  # some queries' nearest prototype is shared
            (ncm, dri), passes = evaluated_predictions(state, prototypes, self.HP1)
            assert ncm.acc_avg < 1.0
            assert dri.acc_per_task == ncm.acc_per_task
            assert passes and all(np.array_equal(p["dri"], p["ncm"]) for p in passes)

    @given(shared_row_states())
    @settings(max_examples=100)
    def test_holds_on_shared_prototypes_and_means(self, pair):
        (ncm, dri), passes = evaluated_predictions(*pair, self.HP1)
        assert dri.acc_per_task == ncm.acc_per_task
        assert all(np.array_equal(p["dri"], p["ncm"]) for p in passes)
