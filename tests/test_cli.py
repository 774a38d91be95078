"""Config plumbing, run directories, and the three subcommands."""

import dataclasses
import json
import logging
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcre
import fcre.cli as cli
import fcre.formats as formats
from fcre.cli import (
    DEFAULT_SEEDS,
    EncoderConfig,
    ExperimentConfig,
    _parse_seed_list,
    cmd_generate,
    cmd_report,
    cmd_run,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
    run_id,
    run_single_seed,
)
from fcre.datagen import SyntheticSpec, generate_stream, ingest_dataset, write_dataset
from fcre.descriptions import DescriptionSet, ingest_descriptions
from fcre.formats import write_atomic
from fcre.inference import MetricsReport, TaskAccuracy
from fcre.losses import HyperParams


def tiny_config(**overrides):
    base = ExperimentConfig(
        synthetic=SyntheticSpec(
            n_tasks=2,
            n_way=2,
            shots=3,
            test_per_relation=3,
            feature_dim=8,
            task1_oversample=6,
            within_class_noise=0.05,
        ),
        encoder=EncoderConfig(feature_dim=8, hidden_dim=8, embed_dim=4),
        hyper=HyperParams(epochs_current=2, epochs_memory=2, k_desc=2),
        seeds=(0,),
    )
    return dataclasses.replace(base, **overrides)


def _tree(root: Path) -> dict[str, bytes]:
    """The bytes of every file under ``root``, keyed by its path relative to ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestConfigSerialization:
    def test_dict_round_trip(self):
        config = tiny_config(seeds=(0, 3), heads=("dri",), out_dir="elsewhere")
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert load_config(path) == config

    def test_defaults_round_trip(self):
        assert config_from_dict(config_to_dict(ExperimentConfig())) == ExperimentConfig()
        assert ExperimentConfig().seeds == DEFAULT_SEEDS

    def test_partial_config_fills_defaults(self):
        config = config_from_dict({"seeds": [7]})
        assert config.seeds == (7,)
        assert config.hyper == HyperParams()

    def test_an_integer_fills_a_float_field_as_a_float(self):
        config = config_from_dict({"hyperparams": {"alpha": 1}, "description_spread": 0})
        assert type(config.hyper.alpha) is float and config.hyper.alpha == 1.0
        assert type(config.description_spread) is float
        assert config_to_dict(config)["hyperparams"]["alpha"] == 1.0

    @pytest.mark.parametrize(
        "obj, pattern",
        [
            ({"bogus": 1}, "unknown top-level"),
            ({"data": {"typo": 1}}, "unknown keys in config section 'data'"),
            ({"data": {"synthetic": {"n_task": 2}}}, "data.synthetic"),
            ({"encoder": {"depth": 3}}, "encoder"),
            ({"hyperparams": {"gamma": 1.0}}, "hyperparams"),
            ({"hyperparams": {"tau": -1.0}}, "tau"),
            ({"hyperparams": {"tau": "abc"}}, r"^hyperparams\.tau must be a finite numeric value, got 'abc'$"),
            ({"hyperparams": {"k_desc": True}}, r"^hyperparams\.k_desc must be an integer, got True$"),
            ({"encoder": {"embed_dim": None}}, r"^encoder\.embed_dim must be an integer, got None$"),
            (
                {"data": {"synthetic": {"n_tasks": 2.5}}},
                r"^data\.synthetic\.n_tasks must be an integer, got 2\.5$",
            ),
            ({"data": {"dataset_path": 3}}, r"^data\.dataset_path must be a string, got 3$"),
            ({"heads": "ncm"}, r"^heads must be a list, got 'ncm'$"),
            ({"seeds": "abc"}, r"^seeds must be a list, got 'abc'$"),
            ({"seeds": [0, "1"]}, r"^seeds\[1\] must be an integer, got '1'$"),
            ({"description_spread": float("nan")}, r"^description_spread must be a finite numeric value"),
            ({"seeds": [0, -1]}, r"^seeds must be >= 0, got -1$"),
            ({"data": {"synthetic": {"seed": -3}}}, r"^seed must be >= 0, got -3$"),
            (
                {"data": {"mode": "files", "dataset_path": "d.jsonl", "descriptions_path": "e.jsonl",
                          "synthetic": {"n_way": 0}}},
                r"^n_way must be >= 1, got 0$",
            ),
            ({"data": []}, r"^config section 'data' must be an object, got \[\]$"),
            ([], r"^config must be an object, got \[\]$"),
            ({"description_spread": float("inf")}, r"^description_spread must be a finite numeric value"),
        ],
    )
    def test_bad_configs_rejected(self, obj, pattern):
        with pytest.raises(ValueError, match=pattern):
            config_from_dict(obj)

    def test_invalid_json_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_config(path)

    def test_a_config_file_error_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"hyperparams": {"tau": "abc"}}')
        assert main(["run", "--config", str(path)]) == 2
        message = "hyperparams.tau must be a finite numeric value, got 'abc'"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        path.write_text("{nope")  # read_json names the file once
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: ")

    def test_validate_cross_checks(self):
        with pytest.raises(ValueError, match="does not match encoder"):
            tiny_config(encoder=EncoderConfig(feature_dim=9, hidden_dim=8, embed_dim=4))
        with pytest.raises(ValueError, match="requires both"):
            tiny_config(data_mode="files")
        with pytest.raises(ValueError, match="duplicate seeds"):
            tiny_config(seeds=(1, 1))
        with pytest.raises(ValueError, match="unknown head"):
            tiny_config(heads=("knn",))
        with pytest.raises(ValueError, match=r"^data_mode must be 'synthetic' or 'files', got 'csv'$"):
            tiny_config(data_mode="csv")
        with pytest.raises(ValueError, match=r"^description_spread must be >= 0, got -0\.5$"):
            tiny_config(description_spread=-0.5)

    def test_replace_checks_the_new_value(self):
        with pytest.raises(ValueError, match=r"^at least one seed is required$"):
            dataclasses.replace(ExperimentConfig(), seeds=())
        with pytest.raises(ValueError, match=r"^encoder\.embed_dim must be >= 1, got 0$"):
            dataclasses.replace(EncoderConfig(), embed_dim=0)

    @pytest.mark.parametrize(
        "overrides, pattern",
        [
            ({"encoder": {"feature_dim": 8, "hidden_dim": 2.5, "embed_dim": 4}},
             r"^encoder\.hidden_dim must be an integer, got 2\.5$"),
            ({"encoder": {"feature_dim": 8, "hidden_dim": 8, "embed_dim": True}},
             r"^encoder\.embed_dim must be an integer, got True$"),
            ({"seeds": (0, -1)}, r"^seeds must be >= 0, got -1$"),
            ({"seeds": (0.5,)}, r"^seeds\[0\] must be an integer, got 0\.5$"),
            ({"description_spread": float("nan")}, r"^description_spread must be a finite numeric value, got nan$"),
            ({"description_spread": float("inf")}, r"^description_spread must be a finite numeric value, got inf$"),
            ({"out_dir": None}, r"^out_dir must be a string, got None$"),
            ({"out_dir": Path("runs")}, r"^out_dir must be a string, got \w*Path\('runs'\)$"),
            ({"data_mode": "files", "dataset_path": 3, "descriptions_path": "d.jsonl"},
             r"^dataset_path must be a string, got 3$"),
            ({"data_mode": "files", "dataset_path": "d.jsonl", "descriptions_path": ["x"]},
             r"^descriptions_path must be a string, got \['x'\]$"),
        ],
    )
    def test_fields_of_the_wrong_type_or_sign_rejected(self, overrides, pattern):
        with pytest.raises(ValueError, match=pattern):
            if "encoder" in overrides:
                overrides = {**overrides, "encoder": EncoderConfig(**overrides["encoder"])}
            tiny_config(**overrides)

    def test_numpy_scalars_accepted(self):
        encoder = EncoderConfig(feature_dim=np.int64(8), hidden_dim=np.int32(8), embed_dim=4)
        tiny_config(encoder=encoder, seeds=(np.int64(0),))

    @pytest.mark.parametrize(
        "given, canonical",
        [
            ({"hyper": HyperParams(alpha=1, k_desc=np.int64(7))},
             {"hyper": HyperParams(alpha=1.0, k_desc=7)}),
            ({"synthetic": SyntheticSpec(n_tasks=np.int64(8), within_class_noise=0)},
             {"synthetic": SyntheticSpec(n_tasks=8, within_class_noise=0.0)}),
            ({"encoder": EncoderConfig(embed_dim=np.int64(16))}, {"encoder": EncoderConfig(embed_dim=16)}),
            ({"seeds": (np.int64(0),), "description_spread": 0},
             {"seeds": (0,), "description_spread": 0.0}),
        ],
        ids=["HyperParams", "SyntheticSpec", "EncoderConfig", "ExperimentConfig"],
    )
    def test_a_field_stores_the_python_number_of_its_kind(self, given, canonical):
        # configs that compare equal serialize alike and share one run
        # directory, whatever kind of number built them
        config, expected = ExperimentConfig(**given), ExperimentConfig(**canonical)
        assert config == expected
        assert json.dumps(config_to_dict(config)) == json.dumps(config_to_dict(expected))
        assert run_id(config, 0) == run_id(expected, 0)

    @pytest.mark.parametrize(
        "given, canonical",
        [
            ({"heads": ["ncm"]}, {"heads": ("ncm",)}),
            ({"heads": ["dri", "ncm"], "seeds": [3, 0]}, {"heads": ("dri", "ncm"), "seeds": (3, 0)}),
            ({"seeds": range(2)}, {"seeds": (0, 1)}),
        ],
    )
    def test_heads_and_seeds_are_stored_as_tuples(self, given, canonical):
        # a list once kept its type: it compared unequal to the tuple of
        # the same run id, and hash() raised TypeError
        config, expected = tiny_config(**given), tiny_config(**canonical)
        assert type(config.heads) is tuple and type(config.seeds) is tuple
        assert config == expected and hash(config) == hash(expected)
        assert run_id(config, 0) == run_id(expected, 0)

    @pytest.mark.parametrize(
        "overrides, pattern",
        [
            ({"heads": "ncm"}, r"^heads must be a list, got 'ncm'$"),
            ({"heads": None}, r"^heads must be a list, got None$"),
            ({"heads": ("ncm", 1)}, r"^heads\[1\] must be a string, got 1$"),
            ({"seeds": 5}, r"^seeds must be a list, got 5$"),
            ({"seeds": "0"}, r"^seeds must be a list, got '0'$"),
            ({"seeds": np.arange(2)}, r"^seeds must be a list, got array\(\[0, 1\]\)$"),
        ],
    )
    def test_heads_and_seeds_that_are_not_sequences_rejected(self, overrides, pattern):
        # the messages a config file's value gets
        with pytest.raises(ValueError, match=pattern):
            tiny_config(**overrides)
        key, value = next(iter(overrides.items()))
        if isinstance(value, (str, int, type(None))):
            with pytest.raises(ValueError, match=pattern):
                config_from_dict({key: value})

    @pytest.mark.parametrize(
        "argv, pattern",
        [
            (["run", "--seed", "-1"], "error: seeds must be >= 0, got -1\n"),
            (["generate", "--seed", "-3"], "error: seed must be >= 0, got -3\n"),
        ],
    )
    def test_negative_seed_flag_exits_2_naming_its_key(self, tmp_path, capsys, argv, pattern):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == pattern

    def test_two_invalid_hyperparameter_flags_report_the_first_field_checked(self, tmp_path, capsys):
        # one ``replace`` applies every flag, and ``HyperParams`` checks alpha before k_desc
        argv = ["run", "--k-desc", "0", "--alpha", "2", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: alpha must lie in [0, 1], got 2.0\n"


class TestRunId:
    def test_stable(self):
        config = tiny_config()
        assert run_id(config, 0) == run_id(config, 0)
        assert len(run_id(config, 0)) == 12

    def test_seed_and_config_sensitivity(self):
        config = tiny_config()
        assert run_id(config, 0) != run_id(config, 1)
        other = dataclasses.replace(config, hyper=dataclasses.replace(config.hyper, alpha=0.9))
        assert run_id(config, 0) != run_id(other, 0)

    def test_output_location_ignored(self):
        config = tiny_config()
        moved = dataclasses.replace(config, out_dir="/somewhere/else")
        assert run_id(config, 0) == run_id(moved, 0)

    def test_other_seeds_ignored(self):
        config = tiny_config()
        assert run_id(config, 0) == run_id(dataclasses.replace(config, seeds=(0, 3)), 0)


class TestSeedListParsing:
    def test_forms(self):
        assert _parse_seed_list("5") == (5,)
        assert _parse_seed_list("0,1,2") == (0, 1, 2)
        assert _parse_seed_list("3, 4") == (3, 4)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="--seed"):
            _parse_seed_list("a,b")


class TestGenerateCommand:
    def test_a_files_config_is_refused(self, tmp_path):
        config = tiny_config(data_mode="files", dataset_path="d.jsonl", descriptions_path="r.jsonl")
        with pytest.raises(ValueError, match=r"^generate requires a synthetic data config$"):
            cmd_generate(config, str(tmp_path / "data"))
        assert not (tmp_path / "data").exists()

    def test_writes_both_files(self, tmp_path, capsys):
        config = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "data")])
        assert code == 0
        dataset = ingest_dataset(tmp_path / "data" / "dataset.jsonl")
        descriptions = ingest_descriptions(tmp_path / "data" / "descriptions.jsonl")
        stream, _ = generate_stream(config.synthetic)
        assert len(dataset) == len(stream)
        for a, b in zip(dataset, stream):
            np.testing.assert_array_equal(a.train_x, b.train_x)
            np.testing.assert_array_equal(a.test_x, b.test_x)
        assert descriptions.relations == tuple(r for task in stream for r in task.relations)
        assert descriptions.k_desc == config.hyper.k_desc
        assert descriptions.dim == config.encoder.embed_dim

    def test_infeasible_geometry_exits_2(self, tmp_path, capsys):
        config = tiny_config(
            synthetic=dataclasses.replace(
                tiny_config().synthetic, feature_dim=2, cluster_separation=3.0
            ),
            encoder=EncoderConfig(feature_dim=2, hidden_dim=8, embed_dim=4),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "data")])
        assert code == 2
        assert "cluster_separation" in capsys.readouterr().err

    def test_generate_takes_one_seed(self, tmp_path, capsys):
        code = main(["generate", "--seed", "0,1", "--out", str(tmp_path / "data")])
        assert code == 2
        assert "error: generate takes a single --seed" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_generate_k_desc_flag(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        assert main(["generate", "--config", str(path), "--k-desc", "3", "--out", str(tmp_path / "data")]) == 0
        descriptions = ingest_descriptions(tmp_path / "data" / "descriptions.jsonl")
        assert (descriptions.k_desc, config.hyper.k_desc) == (3, 2)

    def test_generate_seed_override(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        main(["generate", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["generate", "--config", str(path), "--seed", "9", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "dataset.jsonl").read_bytes()
        b = (tmp_path / "b" / "dataset.jsonl").read_bytes()
        assert a != b


class TestRunCommand:
    def run_main(self, tmp_path, config, extra=()):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        return main(["run", "--config", str(path), *extra])

    def test_end_to_end_layout(self, tmp_path, capsys):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        assert self.run_main(tmp_path, config) == 0
        run_dir = tmp_path / "runs" / run_id(config, 0)
        assert (run_dir / "config.json").exists()
        assert (run_dir / "checkpoints" / "task_01.json").exists()
        assert (run_dir / "checkpoints" / "task_02.json").exists()
        with open(run_dir / "metrics.csv", newline="") as fh:
            report = MetricsReport.from_csv(fh.read())
        assert len(report.rows) == 4  # 2 tasks x 2 heads
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved["seeds"] == [0] and "seed" not in saved
        out = capsys.readouterr().out
        assert "seed 0:" in out and "aggregate" in out

    def test_each_task_logs_its_place_in_the_stream(self, tmp_path, caplog):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        with caplog.at_level(logging.INFO, logger="fcre.cli"):
            run_single_seed(config, 0)
        finished = [m for m in caplog.messages if "finished task" in m]
        assert finished == ["seed 0: finished task 1/2", "seed 0: finished task 2/2"]

    def test_a_run_replays_from_its_own_config_json(self, tmp_path):
        # config.json once held the seed twice, as "seeds" and "seed", and
        # load_config rejected the second as an unknown key
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        assert self.run_main(tmp_path, config) == 0
        run_dir = tmp_path / "runs" / run_id(config, 0)
        first, inode = _tree(run_dir), (run_dir / "metrics.csv").stat().st_ino
        assert main(["run", "--config", str(run_dir / "config.json")]) == 0
        assert _tree(run_dir) == first
        assert (run_dir / "metrics.csv").stat().st_ino != inode  # written again, not left alone
        other = tmp_path / "other"
        assert main(["run", "--config", str(run_dir / "config.json"), "--out", str(other)]) == 0
        assert [d.name for d in other.iterdir()] == [run_dir.name]
        moved = _tree(other / run_dir.name)
        assert moved.keys() == first.keys()
        assert all(moved[name] == first[name] for name in first if name != "config.json")
        old, new = (json.loads(tree["config.json"]) for tree in (first, moved))
        assert (old.pop("out_dir"), new.pop("out_dir")) == (str(tmp_path / "runs"), str(other))
        assert new == old

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        run_single_seed(config, 0)
        first = (tmp_path / "runs" / run_id(config, 0) / "metrics.csv").read_bytes()
        run_single_seed(config, 0)
        second = (tmp_path / "runs" / run_id(config, 0) / "metrics.csv").read_bytes()
        assert first == second

    def test_one_run_over_two_seeds_writes_the_bytes_of_two_single_seed_runs(self, tmp_path):
        config = tiny_config(seeds=(0, 1), out_dir=str(tmp_path / "runs"))
        assert cmd_run(config) == 0
        together = _tree(tmp_path / "runs")
        shutil.rmtree(tmp_path / "runs")
        for seed in (0, 1):
            assert cmd_run(dataclasses.replace(config, seeds=(seed,))) == 0
        assert _tree(tmp_path / "runs") == together

    def test_a_seed_rerun_with_another_seed_list_rewrites_its_own_directory(self, tmp_path, capsys):
        # one seed's directory once depended on the other seeds of its
        # invocation, so a report over runs/* counted seed 0 twice
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        assert self.run_main(tmp_path, config, extra=["--seed", "0"]) == 0
        first = _tree(tmp_path / "runs")
        assert self.run_main(tmp_path, config, extra=["--seed", "0,1"]) == 0
        both = _tree(tmp_path / "runs")
        dirs = sorted((tmp_path / "runs").iterdir())
        assert [d.name for d in dirs] == sorted(run_id(config, seed) for seed in (0, 1))
        assert {name: both[name] for name in first} == first
        saved = json.loads((tmp_path / "runs" / run_id(config, 1) / "config.json").read_text())
        assert saved["seeds"] == [1] and "seed" not in saved
        capsys.readouterr()
        assert cmd_report([str(d) for d in dirs], None) == 0
        assert "aggregated 2 run(s):" in capsys.readouterr().out

    def test_run_prints_the_aggregate_of_a_report_over_its_run_dirs(self, tmp_path, capsys):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        assert self.run_main(tmp_path, config, extra=["--seed", "0,1"]) == 0
        out = capsys.readouterr().out
        aggregate = out[out.index("aggregated 2 run(s):"):]
        dirs = [str(tmp_path / "runs" / run_id(config, seed)) for seed in (0, 1)]
        assert main(["report", *dirs]) == 0
        assert capsys.readouterr().out == aggregate
        assert aggregate.count("final_acc") == 2

    def test_rerun_is_byte_identical_across_blas_threads(self, tmp_path):
        # one process pinned to a single BLAS thread, one left at the
        # library default; minibatches of 32 rows exercise the matrix paths
        defaults = ExperimentConfig()
        config = dataclasses.replace(
            defaults,
            synthetic=dataclasses.replace(defaults.synthetic, n_tasks=2, n_way=3),
            seeds=(0,),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        src = str(Path(fcre.__file__).resolve().parents[1])
        artifacts = []
        for threads in ("1", None):
            env = {
                k: v
                for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            }
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads or 'default'}"
            subprocess.run(
                [sys.executable, "-m", "fcre", "run", "--config", str(path), "--out", str(out)],
                env=env,
                check=True,
                capture_output=True,
            )
            run_dir = out / run_id(config, 0)
            files = [run_dir / "metrics.csv", *sorted((run_dir / "checkpoints").iterdir())]
            artifacts.append({f.name: f.read_bytes() for f in files})
        assert sorted(artifacts[0]) == ["metrics.csv", "task_01.json", "task_02.json"]
        assert artifacts[0] == artifacts[1]

    def test_loss_ablation_flags(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        code = main(["run", "--config", str(path), "--no-mi", "--no-hm"])
        assert code == 0
        # the ablated config hashes differently, so a new run dir appears
        ablated = dataclasses.replace(
            config, hyper=dataclasses.replace(config.hyper, beta_mi=0.0, beta_hm=0.0)
        )
        assert (tmp_path / "runs" / run_id(ablated, 0) / "metrics.csv").exists()

    def test_disabling_every_term_exits_2(self, tmp_path, capsys):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        code = self.run_main(
            tmp_path, config, extra=["--no-sc", "--no-st", "--no-hm", "--no-mi"]
        )
        assert code == 2
        assert "at least one" in capsys.readouterr().err

    def test_head_and_seed_overrides(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        code = self.run_main(tmp_path, config, extra=["--head", "ncm", "--seed", "2"])
        assert code == 0
        narrowed = dataclasses.replace(config, heads=("ncm",), seeds=(2,))
        run_dir = tmp_path / "runs" / run_id(narrowed, 2)
        with open(run_dir / "metrics.csv", newline="") as fh:
            report = MetricsReport.from_csv(fh.read())
        assert {r.head for r in report.rows} == {"ncm"}

    def test_hyperparameter_and_output_flags_reach_the_config(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "ignored"))
        extra = ["--alpha", "0.25", "--epsilon", "30", "--k-desc", "3", "--out", str(tmp_path / "runs")]
        assert self.run_main(tmp_path, config, extra=extra) == 0
        hyper = dataclasses.replace(config.hyper, alpha=0.25, epsilon=30.0, k_desc=3)
        expected = dataclasses.replace(config, hyper=hyper, out_dir=str(tmp_path / "runs"))
        saved = json.loads((tmp_path / "runs" / run_id(expected, 0) / "config.json").read_text())
        assert saved["hyperparams"] == config_to_dict(expected)["hyperparams"]
        assert saved["out_dir"] == str(tmp_path / "runs")
        assert not (tmp_path / "ignored").exists()

    def test_files_mode_rejects_a_description_file_of_another_k(self, tmp_path, capsys):
        # the run once trained on the file's K while config.json recorded k_desc
        data = tmp_path / "data"
        assert cli.cmd_generate(tiny_config(), str(data)) == 0  # K = 2
        config = tiny_config(
            data_mode="files",
            dataset_path=str(data / "dataset.jsonl"),
            descriptions_path=str(data / "descriptions.jsonl"),
            out_dir=str(tmp_path / "runs"),
            seeds=(0, 1),
        )
        capsys.readouterr()
        assert self.run_main(tmp_path, config, extra=["--k-desc", "3"]) == 1
        message = (
            f"{data / 'descriptions.jsonl'} holds 2 description vectors per relation, "
            "but hyperparams.k_desc is 3"
        )
        failures = [line for line in capsys.readouterr().err.splitlines() if "FAILED" in line]
        assert failures == [f"seed {seed}: FAILED: {message}" for seed in (0, 1)]
        assert not (tmp_path / "runs").exists()
        assert self.run_main(tmp_path, config, extra=["--k-desc", "2"]) == 0

    @pytest.mark.parametrize("case", ["feature_dim", "embed_dim", "relation"])
    def test_files_mode_names_the_file_that_does_not_fit(self, tmp_path, capsys, case):
        data = tmp_path / "data"
        assert cli.cmd_generate(tiny_config(), str(data)) == 0  # feature_dim 8, embed_dim 4
        dataset, described = data / "dataset.jsonl", data / "descriptions.jsonl"
        encoder = {"feature_dim": 8, "hidden_dim": 8, "embed_dim": 4}
        if case == "feature_dim":
            encoder["feature_dim"] = 5
            message = f"{dataset} holds features of dimension 8, but encoder.feature_dim is 5"
        elif case == "embed_dim":
            encoder["embed_dim"] = 3
            message = (
                f"{described} holds description vectors of dimension 4, "
                "but encoder.embed_dim is 3"
            )
        else:
            lines = described.read_text().splitlines(keepends=True)
            described.write_text("".join(lines[:-1]))
            last = json.loads(lines[-1])["relation"]
            message = f"{described} holds no description vectors for relations [{last}] of {dataset}"
        config = tiny_config(
            data_mode="files",
            dataset_path=str(dataset),
            descriptions_path=str(described),
            encoder=EncoderConfig(**encoder),
            out_dir=str(tmp_path / "runs"),
        )
        capsys.readouterr()
        assert self.run_main(tmp_path, config) == 1
        failures = [line for line in capsys.readouterr().err.splitlines() if "FAILED" in line]
        assert failures == [f"seed 0: FAILED: {message}"]
        assert not (tmp_path / "runs").exists()

    def test_missing_dataset_file_fails_run(self, tmp_path, capsys):
        config = tiny_config(
            data_mode="files",
            dataset_path=str(tmp_path / "missing.jsonl"),
            descriptions_path=str(tmp_path / "missing_too.jsonl"),
            out_dir=str(tmp_path / "runs"),
        )
        assert cmd_run(config) == 1
        assert "FAILED" in capsys.readouterr().err


class TestReportCommand:
    def make_runs(self, tmp_path, seeds=(0, 1)):
        config = tiny_config(seeds=seeds, out_dir=str(tmp_path / "runs"))
        dirs = []
        for seed in seeds:
            summary = run_single_seed(config, seed)
            dirs.append(summary["run_dir"])
        return config, dirs

    def test_aggregates_mean_by_hand(self, tmp_path, capsys):
        _, dirs = self.make_runs(tmp_path)
        out_path = tmp_path / "combined.csv"
        assert cmd_report(dirs, str(out_path)) == 0
        per_run = []
        for d in dirs:
            with open(f"{d}/metrics.csv", newline="") as fh:
                report = MetricsReport.from_csv(fh.read())
            per_run.append({(r.task_index, r.head): r.acc_avg for r in report.rows})
        text = out_path.read_bytes().decode("utf-8")
        assert text.endswith("\r\n")
        lines = [l.split(",") for l in text.split("\r\n") if l]
        assert lines[0] == ["task", "head", "mean_acc_avg", "std_acc_avg", "n_runs"]
        for task, head, mean, _std, n in lines[1:]:
            values = [run[(int(task), head)] for run in per_run]
            np.testing.assert_allclose(float(mean), sum(values) / len(values), rtol=1e-12)
            assert n == "2"

    def test_report_via_main(self, tmp_path, capsys):
        _, dirs = self.make_runs(tmp_path, seeds=(0,))
        assert main(["report", *dirs]) == 0
        assert "aggregated 1 run(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "rows, only",
        [
            ([(1, "ncm"), (1, "dri")], "task 2, head 'dri'"),  # a run that ended a task early
            ([(1, "ncm"), (2, "ncm")], "task 1, head 'dri'"),  # a run of another head
        ],
    )
    def test_runs_of_other_tasks_or_heads_exit_2_naming_the_file(self, tmp_path, capsys, rows, only):
        # the aggregate once mixed them: its final accuracy came from the
        # longer runs alone and its drop from the first task of all runs
        full = [(1, "ncm"), (1, "dri"), (2, "ncm"), (2, "dri")]
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        for run_dir, cells in zip(dirs, (full, full, rows)):
            report = MetricsReport()
            for task, head in cells:
                report.add(TaskAccuracy(task, head, {1: 0.5}, 0.5))
            run_dir.mkdir()
            (run_dir / "metrics.csv").write_text(report.to_csv(), newline="")
        assert main(["report", *map(str, dirs)]) == 2
        assert capsys.readouterr().err == (
            f"error: {dirs[2] / 'metrics.csv'}: runs cover different tasks or heads; {only} "
            f"has a row in only one of this file and {dirs[0] / 'metrics.csv'}\n"
        )

    @pytest.mark.parametrize("dri_task, missing", [(2, 1), (1, 2)])
    def test_a_head_missing_the_first_or_last_task_exits_2_naming_it(
        self, tmp_path, capsys, dri_task, missing
    ):
        # the aggregate once printed the other heads alone and exited 0
        report = MetricsReport()
        for task, head in [(1, "ncm"), (2, "ncm"), (dri_task, "dri")]:
            report.add(TaskAccuracy(task, head, {1: 0.5}, 0.5))
        run_dir, out = tmp_path / "run", tmp_path / "combined.csv"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(report.to_csv(), newline="")
        assert main(["report", str(run_dir), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: head 'dri' has no row for task {missing}, the first or last task\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("again", ["{d}", "{d}/", "{d}/../{name}"])
    def test_a_run_directory_given_twice_exits_2_naming_it(self, tmp_path, capsys, again):
        # the aggregate once counted it as one more run, with a std of 0 for one run
        _, (d,) = self.make_runs(tmp_path, seeds=(0,))
        repeat = again.format(d=d, name=Path(d).name)
        assert main(["report", d, repeat]) == 2
        assert capsys.readouterr().err == f"error: run directory {repeat} is {d}, given already\n"
        with pytest.raises(ValueError, match="given already"):
            cmd_report([d, d, d + "/"], None)

    def test_a_metrics_file_with_no_rows_exits_2_naming_it(self, tmp_path, capsys):
        # the aggregate once printed no row and wrote a header-only file
        run_dir, out = tmp_path / "run", tmp_path / "combined.csv"
        run_dir.mkdir()
        (run_dir / "metrics.csv").write_text(MetricsReport().to_csv(), newline="")
        assert main(["report", str(run_dir), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {run_dir / 'metrics.csv'}: holds a header and no rows\n"
        assert not out.exists()

    def test_missing_metrics_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == 2
        assert "metrics.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("task,head,acc_avg,acc_per_task_1,drop\r\n1\r\n", "line 2: 1 cells, expected 5"),
            (
                "task,head,acc_avg,acc_per_task_x,drop\r\n1,ncm,1.0,1.0,0.0\r\n",
                "line 1: column 'acc_per_task_x' is not acc_per_task_<task>",
            ),
            (
                "task,head,acc_avg,acc_per_task_1,drop\r\n1,ncm,nan,2.5,zz\r\n1,ncm,nan,2.5,zz\r\n",
                "line 2: accuracy nan is not in [0, 1]",
            ),
        ],
    )
    def test_malformed_metrics_exits_2_naming_file_and_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "metrics.csv"
        path.write_bytes(text.encode("utf-8"))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestArtifactWrites:
    def test_run_failing_in_task_two_leaves_whole_files(self, tmp_path, monkeypatch):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        real = cli.run_task

        def failing(state, task, *args, **kwargs):
            if task.index == 2:
                raise RuntimeError("stopped in task 2")
            return real(state, task, *args, **kwargs)

        monkeypatch.setattr(cli, "run_task", failing)
        with pytest.raises(RuntimeError, match="stopped in task 2"):
            run_single_seed(config, 0)
        run_dir = tmp_path / "runs" / run_id(config, 0)
        files = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())
        assert files == ["checkpoints/task_01.json", "config.json"]
        assert json.loads((run_dir / "config.json").read_text())["seeds"] == [0]

    def test_artifacts_keep_their_bytes(self, tmp_path):
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        run_single_seed(config, 0)
        run_dir = tmp_path / "runs" / run_id(config, 0)
        resolved = config_to_dict(dataclasses.replace(config, seeds=(0,)))
        expected = json.dumps(resolved, sort_keys=True, indent=2) + "\n"
        assert (run_dir / "config.json").read_bytes() == expected.encode("utf-8")
        assert sorted(p.name for p in run_dir.iterdir()) == ["checkpoints", "config.json", "metrics.csv"]

    def test_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        stream, _ = generate_stream(tiny_config().synthetic)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        report = MetricsReport()
        report.add(TaskAccuracy(1, "ncm", {1: 1.0}, 1.0))
        write_atomic(run_dir / "metrics.csv", report.to_csv())
        writers = {
            "metrics.csv": lambda path: write_atomic(path, "new\n"),
            "dataset.jsonl": lambda path: write_dataset(stream, path),
            "descriptions.jsonl": DescriptionSet({0: np.ones((1, 2))}).write,
            "combined.csv": lambda path: cmd_report([str(run_dir)], str(path)),
        }
        out = tmp_path / "out"
        out.mkdir()
        for name in writers:
            write_atomic(out / name, "old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(formats.os, "replace", failing_replace)
        for name, write in writers.items():
            with pytest.raises(OSError, match="disk full"):
                write(out / name)
            assert (out / name).read_bytes() == b"old\n", name
        assert sorted(p.name for p in out.iterdir()) == sorted(writers)


class TestImportFootprint:
    def test_a_serial_run_loads_neither_numpy_ma_nor_multiprocessing(self, tmp_path):
        # numpy.ma (pulled in by np.unique and friends) adds about 1.3 MB to
        # a run's peak memory, nothing needs multiprocessing, and only main
        # parses arguments; all three stay out of a plain import and a run
        config = tiny_config(out_dir=str(tmp_path / "runs"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        script = (
            "import json, sys\n"
            "import fcre.cli as cli\n"
            "cli.run_single_seed(cli.load_config(sys.argv[1]), 0)\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        src = str(Path(fcre.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        loaded = set(json.loads(done.stdout.splitlines()[-1]))
        assert "fcre.continual" in loaded
        for name in ("numpy.ma", "concurrent.futures.process", "multiprocessing", "argparse"):
            assert name not in loaded, name
