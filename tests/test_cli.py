"""Configuration loading and the command-line interface end to end."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from epinmt import cli
from epinmt import config as cfgmod
from epinmt import pipeline as P

from helpers import child_env


TINY = {
    "master_seed": 0,
    "dataset": {"n_content": 12, "n_seen": 2, "n_unseen": 1,
                "train_tokens": 200, "finetune_tokens": 60, "test_tokens": 60,
                "generic_train_tokens": 200, "noise_fraction": 0.1,
                "trusted_count": 5},
    "model": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 24,
              "max_len": 16},
    "curriculum": {"scorer_steps": 2, "scorer_lr": 0.1, "lm_steps": 2,
                   "lm_lr": 0.1},
    "training": {"alpha": 0.1, "beta": 0.1, "epochs": 1, "batch_size": 4,
                 "episodes": 2, "finetune_epochs": 1,
                 "methods": ["vanilla", "agg", "epi_curriculum"]},
    "eval": {"seeds": [0], "sigmas": [0.05], "noise_seeds": [0],
             "beam_width": 1, "experiment_beam_width": 1, "max_steps": 6},
}


def _tiny_with_training(tmp_path, **training) -> str:
    """TINY with some training fields replaced, written as a config file."""
    cfg = {**TINY, "output_dir": str(tmp_path / "runs"),
           "training": {**TINY["training"], **training}}
    path = tmp_path / "tweaked.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def tiny_config_file(tmp_path):
    cfg = dict(TINY)
    cfg["output_dir"] = str(tmp_path / "runs")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = cfgmod.RunConfig()
        assert cfg.master_seed == 0
        assert cfg.training.methods == cfgmod.METHODS
        assert cfg.eval.beam_width == 5

    def test_unknown_top_level_key(self):
        with pytest.raises(cfgmod.UsageError, match="banana"):
            cfgmod.config_from_dict({"banana": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(cfgmod.UsageError, match="dataset"):
            cfgmod.config_from_dict({"dataset": {"n_content": 8, "typo_key": 3}})

    def test_unknown_method_rejected(self):
        with pytest.raises(cfgmod.UsageError, match="warp_drive"):
            cfgmod.config_from_dict({"training": {"methods": ["warp_drive"]}})

    def test_roundtrip_from_file(self, tiny_config_file):
        cfg = cfgmod.load_config(tiny_config_file)
        assert cfg.dataset.n_content == 12
        assert cfg.training.hp.alpha == 0.1
        assert cfg.training.methods == ("vanilla", "agg", "epi_curriculum")
        assert cfg.eval.seeds == (0,)

    def test_method_overrides_applied(self):
        cfg = cfgmod.config_from_dict(
            {"training": {"alpha": 0.1, "batch_size": 8,
                          "overrides": {"agg": {"batch_size": 64, "alpha": 0.2}}}})
        agg_hp = cfg.training.method_hp("agg", seed=3)
        assert (agg_hp.alpha, agg_hp.batch_size, agg_hp.seed) == (0.2, 64, 3)
        other = cfg.training.method_hp("epi_nmt", seed=3)
        assert (other.alpha, other.batch_size) == (0.1, 8)

    def test_override_unknown_method_rejected(self):
        with pytest.raises(cfgmod.UsageError, match="warp_drive"):
            cfgmod.config_from_dict(
                {"training": {"overrides": {"warp_drive": {"alpha": 0.1}}}})

    @pytest.mark.parametrize("training", [
        {"batch_size": 0}, {"batch_size": "8"}, {"epochs": -1}, {"episodes": -3},
        {"overrides": {"epi_nmt": {"episodes": -3}}},
        {"overrides": {"agg": {"batch_size": 0}}}])
    def test_invalid_hyperparams_rejected(self, training):
        with pytest.raises(cfgmod.UsageError):
            cfgmod.config_from_dict({"training": training})

    def test_override_unknown_field_rejected(self):
        with pytest.raises(cfgmod.UsageError, match="typo_field"):
            cfgmod.config_from_dict(
                {"training": {"overrides": {"agg": {"typo_field": 1}}}})

    def test_overrides_change_hash(self):
        a = cfgmod.config_from_dict({"training": {"alpha": 0.1}})
        b = cfgmod.config_from_dict(
            {"training": {"alpha": 0.1, "overrides": {"agg": {"alpha": 0.2}}}})
        assert a.config_hash() != b.config_hash()

    def test_hash_deterministic_and_content_sensitive(self):
        a = cfgmod.config_from_dict({"master_seed": 1})
        b = cfgmod.config_from_dict({"master_seed": 1})
        c = cfgmod.config_from_dict({"master_seed": 2})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12

    def test_output_dir_does_not_change_hash(self):
        a = cfgmod.config_from_dict({"output_dir": "runs"})
        b = cfgmod.config_from_dict({"output_dir": "elsewhere/runs"})
        assert a.config_hash() == b.config_hash()
        assert P.run_dir(a, 0) != P.run_dir(b, 0)
        assert os.path.basename(P.run_dir(a, 0)) == os.path.basename(P.run_dir(b, 0))


def test_cli_import_does_not_load_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import epinmt.cli, sys; print('scipy.stats' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestCliUsage:
    def test_no_arguments(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_subcommand(self):
        assert cli.main(["transmogrify"]) == cli.EXIT_USAGE

    def test_unknown_method(self, tiny_config_file, capsys):
        rc = cli.main(["train", "--config", tiny_config_file,
                       "--method", "warp_drive"])
        assert rc == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["gen-data", "--config", str(tmp_path / "nope.json")])
        assert rc == cli.EXIT_DATA

    def test_bad_config_key_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_key": 1}))
        assert cli.main(["gen-data", "--config", str(path)]) == cli.EXIT_USAGE

    def test_invalid_hyperparams_are_usage_errors(self, tmp_path, capsys):
        path = _tiny_with_training(tmp_path, batch_size=0)
        assert cli.main(["gen-data", "--config", path]) == cli.EXIT_USAGE
        assert "batch_size" in capsys.readouterr().err


class TestCliPipeline:
    def test_gen_data_writes_artifacts(self, tiny_config_file, capsys):
        rc = cli.main(["gen-data", "--config", tiny_config_file])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out.strip()
        assert os.path.isfile(os.path.join(out, "vocab.txt"))
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert set(manifest["domains"]) == {"0", "1", "2", "3"}
        assert manifest["domains"]["1"]["noise_pairs"] > 0
        assert manifest["domains"]["3"]["train_pairs"] == 0
        assert os.path.isfile(os.path.join(out, "domain_1.train.tsv"))

    def test_gen_data_deterministic_bytes(self, tiny_config_file, capsys):
        cli.main(["gen-data", "--config", tiny_config_file])
        out = capsys.readouterr().out.strip()
        first = open(os.path.join(out, "domain_1.train.tsv"), "rb").read()
        cli.main(["gen-data", "--config", tiny_config_file])
        capsys.readouterr()
        assert open(os.path.join(out, "domain_1.train.tsv"), "rb").read() == first

    def test_score_writes_plan(self, tiny_config_file, capsys):
        rc = cli.main(["score", "--config", tiny_config_file])
        assert rc == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip())
        assert len(summary["shard_sizes"]) == 5
        assert sum(summary["shard_sizes"]) + summary["filtered_count"] > 0

    def test_train_vanilla_writes_checkpoint(self, tiny_config_file, capsys):
        rc = cli.main(["train", "--config", tiny_config_file,
                       "--method", "vanilla"])
        assert rc == cli.EXIT_OK
        path = capsys.readouterr().out.strip()
        assert os.path.isfile(path)
        assert path.endswith("vanilla.model.json")

    def test_curriculum_method_needs_plan(self, tiny_config_file, capsys):
        rc = cli.main(["train", "--config", tiny_config_file,
                       "--method", "epi_curriculum"])
        assert rc == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_curriculum_method_with_build_deps(self, tiny_config_file, capsys):
        rc = cli.main(["train", "--config", tiny_config_file,
                       "--method", "epi_curriculum", "--build-deps"])
        assert rc == cli.EXIT_OK
        assert os.path.isfile(capsys.readouterr().out.strip())

    def test_build_deps_reuses_existing_plan(self, tiny_config_file, tmp_path,
                                              monkeypatch, capsys):
        train = ["train", "--config", tiny_config_file, "--method", "epi_curriculum",
                 "--build-deps"]
        # reference: a fresh directory where train builds the plan itself
        assert cli.main(train + ["--out", str(tmp_path / "fresh")]) == cli.EXIT_OK
        fresh_ckpt = capsys.readouterr().out.strip()

        assert cli.main(["gen-data", "--config", tiny_config_file]) == cli.EXIT_OK
        assert cli.main(["score", "--config", tiny_config_file]) == cli.EXIT_OK
        capsys.readouterr()
        score_dir = tmp_path / "runs" / os.path.basename(
            P.run_dir(cfgmod.load_config(tiny_config_file), 0)) / "score"
        before = {p.name: p.read_bytes() for p in sorted(score_dir.iterdir())}

        def no_scoring(*args, **kwargs):
            raise RuntimeError("train re-scored an existing plan")

        monkeypatch.setattr(P, "build_scorers", no_scoring)
        assert cli.main(train) == cli.EXIT_OK
        ckpt = capsys.readouterr().out.strip()
        assert {p.name: p.read_bytes() for p in sorted(score_dir.iterdir())} == before
        with open(ckpt, "rb") as a, open(fresh_ckpt, "rb") as b:
            assert a.read() == b.read()

    def test_nonfinite_loss_is_internal_error(self, tmp_path, capsys):
        path = _tiny_with_training(tmp_path, overrides={"agg": {"alpha": 1e100}})
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["train", "--config", path, "--method", "agg"])
        assert rc == cli.EXIT_INTERNAL
        assert "non-finite loss" in capsys.readouterr().err

    def test_finetune_requires_checkpoint(self, tiny_config_file, capsys):
        rc = cli.main(["finetune", "--config", tiny_config_file,
                       "--method", "agg"])
        assert rc == cli.EXIT_DATA

    def test_finetune_after_train(self, tiny_config_file, capsys):
        assert cli.main(["train", "--config", tiny_config_file,
                         "--method", "agg"]) == cli.EXIT_OK
        capsys.readouterr()
        rc = cli.main(["finetune", "--config", tiny_config_file,
                       "--method", "agg"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out.strip()
        assert os.path.isfile(os.path.join(out, "agg.ft_domain1.model.json"))
        assert os.path.isfile(os.path.join(out, "agg.ft_domain3.model.json"))

    def test_eval_requires_checkpoints(self, tiny_config_file):
        assert cli.main(["eval", "--config", tiny_config_file]) == cli.EXIT_DATA

    def test_seed_flag_changes_run_dir(self, tiny_config_file, capsys):
        cli.main(["gen-data", "--config", tiny_config_file])
        a = capsys.readouterr().out.strip()
        cli.main(["gen-data", "--config", tiny_config_file, "--seed", "5"])
        b = capsys.readouterr().out.strip()
        assert a != b
        assert "seed5" in b


class TestExperiment:
    def test_end_to_end_reports(self, tiny_config_file, capsys):
        rc = cli.main(["experiment", "--config", tiny_config_file])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out.strip()
        report = json.loads(open(os.path.join(out, "report.json")).read())
        methods = {row["method"] for row in report["protocol"]}
        assert methods == {"vanilla", "agg", "epi_curriculum"}
        assert "swap" in report and "perturbation" in report
        assert "divergence_bins" in report
        csv_lines = open(os.path.join(out, "report.csv")).read().splitlines()
        assert csv_lines[0] == "method,domain,seen_flag,metric,value,seed"
        # 3 methods x 3 domains x 3 metrics rows
        assert len(csv_lines) == 1 + 3 * 3 * 3


class TestLogging:
    def test_log_level_env(self, monkeypatch):
        import logging
        monkeypatch.setenv("EPI_LOG_LEVEL", "debug")
        root = logging.getLogger()
        old_level, old_handlers = root.level, list(root.handlers)
        for h in old_handlers:
            root.removeHandler(h)
        try:
            cli._setup_logging()
            assert root.level == logging.DEBUG
        finally:
            for h in list(root.handlers):
                root.removeHandler(h)
            for h in old_handlers:
                root.addHandler(h)
            root.setLevel(old_level)
