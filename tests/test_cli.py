"""Configuration loading and the command-line interface end to end."""

import csv
import json
import logging
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from epinmt import cli
from epinmt import config as cfgmod
from epinmt import corpus as C
from epinmt import curriculum as CU
from epinmt import evaluate as E
from epinmt import model as M
from epinmt import pipeline as P
from epinmt import tensor as T
from epinmt import trainers as TR
from epinmt.errors import DataError, InternalError, UsageError

from helpers import TINY, child_env


def _tiny_with_training(tmp_path, **training) -> str:
    """TINY with some training fields replaced, written as a config file."""
    cfg = {**TINY, "output_dir": str(tmp_path / "runs"),
           "training": {**TINY["training"], **training}}
    path = tmp_path / "tweaked.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _tiny_run(tmp_path, methods, seeds=(0,), **evaluation) -> cfgmod.RunConfig:
    """TINY with its own methods, eval seeds and other eval fields, writing
    under tmp_path."""
    return cfgmod.config_from_dict({
        **TINY, "output_dir": str(tmp_path / "runs"),
        "training": {**TINY["training"], "methods": methods},
        "eval": {**TINY["eval"], "seeds": list(seeds), **evaluation}})


def _logged(log: Path, fn):
    """fn, appending its name to `log` at each call. Installed before a pool
    forks, it logs the workers' calls too."""
    def logged(*args, **kwargs):
        with open(log, "a") as f:
            f.write(fn.__name__ + "\n")
        return fn(*args, **kwargs)
    return logged


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
        {"overrides": {"agg": {"batch_size": 0}}}, {"finetune_lr": -1}])
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
        a = cfgmod.config_from_dict({"training": {"epochs": 1}})
        b = cfgmod.config_from_dict({"training": {"epochs": 1}})
        c = cfgmod.config_from_dict({"training": {"epochs": 2}})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12
        # where results go, and the seed that the run directory's name carries,
        # are no part of what a run is
        moved = cfgmod.config_from_dict({"training": {"epochs": 1}, "master_seed": 7,
                                         "output_dir": "elsewhere"})
        assert moved.config_hash() == a.config_hash()

    def test_run_dir_names_the_seed_not_the_master_seed(self):
        """A (config, seed) has one run directory, whether the master seed or
        --seed or an eval seed of `experiment` names the seed."""
        a = cfgmod.config_from_dict({"master_seed": 11})
        b = cfgmod.config_from_dict({"master_seed": 12})
        assert P.run_dir(a, 12) == P.run_dir(b, 12)
        assert P.run_dir(a, 11) != P.run_dir(a, 12)

    @pytest.mark.parametrize("raw", [
        {"master_seed": 1.7}, {"master_seed": True}, {"master_seed": "1"},
        {"eval": {"seeds": [1.5]}}, {"eval": {"seeds": [0, True]}},
        {"eval": {"noise_seeds": [0.5]}}])
    def test_non_integer_seeds_are_usage_errors(self, raw):
        # int() would turn 1.7 and true into seed 1, a run nobody asked for
        with pytest.raises(cfgmod.UsageError, match="integer"):
            cfgmod.config_from_dict(raw)

    def test_integer_seeds_are_kept(self):
        cfg = cfgmod.config_from_dict({"master_seed": 7,
                                       "eval": {"seeds": [3, 4], "noise_seeds": [5]}})
        assert (cfg.master_seed, cfg.eval.seeds, cfg.eval.noise_seeds) == (7, (3, 4), (5,))

    @pytest.mark.parametrize("raw, key, source", [
        ({"training": {"seed": 3}}, "training.seed", "master_seed"),
        ({"training": {"overrides": {"agg": {"seed": 3}}}}, "training.overrides.agg.seed",
         "master_seed"),
        ({"model": {"vocab_size": 40}}, "model.vocab_size", "vocabulary")])
    def test_derived_values_cannot_be_set(self, raw, key, source):
        """A value that every stage sets itself is refused with its source,
        not silently overridden (it would still change the config hash)."""
        with pytest.raises(cfgmod.UsageError, match=key) as e:
            cfgmod.config_from_dict(raw)
        assert source in str(e.value)

    def test_the_hash_leaves_out_eval_alone(self):
        """No stage file reads `eval`, so no eval setting moves the run
        directories; a field of any other section does."""
        default = cfgmod.config_from_dict({})
        evals = {"seeds": [4, 5], "sigmas": [0.5], "noise_seeds": [7], "beam_width": 2,
                 "experiment_beam_width": 3, "max_steps": 9}
        assert set(evals) == {f.name for f in fields(cfgmod.EvalConfig)}
        for key, value in evals.items():
            changed = cfgmod.config_from_dict({"eval": {key: value}})
            assert changed.eval != default.eval
            assert changed.config_hash() == default.config_hash(), key
        others = {"dataset": {"n_content": 9}, "model": {"d_model": 32},
                  "curriculum": {"lm_steps": 7}, "training": {"beta": 0.2}}
        assert set(others) == {f.name for f in fields(cfgmod.RunConfig)} - {
            "output_dir", "master_seed", "eval"}
        for section, raw in others.items():
            changed = cfgmod.config_from_dict({section: raw})
            assert changed.config_hash() != default.config_hash(), section

    def test_output_dir_does_not_change_hash(self):
        a = cfgmod.config_from_dict({"output_dir": "runs"})
        b = cfgmod.config_from_dict({"output_dir": "elsewhere/runs"})
        assert a.config_hash() == b.config_hash()
        assert P.run_dir(a, 0) != P.run_dir(b, 0)
        assert os.path.basename(P.run_dir(a, 0)) == os.path.basename(P.run_dir(b, 0))


@pytest.fixture(scope="module")
def cli_import_modules() -> list[str]:
    """The modules that `import epinmt.cli` leaves loaded, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", "import epinmt.cli, sys; print(*sys.modules)"],
        env=child_env(), capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_cli_import_does_not_load_scipy_stats(cli_import_modules):
    assert "scipy.stats" not in cli_import_modules


def test_cli_import_loads_no_scipy_module(cli_import_modules):
    """`import epinmt.cli` loads no scipy module (GELU loads only its erf extension)."""
    assert [m for m in cli_import_modules if m.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("prefix", ["concurrent", "multiprocessing", "subprocess",
                                    "ctypes.util"])
def test_cli_import_does_not_load(cli_import_modules, prefix):
    """`import epinmt.cli`, which every command pays, loads no process pool
    (only a command that runs one does), and neither `subprocess` nor
    `ctypes.util` (whose `find_library` starts a child process)."""
    assert [m for m in cli_import_modules if (m + ".").startswith(prefix + ".")] == []


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

    @pytest.mark.parametrize("command, section", [
        ("gen-data", {"model": {"d_model": 10, "n_heads": 4}}),
        ("score", {"curriculum": {"variant": "bogus"}}),
        ("experiment", {"eval": {**TINY["eval"], "seeds": []}}),
        ("experiment", {"eval": {**TINY["eval"], "beam_width": 0}}),
        ("experiment", {"eval": {**TINY["eval"], "sigmas": [-0.1]}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "n_content": "x"}}),
        ("gen-data", {"model": {**TINY["model"], "n_heads": 0}}),
        ("score", {"curriculum": {**TINY["curriculum"], "scorer_steps": "x"}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "n_content": 2}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "noise_fraction": 2.0}}),
        ("score", {"curriculum": {**TINY["curriculum"],
                                  "stage_boundaries": [0.9, 0.1]}}),
        ("gen-data", {"model": {**TINY["model"], "n_layers": -1}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "rules": ["zigzag"]}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "len_min": 9, "len_max": 6}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "n_seen": 0}}),
        ("gen-data", {"dataset": {**TINY["dataset"], "windows": []}}),
        ("gen-data", {"master_seed": "x"}),
        ("gen-data", {"training": {**TINY["training"], "methods": 3}}),
        ("gen-data", {"master_seed": -1}),
        ("experiment", {"eval": {**TINY["eval"], "seeds": [0, 0]}}),
        ("gen-data", {"dataset": 3}),
        ("gen-data", {"training": {**TINY["training"], "overrides": 5}}),
        ("gen-data", {"training": {**TINY["training"], "overrides": {"agg": 3}}}),
        ("gen-data", {"training": [["alpha", 0.1]]}),
        ("gen-data", {"master_seed": 1.7}),
        ("gen-data", {"master_seed": True}),
        ("experiment", {"eval": {**TINY["eval"], "seeds": [1.5]}}),
        ("experiment", {"eval": {**TINY["eval"], "seeds": [True]}}),
        ("experiment", {"eval": {**TINY["eval"], "noise_seeds": [0.5]}}),
        pytest.param("gen-data", '{"output_dir": 3}', id="gen-data-output-dir-not-string"),
        pytest.param("gen-data", '{"master_seed": 1,', id="gen-data-not-json"),
        pytest.param("gen-data", "[1, 2]", id="gen-data-root-not-object"),
        pytest.param("gen-data", {"dataset": {**TINY["dataset"], "len_min": -3}},
                     id="gen-data-negative-len-min"),
        pytest.param("gen-data", {"training": {**TINY["training"], "seed": 3}},
                     id="gen-data-training-seed"),
        pytest.param("gen-data", {"model": {**TINY["model"], "vocab_size": 40}},
                     id="gen-data-model-vocab-size"),
        pytest.param("gen-data", {"training": {**TINY["training"],
                                               "overrides": {"agg": {"seed": 1}}}},
                     id="gen-data-override-seed"),
        # a source of len_max tokens is fed with its EOS, a target after BOS
        pytest.param("score", {"model": {**TINY["model"], "max_len": 9}},
                     id="score-max-len-below-len-max-plus-one"),
        pytest.param("train --method epi_nmt", {"dataset": {**TINY["dataset"], "n_seen": 1}},
                     id="train-episodic-with-one-seen-domain"),
        pytest.param("experiment", {"dataset": {**TINY["dataset"], "n_seen": 1}},
                     id="experiment-episodic-with-one-seen-domain"),
        pytest.param("score", {"dataset": {**TINY["dataset"], "trusted_count": 0}},
                     id="score-denoise-without-trusted-pairs"),
        pytest.param("experiment", {"training": {**TINY["training"], "methods": []}},
                     id="experiment-no-methods"),
        pytest.param("experiment", {"training": {**TINY["training"],
                                                 "methods": ["agg", "agg"]}},
                     id="experiment-repeated-method"),
        # json.load reads NaN, Infinity and 1e999 (as inf), and NaN passes `< 0`
        pytest.param("train --method agg", {"training": {**TINY["training"],
                                                         "alpha": float("nan")}},
                     id="train-nan-alpha"),
        pytest.param("score", {"curriculum": {**TINY["curriculum"],
                                              "scorer_lr": float("nan")}},
                     id="score-nan-scorer-lr"),
        pytest.param("score", {"curriculum": {**TINY["curriculum"], "lm_lr": float("inf")}},
                     id="score-infinite-lm-lr"),
        pytest.param("train --method agg",
                     {"training": {**TINY["training"],
                                   "overrides": {"agg": {"beta": float("inf")}}}},
                     id="train-infinite-override"),
        pytest.param("experiment", {"eval": {**TINY["eval"], "sigmas": [0.01, float("nan")]}},
                     id="experiment-nan-sigma"),
        # a perturbation row averages over the noise seeds, so none gives NaN
        pytest.param("experiment", {"eval": {**TINY["eval"], "noise_seeds": []}},
                     id="experiment-sigmas-without-noise-seeds")])
    def test_invalid_config_values_are_usage_errors(self, tmp_path, capsys,
                                                     monkeypatch, command, section):
        """`command` is split on spaces into its arguments; `section` is merged
        into TINY, or, as a string, is the whole file."""
        monkeypatch.chdir(tmp_path)   # where the default output_dir would go
        path = tmp_path / "bad.json"
        path.write_text(section if isinstance(section, str) else
                        json.dumps({**TINY, **section, "output_dir": "runs"}))
        assert cli.main([*command.split(), "--config", str(path)]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section, fields", [
        ("dataset", {"train_tokens": 200.5}), ("model", {"d_model": 16.0}),
        ("model", {"n_layers": True}), ("curriculum", {"scorer_steps": 2.5}),
        ("training", {"epochs": 1.5}), ("eval", {"beam_width": 1.5}),
        ("training", {"overrides": {"agg": {"batch_size": 4.0}}})])
    def test_non_integer_counts_are_usage_errors(self, tmp_path, capsys, monkeypatch,
                                                 section, fields):
        """A float or a bool in an integer field is rejected before any stage
        runs; int() would truncate it or make it 1."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**TINY, section: {**TINY[section], **fields},
                                    "output_dir": "runs"}))
        assert cli.main(["gen-data", "--config", str(path)]) == cli.EXIT_USAGE
        assert "takes integers only" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_too_few_kept_pairs_is_a_data_error(self, tmp_path, capsys):
        """A corpus too small to cut into the curriculum's 5 shards is a data
        error that names its kept and filtered pair counts."""
        cfg = {**TINY, "output_dir": str(tmp_path / "runs"),
               "dataset": {**TINY["dataset"], "train_tokens": 5}}
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["score", "--config", str(path)]) == cli.EXIT_DATA
        assert "5 kept pairs to shard, got 2 kept (0 filtered" in capsys.readouterr().err

    def test_noise_in_a_one_pair_domain_is_a_data_error(self, tmp_path, capsys):
        """A seen domain with one training pair has no other pair whose target
        a noisy pair could take: a data error that names the domain, its pair
        count and noise_fraction, before any file is written."""
        cfg = {**TINY, "output_dir": str(tmp_path / "runs"),
               "dataset": {**TINY["dataset"], "train_tokens": 5, "noise_fraction": 0.6,
                           "trusted_count": 1}}
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["gen-data", "--config", str(path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: domain 1 has 1 training pair, so noise_fraction 0.6 asks for a "
            "noisy pair with no other pair's target to take\n")
        assert not (tmp_path / "runs").exists()

    def test_negative_seed_flag_is_usage_error(self, tiny_config_file, tmp_path, capsys):
        assert cli.main(["gen-data", "--config", tiny_config_file,
                         "--seed", "-1"]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["gen-data", "score", "finetune", "eval",
                                         "experiment"])
    def test_build_deps_only_on_train(self, tiny_config_file, command):
        argv = [command, "--config", tiny_config_file, "--build-deps"]
        if command == "finetune":
            argv += ["--method", "agg"]
        assert cli.main(argv) == cli.EXIT_USAGE


class TestCliPipeline:
    def test_gen_data_writes_artifacts(self, tiny_config_file, capsys):
        rc = cli.main(["gen-data", "--config", tiny_config_file])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out.strip()
        assert os.path.isfile(os.path.join(out, "vocab.txt"))
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert set(manifest["domains"]) == {"0", "1", "2", "3"}
        assert manifest["domains"]["1"]["noise_pairs"] > 0
        assert manifest["domains"]["3"]["train_pairs"] == 0
        assert os.path.isfile(os.path.join(out, "domain_1.train.tsv"))

    def test_gen_data_deterministic_bytes(self, tiny_config_file, capsys):
        cli.main(["gen-data", "--config", tiny_config_file])
        out = capsys.readouterr().out.strip()
        first = Path(out, "domain_1.train.tsv").read_bytes()
        cli.main(["gen-data", "--config", tiny_config_file])
        capsys.readouterr()
        assert Path(out, "domain_1.train.tsv").read_bytes() == first

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

    def test_truncated_plan_is_data_error(self, tiny_config_file, capsys):
        """A stage file cut short is a data error that names it."""
        assert cli.main(["score", "--config", tiny_config_file]) == cli.EXIT_OK
        plan = Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0), "score",
                    "plan.json")
        plan.write_bytes(plan.read_bytes()[:300])
        capsys.readouterr()
        assert cli.main(["train", "--config", tiny_config_file,
                         "--method", "epi_curriculum"]) == cli.EXIT_DATA
        assert f"data error: {plan} is damaged" in capsys.readouterr().err

    def test_nonfinite_loss_is_internal_error(self, tmp_path, capsys):
        path = _tiny_with_training(tmp_path, overrides={"agg": {"alpha": 1e100}})
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["train", "--config", path, "--method", "agg"])
        assert rc == cli.EXIT_INTERNAL
        assert "non-finite loss" in capsys.readouterr().err

    def test_nonfinite_loss_in_experiment_names_method_and_seed(self, tmp_path, capsys):
        path = _tiny_with_training(tmp_path, overrides={"agg": {"alpha": 1e100}})
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["experiment", "--config", path])
        assert rc == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "non-finite loss" in err and "agg" in err and "seed 0" in err

    @pytest.mark.parametrize("training, stage", [
        ({"overrides": {"vanilla": {"alpha": 1e9}}}, "vanilla pretraining (seed 0)"),
        ({"finetune_lr": 1e100}, "fine-tuning on domain")], ids=["pretraining", "fine-tuning"])
    def test_a_diverged_training_names_its_stage(self, tmp_path, capsys, training, stage):
        """A non-finite loss in vanilla pretraining or in the protocol's
        fine-tuning names that stage, under the pool task's label."""
        path = _tiny_with_training(tmp_path, **training)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["experiment", "--config", path])
        assert rc == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert stage in err and "non-finite loss" in err

    def test_second_train_loads_the_vanilla(self, tiny_config_file, monkeypatch, capsys):
        """The first `train` in a run directory pretrains vanilla into base/;
        a second one loads it and the checkpoint, and trains nothing."""
        train = ["train", "--config", tiny_config_file, "--method", "agg"]
        assert cli.main(train) == cli.EXIT_OK
        ckpt = Path(capsys.readouterr().out.strip())
        written = (ckpt, ckpt.with_name("agg.provenance.json"))
        fresh = [f.read_bytes() for f in written]

        def no_training(*args, **kwargs):
            raise RuntimeError("train trained again")

        monkeypatch.setattr(TR, "pretrain_vanilla", no_training)
        monkeypatch.setattr(P, "_train_method", no_training)
        assert cli.main(train) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == str(ckpt)
        assert [f.read_bytes() for f in written] == fresh

    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_failed_checkpoint_write_leaves_no_file(self, tiny_config_file, monkeypatch,
                                                    capsys, command):
        """A checkpoint write that fails after writing leaves neither the
        checkpoint, nor its record, nor its temporary file: the next command
        finds it absent."""
        config = ["--config", tiny_config_file]
        # the checkpoints that the failing command starts from
        assert cli.main(["train", *config, "--method",
                         "agg" if command == "finetune" else "vanilla"]) == cli.EXIT_OK
        save = M.save_model

        def write_then_fail(model, path):
            save(model, path)
            raise OSError("No space left on device")

        monkeypatch.setattr(M, "save_model", write_then_fail)
        assert cli.main([command, *config, "--method", "agg"]) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        run = Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0))
        assert list(run.rglob("*.tmp")) == []
        assert sorted(p.name for p in (run / "train").iterdir()) == {
            "train": ["vanilla.model.json", "vanilla.provenance.json"],
            "finetune": ["agg.model.json", "agg.provenance.json"]}[command]

    def test_failed_report_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        """A report whose csv writer fails on its third row leaves neither
        protocol.csv nor its temporary file."""
        path = _tiny_with_training(tmp_path, methods=["vanilla"])
        assert cli.main(["train", "--config", path, "--method", "vanilla"]) == cli.EXIT_OK
        writer = csv.writer

        class FailsOnThirdRow:
            def __init__(self, f):
                self.inner, self.rows = writer(f), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 3:
                    raise OSError("No space left on device")
                self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsOnThirdRow)
        assert cli.main(["eval", "--config", path]) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
        run = Path(P.run_dir(cfgmod.load_config(path), 0))
        assert list(run.rglob("*.tmp")) == []
        assert sorted(p.name for p in (run / "eval").iterdir()) == ["protocol.json"]

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

    def test_finetune_writes_the_protocol_models(self, tiny_config_file, capsys):
        """Each `ft_domain{d}` checkpoint is the model the protocol scores for
        that (seed, domain) cell: fine-tuned with seed `seed * 1000 + d`."""
        seed = ["--seed", "2"]
        assert cli.main(["train", "--config", tiny_config_file,
                         "--method", "agg", *seed]) == cli.EXIT_OK
        trained = M.load_model(capsys.readouterr().out.strip())
        assert cli.main(["finetune", "--config", tiny_config_file,
                         "--method", "agg", *seed]) == cli.EXIT_OK
        out = capsys.readouterr().out.strip()
        cfg = cfgmod.load_config(tiny_config_file)
        _, ds = C.build_dataset(cfg.dataset, 2)
        for d in ds.seen_ids + ds.unseen_ids:
            hp = replace(cfg.training.hp, seed=2 * 1000 + d)
            want = TR.finetune(trained, ds.splits[d].finetune, hp)
            got = M.load_model(os.path.join(out, f"agg.ft_domain{d}.model.json"))
            assert got.checksum() == want.checksum(), d

    def test_eval_requires_checkpoints(self, tiny_config_file):
        assert cli.main(["eval", "--config", tiny_config_file]) == cli.EXIT_DATA

    def test_eval_matches_experiment_protocol(self, tiny_config_file, capsys):
        cfg = cfgmod.load_config(tiny_config_file)
        for m in cfg.training.methods:
            assert cli.main(["train", "--config", tiny_config_file, "--method", m,
                             "--build-deps"]) == cli.EXIT_OK
        assert cli.main(["eval", "--config", tiny_config_file]) == cli.EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()[-1]
        with open(os.path.join(out, "protocol.json")) as f:
            evaluated = json.load(f)
        assert evaluated["meta"]["seeds"] == [cfg.master_seed]
        assert cli.main(["experiment", "--config", tiny_config_file]) == cli.EXIT_OK
        with open(os.path.join(capsys.readouterr().out.strip(), "report.json")) as f:
            full = json.load(f)
        rows = [r for r in full["protocol"] if r["seed"] == cfg.master_seed]
        assert len(rows) == 3 * 3
        assert evaluated["protocol"] == rows

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
        report = json.loads(Path(out, "report.json").read_text())
        methods = {row["method"] for row in report["protocol"]}
        assert methods == {"vanilla", "agg", "epi_curriculum"}
        assert "swap" in report and "perturbation" in report
        assert "divergence_bins" in report
        csv_lines = Path(out, "report.csv").read_text().splitlines()
        assert csv_lines[0] == "method,domain,seen_flag,metric,value,seed"
        # 3 methods x 3 domains x 3 metrics rows
        assert len(csv_lines) == 1 + 3 * 3 * 3

    def test_no_swap_specialists_without_a_grafted_method(self, tmp_path, monkeypatch):
        """With only vanilla configured, the swap study grafts nothing, so no
        swap specialist (one `train_agg` call each) is trained and the report
        has no swap section."""
        log = tmp_path / "calls.log"
        monkeypatch.setattr(TR, "train_agg", _logged(log, TR.train_agg))
        report_dir = P.experiment(_tiny_run(tmp_path, methods=["vanilla"]))
        report = json.loads(Path(report_dir, "report.json").read_text())
        assert "swap" not in report and not log.exists()

    def test_no_scorer_is_pickled(self, tmp_path, monkeypatch):
        """Each eval seed is scored in a pool task, which sends back the plan
        and no scorer; `experiment` returns the report directory."""
        log = tmp_path / "calls.log"
        cfg = _tiny_run(tmp_path, methods=["vanilla"], seeds=[0, 1])
        monkeypatch.setattr(CU.Scorer, "__getstate__", _logged(log, vars), raising=False)
        assert P.experiment(cfg) == os.path.join(P.run_dir(cfg, 0), "eval")
        assert not log.exists()

    def test_each_model_decodes_its_test_sets_together(self, tmp_path, monkeypatch):
        """The studies decode all of a model's test sets (or bins) in one
        batched beam search: 68 `beam_decode_batch` calls for three methods
        and two eval seeds, where one per (model, test set) made 127."""
        log = tmp_path / "calls.log"
        monkeypatch.setattr(M, "beam_decode_batch", _logged(log, M.beam_decode_batch))
        P.experiment(_tiny_run(tmp_path, methods=["vanilla", "agg", "epi_curriculum"],
                               seeds=[0, 1]))
        assert len(log.read_text().split()) == 68

    def test_a_scored_seed_trains_while_the_other_is_scored(self, tmp_path, monkeypatch):
        """Seed 0's trainings start as soon as seed 0 is scored: on two
        workers, seed 1's scoring waits (up to 20 s) for a file that seed
        0's training writes."""
        monkeypatch.setattr(P, "_workers", lambda: 2)
        marker = tmp_path / "seed0.trained"
        base, load_trained = P._base, P._load_trained

        def waits_for_seed_0(cfg, seed):
            deadline = time.monotonic() + 20
            while seed == 1 and not marker.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("seed 0 was not trained while seed 1 was scored")
                time.sleep(0.01)
            return base(cfg, seed)

        def marks_seed_0(cfg, seed, *args):
            if seed == 0:
                marker.touch()
            return load_trained(cfg, seed, *args)

        monkeypatch.setattr(P, "_base", waits_for_seed_0)
        monkeypatch.setattr(P, "_load_trained", marks_seed_0)
        P.experiment(_tiny_run(tmp_path, methods=["vanilla"], seeds=[0, 1]))
        assert marker.exists()

    def test_a_seed_does_not_depend_on_the_other_eval_seeds(self, tmp_path):
        """Eval seed 1's report rows, the name of its run directory and the
        files there outside eval/ (its plan holds both scorers' outputs) are
        the same whether it runs next to seed 0 or alone."""
        def seed_one(seeds):
            cfg = _tiny_run(tmp_path / f"seeds{len(seeds)}",
                            methods=["vanilla", "agg", "epi_curriculum"], seeds=seeds)
            report = json.loads(Path(P.experiment(cfg), "report.json").read_text())
            run = Path(P.run_dir(cfg, 1))
            files = {p.relative_to(run).as_posix(): p.read_bytes()
                     for p in sorted(run.rglob("*"))
                     if p.is_file() and p.relative_to(run).parts[0] != "eval"}
            rows = {study: [r for r in report[study] if r["seed"] == 1] for study in
                    ("protocol", "swap", "perturbation", "divergence_bins")}
            return run.name, rows, files

        (name, rows, files), alone = seed_one([0, 1]), seed_one([1])
        assert all(rows.values()) and any(rel.startswith("train/") for rel in files)
        assert name == alone[0]
        assert rows == alone[1]
        assert files == alone[2]

    def test_experiment_takes_no_seed_flag(self, tiny_config_file, tmp_path):
        """`experiment` runs every eval seed, so a --seed would name nothing."""
        assert cli.main(["experiment", "--config", tiny_config_file,
                         "--seed", "5"]) == cli.EXIT_USAGE
        assert not (tmp_path / "runs").exists()


@pytest.fixture(scope="class")
def experimented(tmp_path_factory):
    """A TINY config file with eval seeds (0, 1), and its output directory
    after `experiment` alone."""
    tmp = tmp_path_factory.mktemp("experimented")
    path = tmp / "config.json"
    path.write_text(json.dumps({**TINY, "output_dir": str(tmp / "runs"),
                                "eval": {**TINY["eval"], "seeds": [0, 1]}}))
    assert cli.main(["experiment", "--config", str(path)]) == cli.EXIT_OK
    return str(path), tmp / "runs"


class TestOneRunLayout:
    """A (config, seed) has one run directory, and `experiment` writes into it
    what the single commands write."""

    def test_experiment_writes_what_train_writes(self, experimented, tmp_path, capsys):
        path, runs = experimented
        out = tmp_path / "trained"
        for seed in (0, 1):
            for m in cfgmod.load_config(path).training.methods:
                seed_flag = ["--seed", str(seed)] if seed else []   # 0 is the master seed
                assert cli.main(["train", "--config", path, "--method", m, "--build-deps",
                                 "--out", str(out), *seed_flag]) == cli.EXIT_OK
        trained = {p.relative_to(out): p.read_bytes()
                   for p in sorted(out.rglob("*")) if p.is_file()}
        assert sum(rel.parent.name == "train" for rel in trained) == 2 * 3 * 2
        assert {rel: (runs / rel).read_bytes() if (runs / rel).is_file() else None
                for rel in trained} == trained

    def test_finetune_and_eval_after_experiment_alone(self, experimented, capsys):
        path, runs = experimented
        report = Path(P.run_dir(cfgmod.load_config(path), 0), "eval", "report.json")
        rows = [r for r in json.loads(report.read_text())["protocol"] if r["seed"] == 1]
        assert cli.main(["finetune", "--config", path, "--method", "agg",
                         "--seed", "1"]) == cli.EXIT_OK
        assert cli.main(["eval", "--config", path, "--seed", "1"]) == cli.EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(Path(out, "protocol.json").read_text())["protocol"] == rows
        assert len(rows) == 3 * 3

    def test_eval_keeps_the_experiment_report(self, experimented, capsys):
        """`eval` on the first eval seed writes its own protocol files and
        leaves the experiment's report bundle as it was."""
        path, _ = experimented
        report_dir = Path(P.run_dir(cfgmod.load_config(path), 0), "eval")
        before = {n: (report_dir / n).read_bytes() for n in ("report.json", "report.csv")}
        assert cli.main(["eval", "--config", path]) == cli.EXIT_OK
        assert capsys.readouterr().out.strip() == str(report_dir)
        assert {n: (report_dir / n).read_bytes() for n in before} == before
        assert (report_dir / "protocol.json").is_file()


def _tamper(path: Path) -> None:
    """Rewrite a checkpoint as valid JSON with one value changed."""
    payload = json.loads(path.read_text())
    payload["encoder"][0]["values"][0] += 1.0
    path.write_text(json.dumps(payload))


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _seed_logged(log: Path, fn, at: int = 3):
    """fn, appending the seed it is called with (positional argument `at`,
    which is 3 for `build_scorers`) to `log` at each call."""
    def logged(*args):
        with open(log, "a") as f:
            f.write(f"{args[at]}\n")
        return fn(*args)
    return logged


def _stats(directory: Path) -> dict:
    """Each file's (inode, mtime in ns): both change when a file is written again."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


def _stage_stats(cfg: cfgmod.RunConfig, seeds) -> dict:
    """`_stats` of each seed's stage directories but eval/."""
    return {(seed, d.name): _stats(d) for seed in seeds
            for d in Path(P.run_dir(cfg, seed)).iterdir() if d.name != "eval"}


class TestReuse:
    """A command reads a stage file back only when its record names this
    config, seed, source and numpy, and the file's sha256."""

    def test_rewritten_vanilla_is_pretrained_again(self, tiny_config_file, tmp_path,
                                                   monkeypatch, capsys):
        config = ["--config", tiny_config_file]
        assert cli.main(["train", *config, "--method", "agg",
                         "--out", str(tmp_path / "fresh")]) == cli.EXIT_OK
        fresh = Path(capsys.readouterr().out.strip()).read_bytes()
        assert cli.main(["score", *config]) == cli.EXIT_OK
        _tamper(Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0), "base",
                     "vanilla.model.json"))
        log = tmp_path / "calls.log"
        monkeypatch.setattr(TR, "pretrain_vanilla", _logged(log, TR.pretrain_vanilla))
        capsys.readouterr()
        assert cli.main(["train", *config, "--method", "agg"]) == cli.EXIT_OK
        assert Path(capsys.readouterr().out.strip()).read_bytes() == fresh
        assert log.read_text().split() == ["pretrain_vanilla"]

    def test_files_of_other_sources_are_computed_again(self, tiny_config_file, tmp_path,
                                                       monkeypatch, capsys):
        """A vanilla model and a plan whose records name other sources are
        computed again, and the run directory ends as a fresh one's."""
        train = ["train", "--config", tiny_config_file, "--method", "epi_curriculum",
                 "--build-deps"]
        assert cli.main([*train, "--out", str(tmp_path / "fresh")]) == cli.EXIT_OK
        with monkeypatch.context() as m:
            m.setattr(P, "_source_digest", lambda: "0" * 64)
            assert cli.main(["score", "--config", tiny_config_file]) == cli.EXIT_OK
        log = tmp_path / "calls.log"
        monkeypatch.setattr(TR, "pretrain_vanilla", _logged(log, TR.pretrain_vanilla))
        monkeypatch.setattr(P, "build_scorers", _logged(log, P.build_scorers))
        assert cli.main(train) == cli.EXIT_OK
        assert log.read_text().split() == ["pretrain_vanilla", "build_scorers"]
        assert _tree(tmp_path / "runs") == _tree(tmp_path / "fresh")

    def test_finetune_and_eval_refuse_a_tampered_checkpoint(self, tiny_config_file, capsys):
        config = ["--config", tiny_config_file]
        for m in cfgmod.load_config(tiny_config_file).training.methods:
            assert cli.main(["train", *config, "--method", m, "--build-deps"]) == cli.EXIT_OK
        ckpt = Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0), "train",
                    "agg.model.json")
        _tamper(ckpt)
        capsys.readouterr()
        for command in (["finetune", "--method", "agg"], ["eval"]):
            assert cli.main([*command, *config]) == cli.EXIT_DATA
            assert capsys.readouterr().err == (
                f"data error: damaged checkpoint {ckpt}; run 'train --method agg' first\n")

    def test_experiment_after_score_scores_only_the_other_seed(self, tmp_path,
                                                               monkeypatch):
        """`experiment` loads the plan that `score` wrote for eval seed 0,
        leaving every file of its score/ as it was, and scores seed 1 alone."""
        cfg = _tiny_run(tmp_path, methods=["vanilla"], seeds=[0, 1])
        P.score(cfg, 0)
        scored = Path(P.run_dir(cfg, 0), "score")
        before = _stats(scored)
        monkeypatch.setattr(P, "build_scorers", _seed_logged(tmp_path / "seeds.log",
                                                             P.build_scorers))
        P.experiment(cfg)
        assert (tmp_path / "seeds.log").read_text().split() == ["1"]
        assert _stats(scored) == before

    def test_a_second_experiment_computes_nothing(self, tmp_path, monkeypatch):
        """A second `experiment` loads every vanilla model, plan and
        checkpoint, and writes the same report. So do later ones whose
        configs differ only in `eval`: they use the same run directories,
        and their reports hold the eval settings they ran with."""
        methods = ["vanilla", "epi_curriculum"]
        cfg = _tiny_run(tmp_path, methods, seeds=[0, 1])
        report = Path(P.experiment(cfg), "report.json")
        first, before = report.read_bytes(), _stage_stats(cfg, [0, 1])
        log = tmp_path / "calls.log"
        for module, name in ((P, "build_scorers"), (P, "_train_method"),
                             (TR, "pretrain_vanilla")):
            monkeypatch.setattr(module, name, _logged(log, getattr(module, name)))
        P.experiment(cfg)
        assert report.read_bytes() == first
        for changed in ({"sigmas": [0.01, 0.1]}, {"beam_width": 2, "experiment_beam_width": 2},
                        {"max_steps": 4}):
            assert P.experiment(_tiny_run(tmp_path, methods, [0, 1], **changed)) == \
                str(report.parent)
            assert json.loads(report.read_text())["meta"]["eval"] == {
                **TINY["eval"], "seeds": [0, 1], **changed}
        assert not log.exists()
        assert _stage_stats(cfg, [0, 1]) == before

    def test_a_new_eval_seed_is_scored_and_trained_alone(self, tmp_path, monkeypatch):
        """Adding an eval seed keeps the other seeds' run directories and
        scores and trains the new seed alone."""
        methods = ["vanilla", "epi_curriculum"]
        cfg = _tiny_run(tmp_path, methods, seeds=[0])
        P.experiment(cfg)
        before = _stage_stats(cfg, [0])
        monkeypatch.setattr(P, "build_scorers", _seed_logged(tmp_path / "scored.log",
                                                             P.build_scorers))
        monkeypatch.setattr(P, "_train_method", _seed_logged(tmp_path / "trained.log",
                                                             P._train_method, at=2))
        P.experiment(_tiny_run(tmp_path, methods, seeds=[0, 1]))
        assert (tmp_path / "scored.log").read_text().split() == ["1"]
        assert (tmp_path / "trained.log").read_text().split() == ["1", "1"]
        assert _stage_stats(cfg, [0]) == before

    def test_a_second_score_and_train_compute_nothing(self, tiny_config_file, tmp_path,
                                                      monkeypatch, capsys):
        """`score` and `train` load a current vanilla model, plan and
        checkpoint as `experiment` does: a second round pretrains, scores
        and trains nothing, writes no file and prints what the first printed."""
        commands = (["score", "--config", tiny_config_file],
                    ["train", "--config", tiny_config_file, "--method", "epi_curriculum",
                     "--build-deps"])

        def run_all():
            for argv in commands:
                assert cli.main(argv) == cli.EXIT_OK
            return capsys.readouterr().out

        printed, cfg = run_all(), cfgmod.load_config(tiny_config_file)
        before = _stage_stats(cfg, [0])
        assert sorted(stage for _, stage in before) == ["base", "data", "score", "train"]
        log = tmp_path / "calls.log"
        for module, name in ((TR, "pretrain_vanilla"), (P, "build_scorers"),
                             (P, "_train_method")):
            monkeypatch.setattr(module, name, _logged(log, getattr(module, name)))
        assert run_all() == printed
        assert not log.exists()
        assert _stage_stats(cfg, [0]) == before

    def test_experiment_scores_a_plan_of_other_sources_again(self, tmp_path, monkeypatch):
        """After `score` by other sources on eval seed 0, `experiment` scores
        that seed again, and only that one, and the run directory ends as
        the fresh one it was before."""
        cfg = _tiny_run(tmp_path, methods=["vanilla"], seeds=[0, 1])
        P.experiment(cfg)
        fresh = _tree(tmp_path / "runs")
        with monkeypatch.context() as m:
            m.setattr(P, "_source_digest", lambda: "0" * 64)
            P.score(cfg, 0)
        monkeypatch.setattr(P, "build_scorers", _seed_logged(tmp_path / "seeds.log",
                                                             P.build_scorers))
        P.experiment(cfg)
        assert (tmp_path / "seeds.log").read_text().split() == ["0"]
        assert _tree(tmp_path / "runs") == fresh

    def test_finetune_and_eval_leave_data_as_it_was(self, tmp_path, capsys):
        """`finetune` and `eval` need a current checkpoint, whose training
        wrote data/ already, so they rebuild the dataset without writing it."""
        config = ["--config", _tiny_with_training(tmp_path, methods=["agg"])]
        assert cli.main(["train", *config, "--method", "agg"]) == cli.EXIT_OK
        data = Path(capsys.readouterr().out.strip()).parents[1] / "data"
        before = _stats(data)
        for command in (["finetune", "--method", "agg"], ["eval"]):
            assert cli.main([*command, *config]) == cli.EXIT_OK
        assert _stats(data) == before

    def test_a_second_experiment_leaves_data_as_it_was(self, tmp_path):
        """A second `experiment`, whose base/ is current, rebuilds the
        dataset without writing data/."""
        cfg = _tiny_run(tmp_path, methods=["vanilla"])
        P.experiment(cfg)
        data = Path(P.run_dir(cfg, 0), "data")
        before = _stats(data)
        P.experiment(cfg)
        assert _stats(data) == before

    def test_experiment_loads_a_current_checkpoint(self, tiny_config_file, tmp_path, capsys):
        """`experiment` after `train` leaves the trained checkpoint as it was,
        and reports what `experiment` reports in a fresh directory."""
        config = ["--config", tiny_config_file]
        assert cli.main(["train", *config, "--method", "epi_curriculum",
                         "--build-deps"]) == cli.EXIT_OK
        trained = Path(capsys.readouterr().out.strip()).parent
        before = _stats(trained)
        reports = []
        for out in ([], ["--out", str(tmp_path / "fresh")]):
            assert cli.main(["experiment", *config, *out]) == cli.EXIT_OK
            reports.append(Path(capsys.readouterr().out.strip(), "report.json").read_bytes())
        assert {n: _stats(trained)[n] for n in before} == before
        assert reports[0] == reports[1]

    def test_a_rerun_after_a_dead_training_trains_only_what_is_missing(
            self, tiny_config_file, monkeypatch, capsys):
        """One worker runs the trainings in order, epi_curriculum, agg, then
        vanilla, which dies. A rerun loads the two checkpoints written and
        trains vanilla alone."""
        config = ["--config", tiny_config_file]
        monkeypatch.setattr(P, "_workers", lambda: 1)
        parent, train = os.getpid(), P._train_method

        def dies_on_vanilla(cfg, method, *args):
            if method == "vanilla" and os.getpid() != parent:
                os._exit(3)
            return train(cfg, method, *args)

        with monkeypatch.context() as m:
            m.setattr(P, "_train_method", dies_on_vanilla)
            assert cli.main(["experiment", *config]) == cli.EXIT_INTERNAL
        trained = Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0), "train")
        before = _stats(trained)
        assert sorted(before) == ["agg.model.json", "agg.provenance.json",
                                  "epi_curriculum.model.json", "epi_curriculum.provenance.json"]
        assert cli.main(["experiment", *config]) == cli.EXIT_OK
        after = _stats(trained)
        assert {n: after[n] for n in before} == before
        assert sorted(set(after) - set(before)) == ["vanilla.model.json",
                                                    "vanilla.provenance.json"]

    def test_a_failed_record_write_leaves_no_record(self, tiny_config_file, monkeypatch,
                                                    capsys):
        """A record whose `json.dump` fails partway leaves neither the record
        nor its temporary file, so the next command computes its stage again."""
        dump = json.dump

        def fails_on_records(obj, f, **kwargs):
            if "sha256" not in obj:
                return dump(obj, f, **kwargs)
            f.write('{"config_hash": ')
            raise OSError("No space left on device")

        with monkeypatch.context() as m:
            m.setattr(json, "dump", fails_on_records)
            assert cli.main(["train", "--config", tiny_config_file,
                             "--method", "agg"]) == cli.EXIT_DATA
        run = Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0))
        assert sorted(p.relative_to(run).as_posix() for p in run.rglob("*.json*")) == [
            "base/vanilla.model.json", "data/manifest.json"]

    def test_each_reuse_decision_logs_one_line(self, tiny_config_file, monkeypatch, caplog,
                                               capsys):
        """Info-level logging names each stage file's reuse decision and the
        time it took; the records hold no time."""
        config = ["--config", tiny_config_file]
        train = ["train", *config, "--method", "epi_curriculum", "--build-deps"]
        caplog.set_level(logging.INFO, logger=P.log.name)

        def logged(argv):
            assert cli.main(argv) == cli.EXIT_OK
            lines = [re.sub(r" in \d+\.\d\d s$", " in <t> s", r.getMessage())
                     for r in caplog.records if r.name == P.log.name]
            caplog.clear()
            return lines

        assert logged(train) == ["base (seed 0): computed in <t> s",
                                 "score (seed 0): computed in <t> s",
                                 "train/epi_curriculum (seed 0): computed in <t> s"]
        with monkeypatch.context() as m:
            m.setattr(P, "_source_digest", lambda: "0" * 64)
            assert logged(["score", *config]) == [
                "base (seed 0): stale (source), recomputed in <t> s",
                "score (seed 0): stale (source), recomputed in <t> s"]
        assert logged(train) == ["base (seed 0): stale (source), recomputed in <t> s",
                                 "score (seed 0): stale (source), recomputed in <t> s",
                                 "train/epi_curriculum (seed 0): reused in <t> s"]
        assert logged(["finetune", *config, "--method", "epi_curriculum"]) == [
            "train/epi_curriculum (seed 0): reused in <t> s"]
        summary = Path(P.run_dir(cfgmod.load_config(tiny_config_file), 0), "base",
                       "summary.json")
        assert sorted(json.loads(summary.read_text())) == [
            "config_hash", "numpy", "seed", "sha256", "source", "vanilla_steps"]


class TestTaskRunner:
    @pytest.mark.parametrize("task, error, message", [
        (("agg (seed 3)", P._trainer, cfgmod.RunConfig(), "warp_drive"), UsageError,
         "warp_drive"),
        (("agg (seed 3)", CU.build_plan, [C.SentencePair([4], [4], 1, d_score=0.0)] * 4,
          CU.uniform_policy(5)), DataError, "kept pairs to shard"),
        (("agg (seed 3)", E.corpus_bleu, [[4]], []), InternalError,
         "^agg \\(seed 3\\): corpus_bleu"),
        (("agg (seed 3)", T.linear, T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 5)))),
         InternalError, "^agg \\(seed 3\\): linear"),
        (("agg (seed 3)", P._load_trained, cfgmod.RunConfig(output_dir="no-such-runs"),
          3, "agg"), DataError, "missing checkpoint")],
        ids=["usage", "data", "contract", "shape", "dependency"])
    def test_task_errors_keep_their_type(self, task, error, message):
        with P._pool(1) as pool, pytest.raises(error, match=message):
            P._results(P._submit(pool, [task]))

    def test_dead_worker_is_an_internal_error_naming_its_task(self, tiny_config_file,
                                                              monkeypatch, capsys):
        """A worker that dies ends the command with exit 3 and one line that
        names the first task whose result was lost."""
        parent, train = os.getpid(), P._train_method

        def dies_on_agg(cfg, method, *args):
            if method == "agg" and os.getpid() != parent:
                os._exit(9)
            return train(cfg, method, *args)

        monkeypatch.setattr(P, "_train_method", dies_on_agg)
        assert cli.main(["experiment", "--config", tiny_config_file]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("internal error: agg (seed 0): "), err

    def test_interrupt_exits_130(self, tiny_config_file, monkeypatch, capsys):
        """Ctrl-C while a pool runs ends the command with exit 130, once the
        pool has shut down."""
        def interrupted(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(P, "_results", interrupted)
        try:
            rc = cli.main(["experiment", "--config", tiny_config_file])
        except KeyboardInterrupt:   # would end the whole test session
            rc = "KeyboardInterrupt escaped"
        assert rc == 130
        assert capsys.readouterr().err.strip() == "interrupted"

    def test_results_in_task_order(self, monkeypatch):
        monkeypatch.setattr(P, "_workers", lambda: 2)
        with P._pool(9) as pool:
            got = P._results(P._submit(pool, [("", pow, n, 2) for n in range(9)]))
        assert got == [n * n for n in range(9)]

    @pytest.mark.parametrize("cores, tasks, workers", [(64, 5, 5), (2, 5, 2), (1, 5, 1)])
    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch, cores, tasks,
                                                 workers):
        monkeypatch.setattr(P, "_workers", lambda: cores)
        with P._pool(tasks) as pool:   # no task submitted, so no worker forked
            assert pool._max_workers == workers


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
