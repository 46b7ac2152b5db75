"""End-to-end stages shared by the CLI: data, scoring, training, experiments.

Every stage is a pure function of (config, seed) writing into a
config-hash-named run directory, so re-running a stage reproduces its
outputs byte for byte.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, replace

import numpy as np

from . import corpus as C
from . import curriculum as CU
from . import evaluate as E
from . import model as M
from . import trainers as TR
from .config import RunConfig

log = logging.getLogger(__name__)


class DependencyError(RuntimeError):
    pass


def run_dir(cfg: RunConfig, seed: int) -> str:
    return os.path.join(cfg.output_dir, f"run-{cfg.config_hash()}-seed{seed}")


def _ensure(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# data


def gen_data(cfg: RunConfig, seed: int) -> tuple[M.Vocabulary, C.MultiDomainDataset, str]:
    vocab, dataset = C.build_dataset(cfg.dataset, seed)
    out = _ensure(os.path.join(run_dir(cfg, seed), "data"))
    vocab.save(os.path.join(out, "vocab.txt"))
    manifest = {"seed": seed, "config_hash": cfg.config_hash(), "domains": {}}
    for d, sp in sorted(dataset.splits.items()):
        for split_name, pairs in (("train", sp.training), ("finetune", sp.finetune),
                                  ("test", sp.testing)):
            path = os.path.join(out, f"domain_{d}.{split_name}.tsv")
            C.save_tsv(pairs, path, vocab)
        manifest["domains"][str(d)] = {
            "kind": ("generic" if d == dataset.generic_id
                     else "seen" if d in dataset.seen_ids else "unseen"),
            "train_pairs": len(sp.training),
            "finetune_pairs": len(sp.finetune),
            "test_pairs": len(sp.testing),
            "noise_pairs": sum(1 for p in sp.training if p.is_noise),
        }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    return vocab, dataset, out


# ---------------------------------------------------------------------------
# scoring


def _model_cfg(cfg: RunConfig, vocab: M.Vocabulary) -> M.ModelConfig:
    return replace(cfg.model, vocab_size=vocab.size)


def _vanilla(cfg: RunConfig, dataset: C.MultiDomainDataset, mcfg, seed: int):
    hp = cfg.training.method_hp("vanilla", seed)
    model, curve = TR.pretrain_vanilla(dataset.splits[dataset.generic_id].training,
                                       mcfg, hp)
    return model, curve


def build_scorers(cfg: RunConfig, dataset: C.MultiDomainDataset,
                  vanilla: M.EncoderDecoderModel, mcfg, seed: int):
    cu = cfg.curriculum
    denoise = CU.build_denoise_scorer(vanilla, dataset, cu.scorer_steps, cu.scorer_lr,
                                      cfg.training.hp.batch_size, seed) \
        if cu.denoise else None
    generic_sources = [p.source for p in dataset.splits[dataset.generic_id].training]
    base_lm = CU.train_base_lm(mcfg, generic_sources, cu.lm_steps, cu.lm_lr,
                               cfg.training.hp.batch_size,
                               np.random.default_rng(np.random.SeedSequence([seed, 41])))
    divergence = CU.build_divergence_scorer(base_lm, dataset, cu.div_steps,
                                            cu.div_lr, cfg.training.hp.batch_size, seed)
    return denoise, divergence


def score(cfg: RunConfig, seed: int, dataset=None, vocab=None, vanilla=None):
    """Score, filter and shard the seen-domain training corpus; returns
    (plan, denoise scorer or None, divergence scorer)."""
    if dataset is None or vocab is None:
        vocab, dataset, _ = gen_data(cfg, seed)
    mcfg = _model_cfg(cfg, vocab)
    if vanilla is None:
        vanilla, _ = _vanilla(cfg, dataset, mcfg, seed)
    denoise, divergence = build_scorers(cfg, dataset, vanilla, mcfg, seed)
    pairs = dataset.all_seen_training()
    CU.score_corpus(pairs, denoise, divergence)
    kept = CU.filter_noise(pairs) if cfg.curriculum.denoise else list(pairs)
    plan = CU.build_plan(kept, cfg.curriculum.policy(), len(pairs) - len(kept))

    out = _ensure(os.path.join(run_dir(cfg, seed), "score"))
    C.save_scored_tsv(pairs, os.path.join(out, "scored.tsv"), vocab)
    CU.save_plan(plan, os.path.join(out, "plan.json"))
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as f:
        json.dump({"scored": len(pairs), "kept": len(kept),
                   "filtered_count": plan.filtered_count,
                   "shard_sizes": [len(s) for s in plan.shards]},
                  f, indent=1, sort_keys=True)
    return plan, denoise, divergence


# ---------------------------------------------------------------------------
# training


def _trainer(method: str):
    """(needs a plan, trainer) for a method name."""
    if method not in TR.TRAINERS:
        raise DependencyError(f"unknown method '{method}'")
    return TR.TRAINERS[method]


def train_method(cfg: RunConfig, method: str, seed: int, dataset, vanilla,
                 plan: CU.CurriculumPlan | None) -> M.EncoderDecoderModel:
    needs_plan, trainer = _trainer(method)
    if needs_plan and plan is None:
        raise DependencyError(f"{method} requires a curriculum plan")
    return trainer(vanilla, dataset, plan, cfg.training.method_hp(method, seed))


def train(cfg: RunConfig, method: str, seed: int, build_deps: bool = True) -> str:
    """Train one method end to end and write its checkpoint; returns the path.

    Curriculum methods read `score/plan.json`; with `build_deps` a missing
    plan is built (an existing one is reused, never re-scored).
    """
    vocab, dataset, _ = gen_data(cfg, seed)
    mcfg = _model_cfg(cfg, vocab)
    vanilla, curve = _vanilla(cfg, dataset, mcfg, seed)
    plan = None
    if _trainer(method)[0]:
        plan_path = os.path.join(run_dir(cfg, seed), "score", "plan.json")
        if os.path.exists(plan_path):
            plan = CU.load_plan(plan_path)
        elif build_deps:
            plan, _, _ = score(cfg, seed, dataset, vocab, vanilla)
        else:
            raise DependencyError(
                f"{method} requires a plan; run 'score' first or pass --build-deps")
    model = train_method(cfg, method, seed, dataset, vanilla, plan)
    out = _ensure(os.path.join(run_dir(cfg, seed), "train"))
    path = os.path.join(out, f"{method}.model.json")
    M.save_model(model, path)
    with open(os.path.join(out, f"{method}.provenance.json"), "w",
              encoding="utf-8") as f:
        json.dump({"method": method, "seed": seed,
                   "config_hash": cfg.config_hash(),
                   "vanilla_steps": len(curve)}, f, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# full experiment


def experiment(cfg: RunConfig) -> dict:
    """Train every configured method and run the fine-tuning protocol per eval
    seed; swap, perturbation and bins (and the returned denoise scorer) cover
    the first eval seed only."""
    methods = list(cfg.training.methods)
    models_by_seed: dict[int, dict[str, M.EncoderDecoderModel]] = {}
    specialists_by_seed = {}
    plan_by_seed = {}
    denoise_by_seed = {}
    scored_tests_by_seed = {}
    dataset_by_seed = {}
    for seed in cfg.eval.seeds:
        vocab, dataset, _ = gen_data(cfg, seed)
        mcfg = _model_cfg(cfg, vocab)
        dataset_by_seed[seed] = dataset
        vanilla, _ = _vanilla(cfg, dataset, mcfg, seed)
        plan, denoise_by_seed[seed], divergence = score(cfg, seed, dataset, vocab,
                                                        vanilla)
        plan_by_seed[seed] = plan
        trained = {}
        for m in methods:
            log.info("training %s (seed %d)", m, seed)
            trained[m] = train_method(cfg, m, seed, dataset, vanilla, plan)
        models_by_seed[seed] = trained
        # standalone domain-specific models for the swap experiment
        hp = replace(cfg.training.hp, seed=seed)
        specs = {}
        for d in dataset.seen_ids:
            sm, _ = TR.train_agg(vanilla, dataset.splits[d].training,
                                 replace(hp, seed=seed * 100 + d))
            specs[d] = sm
        specialists_by_seed[seed] = specs
        # divergence-score the seen-domain test sets for binning
        test_pairs = [p for d in dataset.seen_ids for p in dataset.splits[d].testing]
        for p, dv in zip(test_pairs, CU.divergence_score_pairs(test_pairs, divergence)):
            p.d_score = float(dv)
        scored_tests_by_seed[seed] = test_pairs

    hp = cfg.training.hp
    ev = cfg.eval
    first = cfg.eval.seeds[0]
    dataset = dataset_by_seed[first]
    # each seed has its own dataset realization, so evaluate per seed and merge
    protocol = E.EvalReport()
    for seed in cfg.eval.seeds:
        part = E.run_protocol({seed: models_by_seed[seed]}, dataset_by_seed[seed],
                              hp, ev.beam_width, ev.max_steps)
        protocol.cells.extend(part.cells)
    swaps = []
    for part in ("encoder", "decoder"):
        for m in ("epi_curriculum", "agg"):
            if m in methods:
                r = E.swap_experiment(models_by_seed[first][m],
                                      specialists_by_seed[first], dataset, part,
                                      ev.experiment_beam_width, ev.max_steps)
                r.part = f"{part}:{m}"
                swaps.append(r)
    perturb = E.perturb_experiment(models_by_seed[first], dataset, ev.sigmas,
                                   ev.noise_seeds, ev.experiment_beam_width,
                                   ev.max_steps)
    bins = E.bin_report(models_by_seed[first], plan_by_seed[first].shard_thresholds,
                        scored_tests_by_seed[first], ev.experiment_beam_width,
                        ev.max_steps)
    out = _ensure(os.path.join(run_dir(cfg, first), "eval"))
    E.report_bundle_json(os.path.join(out, "report.json"), protocol, swaps,
                         perturb, bins,
                         meta={"config_hash": cfg.config_hash(),
                               "seeds": list(cfg.eval.seeds)})
    E.report_csv(os.path.join(out, "report.csv"), protocol)
    return {"protocol": protocol, "swaps": swaps, "perturb": perturb, "bins": bins,
            "denoise": denoise_by_seed[first], "report_dir": out}
