"""The stages of a run: data, score, train, finetune, evaluate and experiment.

Every stage is a function of (config, seed) that writes into a
config-hash-named run directory, so re-running a stage reproduces its
outputs byte for byte. This module is the only one that knows the layout:

    run-<config hash>-seed<seed>/
      data/   vocab.txt, manifest.json, domain_<d>.<split>.tsv
      score/  scored.tsv, plan.json, summary.json
      train/  <method>.model.json, <method>.provenance.json,
              <method>.ft_domain<d>.model.json
      eval/   report.json, report.csv
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import corpus as C
from . import curriculum as CU
from . import evaluate as E
from . import model as M
from . import trainers as TR
from .config import METHODS, RunConfig, UsageError

log = logging.getLogger(__name__)


class DependencyError(RuntimeError):
    pass


def run_dir(cfg: RunConfig, seed: int) -> str:
    return os.path.join(cfg.output_dir, f"run-{cfg.config_hash()}-seed{seed}")


def _stage_dir(cfg: RunConfig, seed: int, stage: str) -> str:
    path = os.path.join(run_dir(cfg, seed), stage)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# data


def gen_data(cfg: RunConfig, seed: int) -> tuple[M.Vocabulary, C.MultiDomainDataset, str]:
    vocab, dataset = C.build_dataset(cfg.dataset, seed)
    out = _stage_dir(cfg, seed, "data")
    vocab.save(os.path.join(out, "vocab.txt"))
    manifest = {"seed": seed, "config_hash": cfg.config_hash(), "domains": {}}
    for d, sp in sorted(dataset.splits.items()):
        for split_name, pairs in (("train", sp.training), ("finetune", sp.finetune),
                                  ("test", sp.testing)):
            C.save_tsv(pairs, os.path.join(out, f"domain_{d}.{split_name}.tsv"), vocab)
        manifest["domains"][str(d)] = {
            "kind": ("generic" if d == dataset.generic_id
                     else "seen" if d in dataset.seen_ids else "unseen"),
            "train_pairs": len(sp.training), "finetune_pairs": len(sp.finetune),
            "test_pairs": len(sp.testing),
            "noise_pairs": sum(1 for p in sp.training if p.is_noise)}
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return vocab, dataset, out


class Base(NamedTuple):
    """The data and the vanilla model that every later stage starts from."""
    vocab: M.Vocabulary
    dataset: C.MultiDomainDataset
    vanilla: M.EncoderDecoderModel
    vanilla_steps: int


def _base(cfg: RunConfig, seed: int) -> Base:
    vocab, dataset, _ = gen_data(cfg, seed)
    vanilla, curve = TR.pretrain_vanilla(dataset.splits[dataset.generic_id].training,
                                         replace(cfg.model, vocab_size=vocab.size),
                                         cfg.training.method_hp("vanilla", seed))
    return Base(vocab, dataset, vanilla, len(curve))


# ---------------------------------------------------------------------------
# scoring


def build_scorers(cfg: RunConfig, dataset: C.MultiDomainDataset,
                  vanilla: M.EncoderDecoderModel, seed: int):
    cu, batch_size = cfg.curriculum, cfg.training.hp.batch_size
    denoise = CU.build_denoise_scorer(vanilla, dataset, cu.scorer_steps, cu.scorer_lr,
                                      batch_size, seed) if cu.denoise else None
    generic_sources = [p.source for p in dataset.splits[dataset.generic_id].training]
    base_lm = CU.train_base_lm(vanilla.config, generic_sources, cu.lm_steps, cu.lm_lr,
                               batch_size,
                               np.random.default_rng(np.random.SeedSequence([seed, 41])))
    divergence = CU.build_divergence_scorer(base_lm, dataset, cu.div_steps,
                                            cu.div_lr, batch_size, seed)
    return denoise, divergence


def score(cfg: RunConfig, seed: int, base: Base | None = None):
    """Score, filter and shard the seen-domain training corpus; returns
    (plan, denoise scorer or None, divergence scorer). A caller that holds
    the seed's `Base` passes it in; otherwise it is built here."""
    vocab, dataset, vanilla, _ = base or _base(cfg, seed)
    denoise, divergence = build_scorers(cfg, dataset, vanilla, seed)
    pairs = dataset.all_seen_training()
    CU.score_corpus(pairs, denoise, divergence)
    kept = CU.filter_noise(pairs) if cfg.curriculum.denoise else list(pairs)
    plan = CU.build_plan(kept, cfg.curriculum.policy(), len(pairs) - len(kept))

    out = _stage_dir(cfg, seed, "score")
    C.save_scored_tsv(pairs, os.path.join(out, "scored.tsv"), vocab)
    CU.save_plan(plan, os.path.join(out, "plan.json"))
    _write_json(os.path.join(out, "summary.json"),
                {"scored": len(pairs), "kept": len(kept),
                 "filtered_count": plan.filtered_count,
                 "shard_sizes": [len(s) for s in plan.shards]})
    return plan, denoise, divergence


# ---------------------------------------------------------------------------
# training and fine-tuning


def _trainer(method: str):
    """(needs a plan, trainer) for a method name."""
    if method not in TR.TRAINERS:
        raise UsageError(f"unknown method '{method}'; valid methods: {', '.join(METHODS)}")
    return TR.TRAINERS[method]


def _checkpoint(cfg: RunConfig, seed: int, name: str) -> str:
    return os.path.join(run_dir(cfg, seed), "train", f"{name}.model.json")


def _load_trained(cfg: RunConfig, seed: int, method: str) -> M.EncoderDecoderModel:
    path = _checkpoint(cfg, seed, method)
    if not os.path.exists(path):
        raise DependencyError(f"missing checkpoint {path}; run 'train' first")
    return M.load_model(path)


def _train_method(cfg: RunConfig, method: str, seed: int, base: Base,
                  plan: CU.CurriculumPlan | None) -> M.EncoderDecoderModel:
    return _trainer(method)[1](base.vanilla, base.dataset, plan,
                               cfg.training.method_hp(method, seed))


def train(cfg: RunConfig, method: str, seed: int, build_deps: bool = True) -> str:
    """Train one method end to end and write its checkpoint; returns the path.

    Curriculum methods read `score/plan.json`; with `build_deps` a missing
    plan is built (an existing one is reused, never re-scored).
    """
    needs_plan = _trainer(method)[0]
    plan_path = os.path.join(run_dir(cfg, seed), "score", "plan.json")
    have_plan = os.path.exists(plan_path)
    if needs_plan and not (have_plan or build_deps):
        raise DependencyError(
            f"{method} requires a plan; run 'score' first or pass --build-deps")
    base = _base(cfg, seed)
    plan = None if not needs_plan else (
        CU.load_plan(plan_path) if have_plan else score(cfg, seed, base)[0])
    model = _train_method(cfg, method, seed, base, plan)
    out = _stage_dir(cfg, seed, "train")
    M.save_model(model, _checkpoint(cfg, seed, method))
    _write_json(os.path.join(out, f"{method}.provenance.json"),
                {"method": method, "seed": seed, "config_hash": cfg.config_hash(),
                 "vanilla_steps": base.vanilla_steps})
    return _checkpoint(cfg, seed, method)


def finetune(cfg: RunConfig, method: str, seed: int) -> str:
    """Fine-tune a trained checkpoint on each seen and unseen domain, as the
    protocol does; returns the directory of the `ft_domain` checkpoints."""
    _trainer(method)
    model = _load_trained(cfg, seed, method)
    _, dataset, _ = gen_data(cfg, seed)
    out = _stage_dir(cfg, seed, "train")
    for d in dataset.seen_ids + dataset.unseen_ids:
        adapted = TR.finetune(model, dataset.splits[d].finetune,
                              TR.protocol_hp(cfg.training.hp, seed, d))
        M.save_model(adapted, _checkpoint(cfg, seed, f"{method}.ft_domain{d}"))
    return out


# ---------------------------------------------------------------------------
# evaluation


def _write_report(cfg: RunConfig, seeds, protocol: E.EvalReport, *experiments) -> str:
    """eval/report.json and report.csv, in the first seed's run directory."""
    out = _stage_dir(cfg, seeds[0], "eval")
    E.report_bundle_json(os.path.join(out, "report.json"), protocol, *experiments,
                         meta={"config_hash": cfg.config_hash(), "seeds": list(seeds)})
    E.report_csv(os.path.join(out, "report.csv"), protocol)
    return out


def evaluate(cfg: RunConfig, seed: int) -> str:
    """The fine-tuning protocol over every configured method's checkpoint;
    returns the report directory."""
    models = {m: _load_trained(cfg, seed, m) for m in cfg.training.methods}
    _, dataset, _ = gen_data(cfg, seed)
    return _write_report(cfg, [seed], E.run_protocol(
        models, dataset, cfg.training.hp, seed, cfg.eval.beam_width, cfg.eval.max_steps))


def _experiments(cfg: RunConfig, seed: int, base: Base, plan: CU.CurriculumPlan,
                 divergence, models: dict):
    """Swap, perturbation and divergence bins on one seed's trained models."""
    ev, dataset = cfg.eval, base.dataset
    # standalone domain-specific models for the swap experiment
    specialists = {d: TR.train_agg(base.vanilla, dataset.splits[d].training,
                                   replace(cfg.training.hp, seed=seed * 100 + d))[0]
                   for d in dataset.seen_ids}
    swaps = []
    for part in ("encoder", "decoder"):
        for m in ("epi_curriculum", "agg"):
            if m in models:
                r = E.swap_experiment(models[m], specialists, dataset, part,
                                      ev.experiment_beam_width, ev.max_steps)
                r.part = f"{part}:{m}"
                swaps.append(r)
    perturb = E.perturb_experiment(models, dataset, ev.sigmas, ev.noise_seeds,
                                   ev.experiment_beam_width, ev.max_steps)
    # divergence-score the seen-domain test sets for binning
    test_pairs = [p for d in dataset.seen_ids for p in dataset.splits[d].testing]
    for p, dv in zip(test_pairs, CU.divergence_score_pairs(test_pairs, divergence)):
        p.d_score = float(dv)
    bins = E.bin_report(models, plan.shard_thresholds, test_pairs,
                        ev.experiment_beam_width, ev.max_steps)
    return swaps, perturb, bins


def experiment(cfg: RunConfig) -> dict:
    """Train every configured method and run the fine-tuning protocol per eval
    seed; swap, perturbation and bins (and the returned denoise scorer) cover
    the first eval seed only."""
    ev = cfg.eval
    protocol = E.EvalReport()
    for seed in ev.seeds:
        base = _base(cfg, seed)
        plan, denoise, divergence = score(cfg, seed, base)
        models = {}
        for m in cfg.training.methods:
            log.info("training %s (seed %d)", m, seed)
            models[m] = _train_method(cfg, m, seed, base, plan)
        # each seed has its own dataset realization, so evaluate per seed and merge
        protocol.cells.extend(E.run_protocol(models, base.dataset, cfg.training.hp, seed,
                                             ev.beam_width, ev.max_steps).cells)
        if seed == ev.seeds[0]:
            first_denoise = denoise
            swaps, perturb, bins = _experiments(cfg, seed, base, plan, divergence, models)
    out = _write_report(cfg, ev.seeds, protocol, swaps, perturb, bins)
    return {"protocol": protocol, "swaps": swaps, "perturb": perturb, "bins": bins,
            "denoise": first_denoise, "report_dir": out}
