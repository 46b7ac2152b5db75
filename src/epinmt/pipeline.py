"""The stages of a run: data, score, train, finetune, evaluate and experiment.

Each stage is a function of (config, seed) that writes the same files into
that pair's run directory, whichever command runs it; re-running a stage
reproduces them byte for byte. This module alone knows the layout:

    run-<config hash>-seed<seed>/
      data/   vocab.txt, manifest.json, domain_<d>.<split>.tsv
      base/   vanilla.model.json, summary.json (its record)
      score/  scored.tsv, plan.json, summary.json (the plan's record)
      train/  <method>.model.json, <method>.provenance.json (its record),
              <method>.ft_domain<d>.model.json
      eval/   protocol.json, protocol.csv (eval); report.json, report.csv (experiment)

Three stage files are read back: the vanilla model, the plan (the shards and
the scored seen test pairs) and each method's checkpoint. Each is computed
only when it is not current: when its record (the JSON written after it)
does not name this config hash, seed, package source and numpy version and
the file's sha256 (`_stale`). Delete a file to have it computed again;
`finetune` and `eval` refuse a checkpoint that is not current, as `train`
without `--build-deps` refuses a plan. The config hash leaves out `eval`, so
eval/ holds the latest reports, their eval settings in `meta`. `gen-data`
always writes data/, a later command only when it computes base/.

`experiment` and `finetune` run their independent tasks in a process pool
with at most one worker per core this process may run on (an episodic
training adds one process for its specialists, see `trainers.epi_train`);
each task receives its inputs as arguments and results merge in a fixed
order, so the outputs do not depend on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import cache, partial
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import corpus as C
from . import curriculum as CU
from . import evaluate as E
from . import model as M
from . import trainers as TR
from .config import METHODS, RunConfig
from .errors import DataError, InternalError, UsageError

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

log = logging.getLogger(__name__)


def run_dir(cfg: RunConfig, seed: int) -> str:
    return os.path.join(cfg.output_dir, f"run-{cfg.config_hash()}-seed{seed}")


def _stage_dir(cfg: RunConfig, seed: int, stage: str) -> str:
    path = os.path.join(run_dir(cfg, seed), stage)
    os.makedirs(path, exist_ok=True)
    return path


def _write_whole(path: str, write) -> None:
    """write(a temporary path), then move that file to `path` in one step, or
    remove it if the write fails: a later command finds the whole file or
    none, also when another process writes the same one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_json(path: str, payload: dict) -> None:
    def dump(tmp):
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
    _write_whole(path, dump)


def _load_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@cache
def _source_digest() -> str:
    """The sha256 of each package .py file's name and sha256, in name order."""
    here = os.path.dirname(os.path.abspath(__file__))
    return hashlib.sha256("".join(f"{n} {_sha256(os.path.join(here, n))}\n" for n in sorted(
        os.listdir(here)) if n.endswith(".py")).encode()).hexdigest()


def _record(cfg: RunConfig, seed: int, path: str, **counts) -> dict:
    """`path`'s record: the stage's counts, what names the computation that
    wrote it (config hash, seed, source, numpy) and its sha256."""
    return {**counts, "config_hash": cfg.config_hash(), "seed": seed,
            "source": _source_digest(), "numpy": np.__version__, "sha256": _sha256(path)}


@contextmanager
def _stale(label: str, cfg: RunConfig, seed: int, record: str, path: str):
    """Yields None when `path` is current, `record` being its `_record` now,
    else why not: "missing", "stale (<first field that differs>)" or "damaged"
    (a record that does not parse, or a file it does not name). The block
    loads or computes `path`; that is logged with its wall time."""
    start, why = time.perf_counter(), "damaged"
    try:
        held, now = _load_json(record), _record(cfg, seed, path)
        field = next((k for k, v in now.items() if held.get(k) != v), None)
        why = field and ("damaged" if field == "sha256" else f"stale ({field})")
    except FileNotFoundError:
        why = "missing"
    except (ValueError, AttributeError):   # cut short, or not a JSON object
        pass
    yield why
    how = "reused" if why is None else "computed" if why == "missing" else f"{why}, recomputed"
    log.info("%s: %s in %.2f s", label, how, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the task runner


def _workers() -> int:
    """The most workers a pool gets: the number of cores this process may
    run on."""
    return len(os.sched_getaffinity(0))


@contextmanager
def _pool(tasks: int):
    """A process pool for `_submit`, with a worker per core but no more than
    the `tasks` that can run at once. Workers fork from the caller, which has
    numpy loaded already (a spawned worker would import it again); all of
    them fork at the first submit, before the pool starts its management
    thread.

    A task's arguments are pickled when the pool moves it to a worker, not
    at submit, so the caller must not change an argument until that task's
    result is back."""
    # imported here, so that `import epinmt.cli`, which every command pays,
    # does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(min(_workers(), tasks),
                               mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _labelled(label: str, fn, *args):
    """fn(*args); an InternalError it raises (a broken contract, a shape or
    length mismatch, a non-finite loss) is re-raised with `label` (which
    names the task's method and seed) in front of its message."""
    try:
        return fn(*args)
    except InternalError as e:
        raise InternalError(f"{label}: {e}") from e


def _submit(pool: ProcessPoolExecutor, tasks) -> list[tuple[str, Future]]:
    """Queue (label, fn, *args) tasks on the pool, in order, as (label, future) pairs."""
    return [(task[0], pool.submit(_labelled, *task)) for task in tasks]


def _results(futures: list[tuple[str, Future]]) -> list:
    """The tasks' results in task order; a failed task's exception is raised
    here with its own type, and the first lost one as an InternalError naming it."""
    from concurrent.futures import BrokenExecutor   # loaded by _pool already
    try:
        return [f.result() for _, f in futures]
    except BrokenExecutor as e:   # every task before the lost one has returned
        lost = next(label for label, f in futures if f.exception())
        raise InternalError(f"{lost}: its worker process died ({e})") from None


# ---------------------------------------------------------------------------
# data


def gen_data(cfg: RunConfig, seed: int) -> tuple[M.Vocabulary, C.MultiDomainDataset, str]:
    vocab, dataset = C.build_dataset(cfg.dataset, seed)
    out = _stage_dir(cfg, seed, "data")
    _write_whole(os.path.join(out, "vocab.txt"), vocab.save)
    manifest = {"seed": seed, "config_hash": cfg.config_hash(), "domains": {}}
    for d, sp in sorted(dataset.splits.items()):
        for split_name, pairs in (("train", sp.training), ("finetune", sp.finetune),
                                  ("test", sp.testing)):
            _write_whole(os.path.join(out, f"domain_{d}.{split_name}.tsv"),
                         partial(C.save_tsv, pairs, vocab=vocab))
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


def _base(cfg: RunConfig, seed: int) -> Base:
    """The seed's data, and its vanilla model: loaded from base/ when it is
    current there, else pretrained and written there (float64 values
    round-trip exactly, so both give the same model). data/ is written only
    with a new base/."""
    out = _stage_dir(cfg, seed, "base")
    path, summary = (os.path.join(out, name) for name in ("vanilla.model.json",
                                                           "summary.json"))
    with _stale(f"base (seed {seed})", cfg, seed, summary, path) as why:
        if why is None:
            return Base(*C.build_dataset(cfg.dataset, seed), M.load_model(path))
        vocab, dataset, _ = gen_data(cfg, seed)
        vanilla, curve = _labelled(f"vanilla pretraining (seed {seed})", TR.pretrain_vanilla,
                                   dataset.splits[dataset.generic_id].training,
                                   replace(cfg.model, vocab_size=vocab.size),
                                   cfg.training.method_hp("vanilla", seed))
        _write_whole(path, partial(M.save_model, vanilla))
        _write_json(summary, _record(cfg, seed, path, vanilla_steps=len(curve)))
    return Base(vocab, dataset, vanilla)


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
    """Score, filter and shard the seen-domain training corpus, and score the
    seen test pairs for the bins study; returns (plan, denoise scorer or None,
    divergence scorer). Without the seed's `Base` it builds one."""
    vocab, dataset, vanilla = base or _base(cfg, seed)
    denoise, divergence = build_scorers(cfg, dataset, vanilla, seed)
    pairs = dataset.all_seen_training()
    CU.score_corpus(pairs, denoise, divergence)
    kept = CU.filter_noise(pairs) if cfg.curriculum.denoise else list(pairs)
    plan = CU.build_plan(kept, cfg.curriculum.policy(), len(pairs) - len(kept))
    plan.test_pairs = CU.score_corpus([p for d in dataset.seen_ids
                                       for p in dataset.splits[d].testing], None, divergence)

    out = _stage_dir(cfg, seed, "score")
    _write_whole(os.path.join(out, "scored.tsv"),
                 partial(C.save_scored_tsv, pairs, vocab=vocab))
    plan_path = os.path.join(out, "plan.json")
    _write_whole(plan_path, partial(CU.save_plan, plan))
    _write_json(os.path.join(out, "summary.json"), _record(
        cfg, seed, plan_path, scored=len(pairs), kept=len(kept),
        filtered_count=plan.filtered_count, shard_sizes=[len(s) for s in plan.shards]))
    return plan, denoise, divergence


# ---------------------------------------------------------------------------
# training and fine-tuning


def _trainer(cfg: RunConfig, method: str):
    """(needs a plan, trainer) for a method name that the config's data can train."""
    if method not in TR.TRAINERS:
        raise UsageError(f"unknown method '{method}'; valid methods: {', '.join(METHODS)}")
    if method in TR.EPISODIC and cfg.dataset.n_seen < 2:
        raise UsageError(f"{method} pairs each seen domain with another, so it needs "
                         f"dataset.n_seen >= 2, got {cfg.dataset.n_seen}")
    return TR.TRAINERS[method]


def _checkpoint(cfg: RunConfig, seed: int, name: str, kind: str = "model") -> str:
    return os.path.join(run_dir(cfg, seed), "train", f"{name}.{kind}.json")


def _load_trained(cfg: RunConfig, seed: int, method: str, base: Base | None = None,
                  plan: CU.CurriculumPlan | None = None) -> M.EncoderDecoderModel:
    """`method`'s checkpoint when it is current; else trained from `base` (and
    `plan`) and written, or without a `base` a data error naming it."""
    path = _checkpoint(cfg, seed, method)
    with _stale(f"train/{method} (seed {seed})", cfg, seed,
                _checkpoint(cfg, seed, method, "provenance"), path) as why:
        if why and not base:
            raise DataError(f"{why} checkpoint {path}; run 'train --method {method}' first")
        return _train_method(cfg, method, seed, base, plan) if why else M.load_model(path)


def _train_method(cfg: RunConfig, method: str, seed: int, base: Base,
                  plan: CU.CurriculumPlan | None) -> M.EncoderDecoderModel:
    model = _trainer(cfg, method)[1](base.vanilla, base.dataset, plan,
                                     cfg.training.method_hp(method, seed))
    path = _checkpoint(cfg, seed, method)
    _stage_dir(cfg, seed, "train")
    _write_whole(path, partial(M.save_model, model))
    _write_json(_checkpoint(cfg, seed, method, "provenance"),
                _record(cfg, seed, path, method=method))
    return model


def _plan(cfg: RunConfig, seed: int, base: Base, build: bool) -> CU.CurriculumPlan:
    """The seed's `score/plan.json` when it is current; else, with `build`,
    scored from `base` and written, and without it a data error naming it."""
    path, record = (os.path.join(run_dir(cfg, seed), "score", name)
                    for name in ("plan.json", "summary.json"))
    with _stale(f"score (seed {seed})", cfg, seed, record, path) as why:
        if why and not build:
            raise DataError(f"{path} is {why}; run 'score' first or pass --build-deps")
        return score(cfg, seed, base)[0] if why else CU.load_plan(path)


def planned_base(cfg: RunConfig, seed: int) -> tuple[Base, CU.CurriculumPlan]:
    """The seed's `Base` and its plan, scored only when it is not current."""
    base = _base(cfg, seed)
    return base, _plan(cfg, seed, base, True)


def train(cfg: RunConfig, method: str, seed: int, build_deps: bool = True) -> str:
    """Train one method unless its checkpoint is current; returns its path. A
    curriculum method's plan is `_plan`'s, which scores only with `build_deps`."""
    needs_plan, base = _trainer(cfg, method)[0], _base(cfg, seed)
    plan = _plan(cfg, seed, base, build_deps) if needs_plan else None
    _labelled(f"{method} (seed {seed})", _load_trained, cfg, seed, method, base, plan)
    return _checkpoint(cfg, seed, method)


def _finetune_domain(cfg: RunConfig, method: str, seed: int, model: M.EncoderDecoderModel,
                     dataset: C.MultiDomainDataset, d: int) -> None:
    _write_whole(_checkpoint(cfg, seed, f"{method}.ft_domain{d}"),
                 partial(M.save_model, E.adapted(model, dataset, cfg.training.hp, seed, d)))


def finetune(cfg: RunConfig, method: str, seed: int) -> str:
    """Fine-tune a trained checkpoint on each seen and unseen domain, as the
    protocol does; returns the directory of the `ft_domain` checkpoints."""
    _trainer(cfg, method)
    model = _load_trained(cfg, seed, method)
    _, dataset = C.build_dataset(cfg.dataset, seed)
    out = _stage_dir(cfg, seed, "train")
    domains = dataset.seen_ids + dataset.unseen_ids
    with _pool(len(domains)) as pool:
        _results(_submit(pool, [(f"{method} fine-tuned on domain {d} (seed {seed})",
                                 _finetune_domain, cfg, method, seed, model, dataset, d)
                                for d in domains]))
    return out


# ---------------------------------------------------------------------------
# evaluation


def _write_report(cfg: RunConfig, seeds, stem: str, protocol: list[dict], *studies) -> str:
    """eval/<stem>.json, the eval settings in its meta, and <stem>.csv, in the
    first seed's run directory."""
    out = _stage_dir(cfg, seeds[0], "eval")
    meta = {"config_hash": cfg.config_hash(), "seeds": list(seeds), "eval": asdict(cfg.eval)}
    _write_whole(os.path.join(out, f"{stem}.json"), lambda tmp: E.report_bundle_json(
        tmp, protocol, *studies, meta=meta))
    _write_whole(os.path.join(out, f"{stem}.csv"), partial(E.report_csv, protocol=protocol))
    return out


def evaluate(cfg: RunConfig, seed: int) -> str:
    """The fine-tuning protocol over every configured method's checkpoint;
    returns the report directory."""
    models = {m: _load_trained(cfg, seed, m) for m in cfg.training.methods}
    _, dataset = C.build_dataset(cfg.dataset, seed)
    return _write_report(cfg, [seed], "protocol", E.run_protocol(
        models, dataset, cfg.training.hp, seed, cfg.eval.beam_width, cfg.eval.max_steps))


def _trained(cfg: RunConfig, method: str, seed: int, base: Base,
             plan: CU.CurriculumPlan) -> tuple[M.EncoderDecoderModel, list[dict]]:
    """One method on one seed, from `_load_trained`, and its protocol rows."""
    model = _load_trained(cfg, seed, method, base, plan)
    return model, E.run_protocol({method: model}, base.dataset, cfg.training.hp, seed,
                                 cfg.eval.beam_width, cfg.eval.max_steps)


def _swap_study(cfg: RunConfig, seed: int, base: Base, grafted: dict, beam_width: int,
                max_steps: int) -> list[dict]:
    """The seed's swap study, after training its specialist for each seen
    domain d (agg on d alone, seed `seed * 100 + d`) if anything is grafted."""
    specialists = {d: TR.train_agg(base.vanilla, base.dataset.splits[d].training,
                                   replace(cfg.training.hp, seed=seed * 100 + d))[0]
                   for d in (base.dataset.seen_ids if grafted else ())}
    return E.swap_experiment(grafted, specialists, base.dataset, beam_width, max_steps)


def _tagged(seed: int, study, *args) -> list[dict]:
    """study(*args)'s rows (the bins' dict is one row), tagged with the eval seed."""
    rows = study(*args)
    return [{**row, "seed": seed} for row in (rows if isinstance(rows, list) else [rows])]


def experiment(cfg: RunConfig) -> str:
    """Train every configured method, and run the fine-tuning protocol, swap
    study, perturbation and bins, on every eval seed; returns the report directory.

    Pool tasks: first each seed's scoring (data, vanilla and plan); then, in
    seed order, as soon as that seed's scoring is back, its trainings
    (written to train/ as `train` writes it) and protocol, the episodic
    methods first; then per seed, once its models are back, its swap study,
    perturbation and bins. Rows merge in seed order.
    """
    ev, methods = cfg.eval, sorted(cfg.training.methods)
    for m in methods:
        _trainer(cfg, m)
    grafts = [m for m in ("epi_curriculum", "agg") if m in methods]   # for the swap study
    order = sorted(methods, key=lambda m: m not in TR.EPISODIC)
    width, steps = ev.experiment_beam_width, ev.max_steps
    with _pool(len(ev.seeds) * max(len(order), 3)) as pool:
        planned, trained = {}, {}
        for s, scoring in zip(ev.seeds, _submit(pool, [
                (f"scoring (seed {s})", planned_base, cfg, s) for s in ev.seeds])):
            planned[s], = _results([scoring])
            trained |= {(m, s): task for m, task in zip(order, _submit(pool, [
                (f"{m} (seed {s})", _trained, cfg, m, s, *planned[s]) for m in order]))}
        protocol, experiments = [], []
        for s in ev.seeds:
            base, plan = planned[s]
            results = _results([trained[m, s] for m in methods])
            models = {m: model for m, (model, _) in zip(methods, results)}
            protocol += [row for _, rows in results for row in rows]
            experiments.append(_submit(pool, [
                (f"swap study (seed {s})", _tagged, s, _swap_study, cfg, s, base,
                 {m: models[m] for m in grafts}, width, steps),
                (f"perturbation (seed {s})", _tagged, s, E.perturb_experiment, models,
                 base.dataset, ev.sigmas, ev.noise_seeds, width, steps),
                (f"divergence bins (seed {s})", _tagged, s, E.bin_report, models,
                 plan.shard_thresholds, plan.test_pairs, width, steps)]))
        studies = [sum(rows, []) for rows in zip(*map(_results, experiments))]
    return _write_report(cfg, ev.seeds, "report", protocol, *studies)
