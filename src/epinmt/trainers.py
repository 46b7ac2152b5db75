"""Training procedures: the episodic framework and the full comparison group.

All trainers start from the Vanilla checkpoint (pre-trained on the generic
domain) and are deterministic given their seed. Parameter updates are plain
SGD; the episodic update sums the gradients of the aggregation loss and the
episodic loss before a single step per module.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import SentencePair, MultiDomainDataset
from .curriculum import CurriculumPlan, pairs_nll, sample_batch, stage_of, uniform_plan

log = logging.getLogger(__name__)


@dataclass
class Hyperparams:
    alpha: float = 3e-3          # aggregation / episodic / outer lr
    beta: float = 5e-3           # domain-specific / inner lr
    epochs: int = 3
    batch_size: int = 8
    seed: int = 0
    finetune_epochs: int = 5
    finetune_lr: float | None = None   # defaults to alpha
    episodes: int | None = None        # overrides epochs for episodic trainers

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epochs and finetune_epochs must be >= 0")
        if self.episodes is not None and self.episodes < 1:
            raise ValueError(f"episodes must be None or >= 1, got {self.episodes}")

    @property
    def ft_lr(self) -> float:
        return self.alpha if self.finetune_lr is None else self.finetune_lr


@dataclass
class EpisodeRecord:
    episode: int
    stage: int
    domain_i: int
    partner_k: int
    loss_agg: float
    loss_spec: float
    loss_enc: float
    loss_dec: float


@dataclass
class EpisodicState:
    agg: M.EncoderDecoderModel
    specialists: dict[int, M.EncoderDecoderModel]
    plan: CurriculumPlan
    hp: Hyperparams
    progress: int = 0
    episode_log: list[EpisodeRecord] = field(default_factory=list)


def _rng(seed: int, *keys: int):
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def _sgd_model(model: M.EncoderDecoderModel, lr: float) -> None:
    T.sgd_step(model.encoder, lr)
    T.sgd_step(model.decoder, lr)


def _fit(model: M.EncoderDecoderModel, batches, lr: float) -> list[float]:
    """Plain nll training of both modules; returns the per-step loss curve."""
    return T.sgd_loop([model.encoder, model.decoder], partial(pairs_nll, model), batches, lr)


def _epoch_batches(pairs: list[SentencePair], epochs: int, batch_size: int, rng):
    """Shuffled minibatches, one fresh permutation per epoch."""
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), batch_size):
            yield [pairs[i] for i in order[start:start + batch_size]]


def _curriculum_batches(plan: CurriculumPlan, total: int, batch_size: int, rng):
    """`total` batches from the scheduler, at the stage of each step's progress."""
    for step in range(total):
        yield sample_batch(plan, stage_of(step / total, plan.policy), batch_size, rng)


def pretrain_vanilla(generic_pairs: list[SentencePair], cfg: M.ModelConfig,
                     hp: Hyperparams) -> tuple[M.EncoderDecoderModel, list[float]]:
    """Train the pre-training surrogate on the generic domain from scratch."""
    if not generic_pairs:
        raise ValueError("empty generic corpus")
    model = M.init_model(cfg, _rng(hp.seed, 1))
    curve = _fit(model, _epoch_batches(generic_pairs, hp.epochs, hp.batch_size,
                                       _rng(hp.seed, 2)), hp.alpha)
    return model, curve


def train_agg(vanilla: M.EncoderDecoderModel, pairs: list[SentencePair],
              hp: Hyperparams) -> tuple[M.EncoderDecoderModel, list[float]]:
    """Continue Vanilla on the union of all seen training corpora."""
    model = vanilla.copy()
    curve = _fit(model, _epoch_batches(pairs, hp.epochs, hp.batch_size, _rng(hp.seed, 3)),
                 hp.alpha)
    return model, curve


def train_agg_curriculum(vanilla: M.EncoderDecoderModel, plan: CurriculumPlan,
                         hp: Hyperparams) -> tuple[M.EncoderDecoderModel, list[float]]:
    """AGG trained through the curriculum scheduler instead of shuffling."""
    model = vanilla.copy()
    total = _total_steps(sum(len(s) for s in plan.shards), hp)
    curve = _fit(model, _curriculum_batches(plan, total, hp.batch_size, _rng(hp.seed, 4)),
                 hp.alpha)
    return model, curve


def _total_steps(n_pairs: int, hp: Hyperparams) -> int:
    """`episodes` when set, else `epochs` passes over n_pairs (at least 1 step)."""
    if hp.episodes is not None:
        return hp.episodes
    return max(1, hp.epochs * max(1, n_pairs // hp.batch_size))


# ---------------------------------------------------------------------------
# episodic framework


def init_state(vanilla: M.EncoderDecoderModel, seen_ids: list[int],
               plan: CurriculumPlan, hp: Hyperparams) -> EpisodicState:
    """Aggregation model and every specialist start from the Vanilla checkpoint."""
    return EpisodicState(
        agg=vanilla.copy(),
        specialists={d: vanilla.copy() for d in seen_ids},
        plan=plan, hp=hp)


def specialist_step(state: EpisodicState, i: int, batch: list[SentencePair]) -> float:
    """One SGD step of specialist i on its own-domain batch at lr beta."""
    if any(p.domain_id != i for p in batch):
        raise T.ContractError(f"specialist_step: batch contains foreign domain pairs "
                              f"(expected domain {i})")
    spec = state.specialists[i]
    loss = pairs_nll(spec, batch)
    T.backward(loss)
    _sgd_model(spec, state.hp.beta)
    return loss.item()


def _pick_partner(state: EpisodicState, i: int, rng) -> int:
    others = [d for d in state.specialists if d != i]
    if not others:
        raise ValueError("episodic training needs at least 2 seen domains")
    return int(others[rng.integers(0, len(others))])


def _episodic_backward(state: EpisodicState, part: str, batch: list[SentencePair],
                       k: int) -> float:
    """Accumulate grad of the episodic loss of the agg `part` ("encoder" or
    "decoder") into it, paired with partner k's other module.

    The partner module runs frozen: gradient flows through it into the agg
    module but its own parameters receive none.
    """
    agg, partner = state.agg, state.specialists[k]
    if part == "encoder":
        hybrid = M.EncoderDecoderModel(agg.config, agg.encoder, partner.decoder.frozen_view())
    else:
        hybrid = M.EncoderDecoderModel(agg.config, partner.encoder.frozen_view(), agg.decoder)
    loss = pairs_nll(hybrid, batch)
    T.backward(loss)
    return loss.item()


def episodic_encoder_step(state: EpisodicState, i: int, batch: list[SentencePair],
                          rng) -> float:
    """Standalone episodic encoder update: theta <- theta - alpha * grad(L_enc)."""
    loss = _episodic_backward(state, "encoder", batch, _pick_partner(state, i, rng))
    T.sgd_step(state.agg.encoder, state.hp.alpha)
    return loss


def episodic_decoder_step(state: EpisodicState, i: int, batch: list[SentencePair],
                          rng) -> float:
    """Standalone episodic decoder update: phi <- phi - alpha * grad(L_dec)."""
    loss = _episodic_backward(state, "decoder", batch, _pick_partner(state, i, rng))
    T.sgd_step(state.agg.decoder, state.hp.alpha)
    return loss


def epi_train(state: EpisodicState) -> tuple[M.EncoderDecoderModel, list[EpisodeRecord]]:
    """The full episodic training policy.

    Per episode: round-robin source domain i; every specialist takes one step
    on its own-domain batch; then the aggregation model takes one summed
    update per module, theta from grad(L_agg + L_enc) and phi from
    grad(L_agg + L_dec), with a single partner k != i for both episodic
    losses. Batches come from the plan's scheduler at the current stage.
    """
    hp = state.hp
    seen = sorted(state.specialists)
    rng = _rng(hp.seed, 5)
    total = _total_steps(sum(len(s) for s in state.plan.shards), hp)
    for ep in range(total):
        stage = stage_of(ep / total, state.plan.policy)
        i = seen[ep % len(seen)]
        spec_loss = 0.0
        for j in seen:
            batch_j = sample_batch(state.plan, stage, hp.batch_size, rng, domain_id=j)
            lj = specialist_step(state, j, batch_j)
            if j == i:
                spec_loss = lj
        k = _pick_partner(state, i, rng)
        batch_i = sample_batch(state.plan, stage, hp.batch_size, rng, domain_id=i)
        loss_agg = pairs_nll(state.agg, batch_i)
        T.backward(loss_agg)
        l_enc = _episodic_backward(state, "encoder", batch_i, k)
        l_dec = _episodic_backward(state, "decoder", batch_i, k)
        losses = (loss_agg.item(), spec_loss, l_enc, l_dec)
        if not all(math.isfinite(v) for v in losses):
            raise T.ContractError(
                f"non-finite loss at episode {ep}: L_agg, L_i, L_enc, L_dec = {losses}")
        T.sgd_step(state.agg.encoder, hp.alpha)
        T.sgd_step(state.agg.decoder, hp.alpha)
        state.episode_log.append(EpisodeRecord(ep, stage, i, k, *losses))
        state.progress = ep + 1
    return state.agg, state.episode_log


def train_epi(vanilla: M.EncoderDecoderModel, plan: CurriculumPlan,
              seen_ids: list[int], hp: Hyperparams) -> EpisodicState:
    """Convenience wrapper: build the state and run the episodic loop.

    With a sharded plan this is the curriculum variant; pass a uniform plan
    for the plain episodic variant.
    """
    state = init_state(vanilla, seen_ids, plan, hp)
    epi_train(state)
    return state


def train_epi_nmt(vanilla, training_pairs: list[SentencePair], seen_ids, hp):
    return train_epi(vanilla, uniform_plan(training_pairs), seen_ids, hp)


# ---------------------------------------------------------------------------
# first-order MAML baseline


def maml_train(vanilla: M.EncoderDecoderModel,
               domain_pairs: dict[int, list[SentencePair]],
               hp: Hyperparams) -> M.EncoderDecoderModel:
    """First-order MAML: inner step at beta on a support batch, outer update
    applies the query gradient evaluated at the adapted parameters to the
    original parameters at alpha."""
    if not domain_pairs:
        raise ValueError("maml_train needs at least one domain")
    model = vanilla.copy()
    rng = _rng(hp.seed, 6)
    domains = sorted(domain_pairs)
    total = _total_steps(sum(len(v) for v in domain_pairs.values()), hp)
    for _ in range(total):
        d = domains[int(rng.integers(0, len(domains)))]
        pool = domain_pairs[d]
        support = [pool[int(rng.integers(0, len(pool)))] for _ in range(hp.batch_size)]
        query = [pool[int(rng.integers(0, len(pool)))] for _ in range(hp.batch_size)]
        adapted = model.copy()
        T.backward(pairs_nll(adapted, support))
        _sgd_model(adapted, hp.beta)
        T.backward(pairs_nll(adapted, query))
        for ps, aps in ((model.encoder, adapted.encoder), (model.decoder, adapted.decoder)):
            for name, p in ps.items():
                g = aps[name].grad
                if g is None:
                    raise T.ContractError(f"maml_train: no query gradient for '{name}'")
                p.data -= hp.alpha * g
    return model


# ---------------------------------------------------------------------------
# fine-tuning


def finetune(model: M.EncoderDecoderModel, pairs: list[SentencePair],
             hp: Hyperparams) -> M.EncoderDecoderModel:
    """Per-domain adaptation on a copy; the input model is left untouched."""
    if not pairs:
        raise ValueError("empty fine-tuning split")
    adapted = model.copy()
    _fit(adapted, _epoch_batches(pairs, hp.finetune_epochs, hp.batch_size, _rng(hp.seed, 8)),
         hp.ft_lr)
    return adapted


def write_episode_log(records: list[EpisodeRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["episode", "stage", "domain_i", "partner_k",
                    "L_agg", "L_i", "L_enc", "L_dec"])
        for r in records:
            w.writerow([r.episode, r.stage, r.domain_i, r.partner_k,
                        r.loss_agg, r.loss_spec, r.loss_enc, r.loss_dec])


# ---------------------------------------------------------------------------
# method registry

# method -> (needs a curriculum plan, trainer(vanilla, dataset, plan, hp) -> model);
# the order is the default method order of a run
TRAINERS = {
    "vanilla": (False, lambda vanilla, ds, plan, hp: vanilla),
    "agg": (False, lambda vanilla, ds, plan, hp:
            train_agg(vanilla, ds.all_seen_training(), hp)[0]),
    "agg_curriculum": (True, lambda vanilla, ds, plan, hp:
                       train_agg_curriculum(vanilla, plan, hp)[0]),
    "meta_mt": (False, lambda vanilla, ds, plan, hp: maml_train(
        vanilla, {d: ds.splits[d].training for d in ds.seen_ids}, hp)),
    "epi_nmt": (False, lambda vanilla, ds, plan, hp:
                train_epi_nmt(vanilla, ds.all_seen_training(), ds.seen_ids, hp).agg),
    "epi_curriculum": (True, lambda vanilla, ds, plan, hp:
                       train_epi(vanilla, plan, ds.seen_ids, hp).agg),
}
