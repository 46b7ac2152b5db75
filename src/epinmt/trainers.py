"""Training procedures: the episodic framework and the full comparison group.

All trainers start from the Vanilla checkpoint (pre-trained on the generic
domain) and are deterministic given their seed. Parameter updates are plain
SGD; the episodic update sums the gradients of the aggregation loss and the
episodic loss before a single step per module.
"""

from __future__ import annotations

import csv
import math
import signal
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import SentencePair
from .curriculum import CurriculumPlan, pairs_nll, sample_batch, stage_of, uniform_plan
from .errors import DataError, InternalError, at_least


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
        at_least(self, alpha=0, beta=0, finetune_lr=0, batch_size=1, epochs=0,
                 finetune_epochs=0, episodes=1)

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
        raise InternalError(f"specialist_step: batch contains foreign domain pairs "
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


class _Episode(NamedTuple):
    """One episode's draws: its stage, source domain i, one batch per seen
    domain for the specialists (in sorted domain order), partner k and the
    aggregation model's batch from domain i."""
    stage: int
    i: int
    spec_batches: list[list[SentencePair]]
    k: int
    batch_i: list[SentencePair]


# The pipe from the specialists' process holds this many bytes, Linux's
# default pipe-max-size: about 9 episodes' messages at the lab shape, where
# the default 64 KiB holds less than one and the stream waits on the
# aggregation model every episode: on a 2-core Xeon VM, the episodic benchmark
# took a median 0.455 s against 0.371 s without the wider pipe (6 of 6 pairs).
STREAM_PIPE_BYTES = 1 << 20


def _draw_episodes(state: EpisodicState) -> list[_Episode]:
    """Every episode's batches and partner, drawn from the one rng in the
    order of the episodic loop; a domain missing from some shard warns once
    per call, not once per batch, and one missing from every shard (the
    noise filter dropped all its pairs) is a data error."""
    hp = state.hp
    seen = sorted(state.specialists)
    emptied = [str(d) for d in seen if not any(state.plan.domain_shards(d))]
    if emptied:
        raise DataError(f"seen domain(s) {', '.join(emptied)} kept no training pair after "
                        f"the noise filter ({state.plan.filtered_count} filtered as noise), "
                        f"and episodic training draws a batch of every seen domain")
    rng = _rng(hp.seed, 5)
    warned: set[int] = set()
    total = _total_steps(sum(len(s) for s in state.plan.shards), hp)
    episodes = []
    for ep in range(total):
        stage = stage_of(ep / total, state.plan.policy)
        i = seen[ep % len(seen)]
        spec_batches = [sample_batch(state.plan, stage, hp.batch_size, rng, domain_id=j,
                                     warned=warned) for j in seen]
        k = _pick_partner(state, i, rng)
        batch_i = sample_batch(state.plan, stage, hp.batch_size, rng, domain_id=i,
                               warned=warned)
        episodes.append(_Episode(stage, i, spec_batches, k, batch_i))
    return episodes


def _params(model: M.EncoderDecoderModel) -> list[T.Tensor]:
    return [*model.encoder.values(), *model.decoder.values()]


def _arrays(model: M.EncoderDecoderModel) -> list[np.ndarray]:
    return [p.data for p in _params(model)]


def _install(model: M.EncoderDecoderModel, arrays: list[np.ndarray]) -> None:
    for p, a in zip(_params(model), arrays, strict=True):
        p.data = a


def _specialist_stream(state: EpisodicState, episodes: list[_Episode], reader, writer) -> None:
    """The specialists' side of `epi_train`, in its own process: every
    specialist's step of each episode, then (L_i, partner k's arrays) down
    the pipe; at the end every specialist's arrays. An exception goes down
    the pipe in place of the next message."""
    reader.close()   # else a caller that is gone leaves `send` blocked forever
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # Ctrl-C is the caller's to handle
    seen = sorted(state.specialists)
    try:
        for e in episodes:
            losses = [specialist_step(state, j, b) for j, b in zip(seen, e.spec_batches)]
            writer.send((losses[seen.index(e.i)], _arrays(state.specialists[e.k])))
        writer.send([_arrays(state.specialists[d]) for d in seen])
    except Exception as exc:
        try:
            writer.send(exc)
        except Exception:   # the caller is gone, or exc does not pickle: the
            pass            # caller, if any, sees the pipe close


def _receive(reader, stream, ep: int):
    """The stream's next message; the exception it sent, raised here with
    its own type; an InternalError naming episode `ep` if it died."""
    try:
        msg = reader.recv()
    except EOFError:
        stream.join()
        raise InternalError(f"the specialists' process died at episode {ep} "
                            f"(exit code {stream.exitcode})") from None
    if isinstance(msg, BaseException):
        raise msg
    return msg


def epi_train(state: EpisodicState) -> M.EncoderDecoderModel:
    """The full episodic training policy; returns the aggregation model.

    Per episode: round-robin source domain i; every specialist takes one step
    on its own-domain batch; then the aggregation model takes one summed
    update per module, theta from grad(L_agg + L_enc) and phi from
    grad(L_agg + L_dec), with a single partner k != i for both episodic
    losses. Batches come from the plan's scheduler at the current stage.

    No specialist reads the aggregation model and no draw reads a model, so
    all draws come first, and the specialists run in one forked process of
    their own (each episodic training adds one), up to STREAM_PIPE_BYTES of
    messages (about 9 episodes at the lab shape) ahead of the aggregation
    model, which receives partner k's arrays as each episode needs them.
    Every step is the same numpy call on the same inputs as in one process,
    so `state` ends bit for bit as a serial loop leaves it. On two cores
    this cuts the episodic benchmark's wall time by about a third; confined
    to one core, the split costs about 12%. The process is killed and joined
    on any exit from this call.
    """
    # imported here, so that `import epinmt.cli`, which every command pays,
    # does not load multiprocessing
    import fcntl
    import multiprocessing
    hp = state.hp
    episodes = _draw_episodes(state)
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    try:
        fcntl.fcntl(writer.fileno(), fcntl.F_SETPIPE_SZ, STREAM_PIPE_BYTES)
    except OSError:   # above this user's pipe quota: the stream waits more often
        pass
    stream = ctx.Process(target=_specialist_stream, args=(state, episodes, reader, writer),
                         name="epi_train specialists", daemon=True)
    stream.start()
    writer.close()
    try:
        for ep, e in enumerate(episodes):
            loss_agg = pairs_nll(state.agg, e.batch_i)
            T.backward(loss_agg)
            spec_loss, partner = _receive(reader, stream, ep)
            _install(state.specialists[e.k], partner)
            l_enc = _episodic_backward(state, "encoder", e.batch_i, e.k)
            l_dec = _episodic_backward(state, "decoder", e.batch_i, e.k)
            losses = (loss_agg.item(), spec_loss, l_enc, l_dec)
            if not all(math.isfinite(v) for v in losses):
                raise InternalError(
                    f"non-finite loss at episode {ep}: L_agg, L_i, L_enc, L_dec = {losses}")
            T.sgd_step(state.agg.encoder, hp.alpha)
            T.sgd_step(state.agg.decoder, hp.alpha)
            state.episode_log.append(EpisodeRecord(ep, e.stage, e.i, e.k, *losses))
        for d, arrays in zip(sorted(state.specialists),
                             _receive(reader, stream, len(episodes))):
            _install(state.specialists[d], arrays)
    except BaseException:
        stream.kill()
        raise
    finally:
        stream.join()
        stream.close()
        reader.close()
    return state.agg


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
    for ep in range(total):
        d = domains[int(rng.integers(0, len(domains)))]
        pool = domain_pairs[d]
        support = [pool[int(rng.integers(0, len(pool)))] for _ in range(hp.batch_size)]
        query = [pool[int(rng.integers(0, len(pool)))] for _ in range(hp.batch_size)]
        adapted = model.copy()
        T.backward(pairs_nll(adapted, support))
        _sgd_model(adapted, hp.beta)
        loss = pairs_nll(adapted, query)
        if not math.isfinite(loss.item()):
            raise InternalError(f"non-finite loss {loss.item()} at episode {ep}")
        T.backward(loss)
        for ps, aps in ((model.encoder, adapted.encoder), (model.decoder, adapted.decoder)):
            for name, p in ps.items():
                p.grad = aps[name].grad
        _sgd_model(model, hp.alpha)
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

# the methods that pair each seen domain with another, so need two of them
EPISODIC = ("epi_nmt", "epi_curriculum")

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
    # epi_nmt is the episodic framework over one uniform shard: no curriculum
    "epi_nmt": (False, lambda vanilla, ds, plan, hp: epi_train(init_state(
        vanilla, ds.seen_ids, uniform_plan(ds.all_seen_training()), hp))),
    "epi_curriculum": (True, lambda vanilla, ds, plan, hp:
                       epi_train(init_state(vanilla, ds.seen_ids, plan, hp))),
}
