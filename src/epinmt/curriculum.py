"""Denoise scoring, divergence scoring, sharding and probabilistic schedulers.

The denoise score of a pair is the per-target-token log-probability gap
between a domain-adapted translation model and the base model; strictly
negative scores are filtered out. The divergence score of a source sentence
is the analogous gap between a domain language model and the base language
model, and drives an ascending-difficulty curriculum: the kept corpus is
sorted by divergence, cut into five shards, and sampled with stage-dependent
shard probabilities.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import MultiDomainDataset, SentencePair
from .errors import DataError, InternalError

N_SHARDS = 5

DEFAULT_STAGE_MATRIX = (
    (0.40, 0.25, 0.15, 0.12, 0.08),
    (0.30, 0.25, 0.20, 0.15, 0.10),
    (0.20, 0.20, 0.20, 0.20, 0.20),
)
ADVANCED_STAGE_MATRIX = (
    (0.40, 0.25, 0.15, 0.12, 0.08),
    (0.40, 0.25, 0.15, 0.12, 0.08),
    (0.20, 0.20, 0.20, 0.20, 0.20),
)
REVERSED_STAGE_MATRIX = tuple(tuple(reversed(row)) for row in DEFAULT_STAGE_MATRIX)

_VARIANTS = {
    "default": DEFAULT_STAGE_MATRIX,
    "advanced": ADVANCED_STAGE_MATRIX,
    "reversed": REVERSED_STAGE_MATRIX,
}


@dataclass
class SchedulerPolicy:
    variant: str = "default"
    stage_matrix: tuple = DEFAULT_STAGE_MATRIX
    stage_boundaries: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)

    def __post_init__(self):
        m = np.asarray(self.stage_matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != 3:
            raise ValueError("stage_matrix must have 3 stage rows")
        if (m < 0).any():
            raise ValueError("stage_matrix entries must be nonnegative")
        if not np.allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            raise ValueError("each stage row must sum to 1")
        b1, b2 = self.stage_boundaries
        if not 0.0 <= b1 <= b2 <= 1.0:
            raise ValueError(f"stage_boundaries {self.stage_boundaries} must rise "
                             "within [0, 1]")

    @classmethod
    def from_variant(cls, variant: str, stage_boundaries=(1.0 / 3.0, 2.0 / 3.0)):
        if variant not in _VARIANTS:
            raise ValueError(f"unknown scheduler variant '{variant}'")
        return cls(variant, _VARIANTS[variant], tuple(stage_boundaries))

    def to_dict(self) -> dict:
        return {"variant": self.variant,
                "stage_matrix": [list(r) for r in self.stage_matrix],
                "stage_boundaries": list(self.stage_boundaries)}

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerPolicy":
        return cls(d["variant"], tuple(tuple(r) for r in d["stage_matrix"]),
                   tuple(d["stage_boundaries"]))


def uniform_policy(n_shards: int = 1) -> SchedulerPolicy:
    row = tuple([1.0 / n_shards] * n_shards)
    return SchedulerPolicy("uniform", (row, row, row))


# ---------------------------------------------------------------------------
# scorers


@dataclass
class Scorer:
    """A base model and, per seen domain, a copy of it adapted to that
    domain: translation models for the denoise score, language models for
    the divergence score."""
    base: M.EncoderDecoderModel | M.LanguageModel
    domains: dict[int, M.EncoderDecoderModel | M.LanguageModel]


def _random_batches(items: list, steps: int, batch_size: int, rng):
    """`steps` batches, each drawn without replacement, independently of the others."""
    for _ in range(steps):
        idx = rng.choice(len(items), size=min(batch_size, len(items)), replace=False)
        yield [items[i] for i in idx]


def pairs_nll(model: M.EncoderDecoderModel, pairs: list[SentencePair]) -> T.Tensor:
    """Mean per-token nll of a batch of pairs; the translation training objective."""
    return M.nll_batch(model, [p.source for p in pairs], [p.target for p in pairs])


def train_base_lm(cfg: M.ModelConfig, sentences: list[list[int]], steps: int,
                  lr: float, batch_size: int, rng) -> M.LanguageModel:
    lm = M.init_lm(cfg, rng)
    T.sgd_loop([lm.params], partial(M.lm_nll_batch, lm),
               _random_batches(sentences, steps, batch_size, rng), lr)
    return lm


def _adapted(base, data: dict[int, list], modules, loss, key: int, steps: int,
             lr: float, batch_size: int, seed: int) -> Scorer:
    """Per domain d, a copy of `base` trained by SGD on loss(copy, batch) over
    `steps` random batches of data[d], drawn with the rng of (seed, key, d);
    modules(copy) lists the parameter sets that train."""
    domains = {}
    for d, items in data.items():
        rng = np.random.default_rng(np.random.SeedSequence([seed, key, d]))
        adapted = domains[d] = base.copy()
        T.sgd_loop(modules(adapted), partial(loss, adapted),
                   _random_batches(items, steps, batch_size, rng), lr)
    return Scorer(base, domains)


def build_denoise_scorer(base_model, dataset: MultiDomainDataset, steps: int,
                         lr: float, batch_size: int, seed: int) -> Scorer:
    """Fine-tune the base translation model on each seen domain's trusted pairs."""
    return _adapted(base_model, {d: dataset.trusted[d] for d in dataset.seen_ids},
                    lambda m: [m.encoder, m.decoder], pairs_nll, 21, steps, lr,
                    batch_size, seed)


def build_divergence_scorer(base_lm, dataset: MultiDomainDataset, steps: int,
                            lr: float, batch_size: int, seed: int) -> Scorer:
    """Fine-tune the base LM on each seen domain's source-side monolingual data."""
    return _adapted(base_lm, {d: [p.source for p in dataset.splits[d].training]
                              for d in dataset.seen_ids},
                    lambda m: [m.params], M.lm_nll_batch, 22, steps, lr, batch_size, seed)


def _per_domain(pairs: list[SentencePair], models: dict, what: str, gap) -> np.ndarray:
    """gap(domain model, the domain's pairs) for each domain's pairs, in one
    batch per domain, placed back in the order of `pairs`."""
    out = np.empty(len(pairs))
    by_domain: dict[int, list[int]] = {}
    for i, p in enumerate(pairs):
        by_domain.setdefault(p.domain_id, []).append(i)
    for d, idxs in by_domain.items():
        if d not in models:
            raise KeyError(f"no {what} for domain {d}")
        out[idxs] = gap(models[d], [pairs[i] for i in idxs])
    return out


def denoise_score_pairs(pairs: list[SentencePair], scorer: Scorer) -> np.ndarray:
    """q = [logP(t|s; adapted) - logP(t|s; base)] / |t|, |t| counting EOS.

    Equals the per-token nll difference base - adapted.
    """
    def gap(adapted, group):
        srcs, tgts = [p.source for p in group], [p.target for p in group]
        nll_base = M.nll_per_pair(scorer.base, srcs, tgts)
        return nll_base - M.nll_per_pair(adapted, srcs, tgts)

    return _per_domain(pairs, scorer.domains, "denoise model", gap)


def divergence_score_pairs(pairs: list[SentencePair], scorer: Scorer) -> np.ndarray:
    """d = [logP(s; domain LM) - logP(s; base LM)] / (|s| + 1), EOS counted:
    the per-source-token gap, higher further from the general domain."""
    def gap(lm, group):
        sents = [p.source for p in group]
        lens = np.array([len(s) + 1 for s in sents], dtype=np.float64)
        lp_z = M.lm_logprob_batch(lm, sents)
        return (lp_z - M.lm_logprob_batch(scorer.base, sents)) / lens

    return _per_domain(pairs, scorer.domains, "divergence LM", gap)


def score_corpus(pairs: list[SentencePair], denoise: Scorer | None,
                 divergence: Scorer) -> list[SentencePair]:
    """Attach q and d scores; denoise=None leaves q at 0 (filter disabled)."""
    q = denoise_score_pairs(pairs, denoise) if denoise else np.zeros(len(pairs))
    d = divergence_score_pairs(pairs, divergence)
    for p, qv, dv in zip(pairs, q, d):
        p.q_score = float(qv)
        p.d_score = float(dv)
    return pairs


def filter_noise(scored_pairs: list[SentencePair]) -> list[SentencePair]:
    """Drop pairs with strictly negative q; zero is kept, order preserved."""
    for p in scored_pairs:
        if p.q_score is None:
            raise InternalError("filter_noise: pair without q_score")
    return [p for p in scored_pairs if p.q_score >= 0.0]


# ---------------------------------------------------------------------------
# plans and sampling


@dataclass
class CurriculumPlan:
    shards: list[list[SentencePair]]
    shard_thresholds: list[float]
    policy: SchedulerPolicy
    filtered_count: int = 0
    # the seen domains' test pairs with their divergence scores, for the bins study
    test_pairs: list[SentencePair] = field(default_factory=list)
    # shards filtered to one domain, built on first use; `save_plan` skips it
    _by_domain: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def domain_shards(self, domain_id: int) -> list[list[SentencePair]]:
        """Each shard's pairs of one domain; filtered once, as shards never change."""
        if domain_id not in self._by_domain:
            self._by_domain[domain_id] = [[p for p in s if p.domain_id == domain_id]
                                          for s in self.shards]
        return self._by_domain[domain_id]


def build_plan(kept_pairs: list[SentencePair], policy: SchedulerPolicy,
               filtered_count: int = 0) -> CurriculumPlan:
    """Stable ascending sort by d score, then 5 contiguous shards (sizes
    differ by at most 1; the remainder goes to the earliest shards)."""
    if len(kept_pairs) < N_SHARDS:
        raise DataError(f"the curriculum needs at least {N_SHARDS} kept pairs to shard, "
                        f"got {len(kept_pairs)} kept ({filtered_count} filtered as noise)")
    for p in kept_pairs:
        if p.d_score is None:
            raise InternalError("build_plan: pair without d_score")
    order = sorted(range(len(kept_pairs)), key=lambda i: (kept_pairs[i].d_score, i))
    ordered = [kept_pairs[i] for i in order]
    n = len(ordered)
    base, rem = divmod(n, N_SHARDS)
    shards, start = [], 0
    for k in range(N_SHARDS):
        size = base + (1 if k < rem else 0)
        shards.append(ordered[start:start + size])
        start += size
    thresholds = [shards[k][-1].d_score for k in range(N_SHARDS - 1)]
    return CurriculumPlan(shards, thresholds, policy, filtered_count)


def uniform_plan(pairs: list[SentencePair]) -> CurriculumPlan:
    """Single-shard plan: every stage samples uniformly (no curriculum)."""
    return CurriculumPlan([list(pairs)], [], uniform_policy(1), 0)


def stage_of(progress: float, policy: SchedulerPolicy) -> int:
    """Stage in {1,2,3}; boundaries are half-open ([b1, b2) is stage 2)."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    b1, b2 = policy.stage_boundaries
    if progress < b1:
        return 1
    if progress < b2:
        return 2
    return 3


def sample_batch(plan: CurriculumPlan, stage: int, batch_size: int, rng,
                 domain_id: int | None = None,
                 warned: set | None = None) -> list[SentencePair]:
    """Draw each element independently: shard by stage probability, then a
    uniform pair within the shard, with replacement.

    With a domain restriction, shards are first filtered to that domain;
    shards left empty get probability 0 and the row is renormalized, with
    one warning per call, or, given the set of domains `warned` about
    already, one per domain (which is then added to it).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    shards = plan.shards if domain_id is None else plan.domain_shards(domain_id)
    probs = np.asarray(plan.policy.stage_matrix[stage - 1], dtype=np.float64).copy()
    empty = np.array([len(s) == 0 for s in shards])
    if (empty & (probs > 0)).any():
        if warned is None or domain_id not in warned:
            warnings.warn("empty shard with nonzero probability; renormalizing")
        if warned is not None:
            warned.add(domain_id)
        probs[empty] = 0.0
        total = probs.sum()
        if total == 0.0:
            raise ValueError("no nonempty shard available to sample from")
        probs = probs / total
    return [shards[s][int(rng.integers(0, len(shards[s])))]
            for s in rng.choice(len(shards), size=batch_size, p=probs)]


def bin_testset(test_pairs: list[SentencePair],
                thresholds: list[float]) -> list[list[SentencePair]]:
    """Partition by the training-set shard thresholds; a score exactly on a
    threshold goes to the lower bin, outermost bins are unbounded."""
    bins: list[list[SentencePair]] = [[] for _ in range(len(thresholds) + 1)]
    for p in test_pairs:
        if p.d_score is None:
            raise InternalError("bin_testset: pair without d_score")
        k = 0
        while k < len(thresholds) and p.d_score > thresholds[k]:
            k += 1
        bins[k].append(p)
    return bins


# ---------------------------------------------------------------------------
# plan persistence


def save_plan(plan: CurriculumPlan, path) -> None:
    payload = {
        "policy": plan.policy.to_dict(),
        "shard_thresholds": plan.shard_thresholds,
        "filtered_count": plan.filtered_count,
        "shards": [[{"s": p.source, "t": p.target, "dom": p.domain_id,
                     "q": p.q_score, "d": p.d_score} for p in shard]
                   for shard in plan.shards],
        "test_pairs": [{"s": p.source, "t": p.target, "dom": p.domain_id, "d": p.d_score}
                       for p in plan.test_pairs],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def load_plan(path) -> CurriculumPlan:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    shards = [[SentencePair(e["s"], e["t"], e["dom"], q_score=e["q"], d_score=e["d"])
               for e in shard] for shard in payload["shards"]]
    test_pairs = [SentencePair(e["s"], e["t"], e["dom"], d_score=e["d"])
                  for e in payload["test_pairs"]]
    return CurriculumPlan(shards, payload["shard_thresholds"],
                          SchedulerPolicy.from_dict(payload["policy"]),
                          payload["filtered_count"], test_pairs)
