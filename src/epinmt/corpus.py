"""Synthetic multi-domain parallel corpora with controllable noise.

A domain is a deterministic translation task: a bijective substitution over
the content vocabulary followed by a structural rule (identity, reverse,
rotate, swap-adjacent). Distinct substitutions and rules give genuine domain
shift while the generator always knows the ground-truth target, which makes
injected noise exactly labelable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .model import Vocabulary

STRUCTURAL_RULES = ("identity", "reverse", "rotate", "swap")


@dataclass
class SentencePair:
    source: list[int]
    target: list[int]
    domain_id: int
    is_noise: bool | None = None
    q_score: float | None = None
    d_score: float | None = None


@dataclass
class DomainSpec:
    domain_id: int
    rule: str = "identity"
    rotate_by: int = 1
    len_min: int = 5
    len_max: int = 9
    seed: int = 0
    substitution: dict[int, int] | None = None  # built from seed when None
    source_ids: list[int] | None = None         # defaults to the full content vocab

    def __post_init__(self):
        if self.rule not in STRUCTURAL_RULES:
            raise UsageError(f"unknown structural rule '{self.rule}'")
        if self.len_max < 5:
            raise UsageError("degenerate length distribution: len_max < 5")
        if self.len_min > self.len_max:
            raise UsageError("len_min > len_max")

    def build_substitution(self, vocab: Vocabulary) -> dict[int, int]:
        if self.substitution is not None:
            return self.substitution
        ids = np.array(self.source_ids if self.source_ids is not None
                       else vocab.content_ids)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.domain_id, 7]))
        perm = rng.permutation(ids)
        return {int(a): int(b) for a, b in zip(ids, perm)}


def apply_rule(rule: str, tokens: list[int], rotate_by: int = 1) -> list[int]:
    if rule == "identity":
        return list(tokens)
    if rule == "reverse":
        return tokens[::-1]
    if rule == "rotate":
        r = rotate_by % len(tokens)
        return tokens[r:] + tokens[:r]
    if rule == "swap":
        out = list(tokens)
        for i in range(0, len(out) - 1, 2):
            out[i], out[i + 1] = out[i + 1], out[i]
        return out
    raise UsageError(f"unknown structural rule '{rule}'")


def domain_target(spec: DomainSpec, source: list[int], sub: dict[int, int]) -> list[int]:
    return apply_rule(spec.rule, [sub[t] for t in source], spec.rotate_by)


def generate_domain(spec: DomainSpec, n_pairs: int, seed: int,
                    vocab: Vocabulary) -> list[SentencePair]:
    """Draw n_pairs sources from the length distribution; targets follow the rule."""
    if n_pairs <= 0:
        raise UsageError("n_pairs must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.domain_id]))
    sub = spec.build_substitution(vocab)
    content = np.array(spec.source_ids if spec.source_ids is not None
                       else vocab.content_ids)
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(spec.len_min, spec.len_max + 1))
        source = [int(t) for t in rng.choice(content, size=length)]
        pairs.append(SentencePair(source, domain_target(spec, source, sub),
                                  spec.domain_id, is_noise=False))
    return pairs


def inject_noise(pairs: list[SentencePair], fraction: float, seed: int) -> list[SentencePair]:
    """Corrupt round(fraction*n) pairs by swapping in another pair's target."""
    n = len(pairs)
    k = int(round(fraction * n))
    out = [SentencePair(p.source, p.target, p.domain_id, is_noise=False) for p in pairs]
    if k == 0:
        return out
    if n < 2:
        raise DataError(f"domain {pairs[0].domain_id} has {n} training pair, so "
                        f"noise_fraction {fraction} asks for a noisy pair with no other "
                        f"pair's target to take")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    victims = rng.choice(n, size=k, replace=False)
    originals = [p.target for p in pairs]
    for v in victims:
        other = int(rng.integers(0, n - 1))
        if other >= v:
            other += 1
        out[v] = SentencePair(out[v].source, list(originals[other]),
                              out[v].domain_id, is_noise=True)
    return out


@dataclass
class DatasetSplits:
    training: list[SentencePair] = field(default_factory=list)
    finetune: list[SentencePair] = field(default_factory=list)
    testing: list[SentencePair] = field(default_factory=list)


def split(pairs: list[SentencePair], budgets: dict[str, int], seed: int) -> DatasetSplits:
    """Random disjoint assignment; each split takes sentences until its
    source-token budget is met (so it overshoots by at most one sentence)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    order = rng.permutation(len(pairs))
    names = ("train_tokens", "finetune_tokens", "test_tokens")
    result = {n: [] for n in names}
    cursor = 0
    for name in names:
        budget = budgets.get(name, 0)
        count = 0
        while count < budget:
            if cursor >= len(pairs):
                raise DataError(f"insufficient data for {name}: short {budget - count} tokens")
            p = pairs[order[cursor]]
            cursor += 1
            result[name].append(p)
            count += len(p.source)
    return DatasetSplits(result["train_tokens"], result["finetune_tokens"],
                         result["test_tokens"])


@dataclass
class MultiDomainDataset:
    seen_ids: list[int]
    unseen_ids: list[int]
    generic_id: int
    specs: dict[int, DomainSpec]
    splits: dict[int, DatasetSplits]
    trusted: dict[int, list[SentencePair]]  # clean pre-noise pairs, seen domains

    def all_seen_training(self) -> list[SentencePair]:
        out = []
        for d in self.seen_ids:
            out.extend(self.splits[d].training)
        return out


@dataclass
class DatasetConfig:
    n_content: int = 96
    n_seen: int = 5
    n_unseen: int = 3
    len_min: int = 5
    len_max: int = 9
    train_tokens: int = 20000
    finetune_tokens: int = 1000
    test_tokens: int = 2000
    generic_train_tokens: int = 20000
    noise_fraction: float = 0.10
    trusted_count: int = 200
    rules: tuple[str, ...] = ("reverse", "rotate", "swap", "identity")
    # optional per-domain (start, size) slices of the content vocabulary for
    # the source side, cycled over seen then unseen domains; None = full vocab.
    # Restricting sources makes the domain identifiable from its sentences.
    windows: tuple[tuple[int, int], ...] | None = None
    # optional recombination recipe for unseen domains: entry u gives the
    # position (0-based, into the seen list) of the seen domain whose window
    # and substitution the u-th unseen domain inherits; its rule still comes
    # from the rules cycle, so the unseen task is a novel combination of
    # familiar pieces rather than an entirely alien mapping.
    unseen_like: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.len_min < 1:
            raise UsageError(f"len_min must be >= 1, got {self.len_min}")
        if self.n_content < 4:
            raise UsageError("n_content too small")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise UsageError("noise_fraction must lie in [0, 1]")
        if min(self.n_seen, self.train_tokens, self.finetune_tokens, self.test_tokens,
               self.generic_train_tokens) < 1 or min(self.n_unseen, self.trusted_count) < 0:
            raise UsageError("n_seen and the token budgets must be >= 1, "
                             "n_unseen and trusted_count >= 0")
        for name in ("rules", "windows", "unseen_like"):  # cycled, so never empty
            if getattr(self, name) is not None and not getattr(self, name):
                raise UsageError(f"{name} must not be empty")
        for rule in self.rules:  # DomainSpec checks the rule and the length band
            DomainSpec(0, rule=rule, len_min=self.len_min, len_max=self.len_max)
        for pos in self.unseen_like or ():
            if not 0 <= pos < self.n_seen:
                raise UsageError(f"unseen_like position {pos} out of range")
        if self.windows is not None:
            for start, size in self.windows:
                if start < 0 or size < 1 or start + size > self.n_content:
                    raise UsageError(
                        f"window ({start}, {size}) outside the content vocabulary")


def make_vocabulary(n_content: int) -> Vocabulary:
    width = len(str(n_content - 1))
    return Vocabulary([f"w{i:0{width}d}" for i in range(n_content)])


def build_dataset(cfg: DatasetConfig, seed: int) -> tuple[Vocabulary, MultiDomainDataset]:
    """Generate the full multi-domain dataset deterministically from one seed.

    Domain 0 is the generic (pre-training surrogate) domain with identity
    substitution and identity rule; seen domains follow, then unseen ones.
    Noise is injected into seen-domain training splits only, after the
    trusted pairs have been recorded.
    """
    vocab = make_vocabulary(cfg.n_content)
    generic_id = 0
    seen_ids = list(range(1, 1 + cfg.n_seen))
    unseen_ids = list(range(1 + cfg.n_seen, 1 + cfg.n_seen + cfg.n_unseen))

    specs: dict[int, DomainSpec] = {}
    identity_sub = {i: i for i in vocab.content_ids}
    specs[generic_id] = DomainSpec(generic_id, rule="identity", len_min=cfg.len_min,
                                   len_max=cfg.len_max, seed=seed,
                                   substitution=identity_sub)
    for idx, d in enumerate(seen_ids + unseen_ids):
        source_ids = None
        substitution = None
        if cfg.windows is not None:
            start, size = cfg.windows[idx % len(cfg.windows)]
            source_ids = vocab.content_ids[start:start + size]
        if d in unseen_ids and cfg.unseen_like is not None:
            pos = cfg.unseen_like[(d - unseen_ids[0]) % len(cfg.unseen_like)]
            donor = specs[seen_ids[pos]]
            source_ids = donor.source_ids
            substitution = donor.build_substitution(vocab)
        specs[d] = DomainSpec(d, rule=cfg.rules[idx % len(cfg.rules)],
                              rotate_by=1 + idx % 3, len_min=cfg.len_min,
                              len_max=cfg.len_max, seed=seed,
                              source_ids=source_ids, substitution=substitution)

    avg_len = (cfg.len_min + cfg.len_max) / 2.0
    splits: dict[int, DatasetSplits] = {}
    trusted: dict[int, list[SentencePair]] = {}
    for d, spec in specs.items():
        budgets = {"train_tokens": (cfg.generic_train_tokens if d == generic_id else
                                    cfg.train_tokens if d in seen_ids else 0),
                   "finetune_tokens": 0 if d == generic_id else cfg.finetune_tokens,
                   "test_tokens": cfg.test_tokens}
        n_pairs = int(sum(budgets.values()) / avg_len * 1.3) + 10
        pairs = generate_domain(spec, n_pairs, seed, vocab)
        sp = split(pairs, budgets, seed + d)
        if d in seen_ids:
            trusted[d] = [SentencePair(list(p.source), list(p.target), d, is_noise=False)
                          for p in sp.training[: cfg.trusted_count]]
            sp.training = inject_noise(sp.training, cfg.noise_fraction, seed + 100 + d)
        splits[d] = sp
    return vocab, MultiDomainDataset(seen_ids, unseen_ids, generic_id, specs,
                                     splits, trusted)


# ---------------------------------------------------------------------------
# TSV I/O


def save_tsv(pairs: list[SentencePair], path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            f.write(vocab.detokenize(p.source) + "\t" + vocab.detokenize(p.target) + "\n")


def save_scored_tsv(pairs: list[SentencePair], path, vocab: Vocabulary) -> None:
    """Extended format: source<TAB>target<TAB>domain<TAB>q<TAB>d."""
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            q = "" if p.q_score is None else repr(p.q_score)
            d = "" if p.d_score is None else repr(p.d_score)
            f.write("\t".join([vocab.detokenize(p.source), vocab.detokenize(p.target),
                               str(p.domain_id), q, d]) + "\n")

