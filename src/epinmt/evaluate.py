"""Corpus BLEU and the evaluation protocols.

BLEU is computed on the artifact's own token-id sequences with 4-gram
precision, exponential brevity penalty, an add-epsilon numerator floor
(0.1) for zero-match orders, and effective-order handling when a corpus is
too short to contain any n-gram of a given order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import model as M
from .corpus import MultiDomainDataset, SentencePair
from .curriculum import bin_testset
from .errors import InternalError
from .trainers import Hyperparams, finetune

MAX_NGRAM = 4
SMOOTH_EPS = 0.1
DECODE_CHUNK = 64   # sources beam-decoded together


@dataclass
class BleuScore:
    score: float
    precisions: list[float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngrams(tokens: list[int], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def corpus_bleu(hypotheses: list[list[int]], references: list[list[int]]) -> BleuScore:
    if len(hypotheses) != len(references):
        raise InternalError(
            f"corpus_bleu: {len(hypotheses)} hypotheses vs {len(references)} references")
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    precisions = []
    log_sum, orders = 0.0, 0
    for n in range(1, MAX_NGRAM + 1):
        num = den = 0
        for hyp, ref in zip(hypotheses, references):
            hc, rc = _ngrams(hyp, n), _ngrams(ref, n)
            den += max(len(hyp) - n + 1, 0)
            num += (hc & rc).total()
        if den == 0:
            precisions.append(0.0)
            continue  # effective order: corpus has no n-grams of this size
        p = (num if num > 0 else SMOOTH_EPS) / den
        precisions.append(p)
        log_sum += math.log(p)
        orders += 1
    if hyp_len == 0 or orders == 0:
        return BleuScore(0.0, precisions, 0.0, hyp_len, ref_len)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = 100.0 * bp * math.exp(log_sum / orders)
    return BleuScore(score, precisions, bp, hyp_len, ref_len)


# ---------------------------------------------------------------------------
# decoding helpers


def translate_corpora(model: M.EncoderDecoderModel, corpora: list[list[SentencePair]],
                      beam_width: int, max_steps: int) -> list[list[list[int]]]:
    """Beam-decode every corpus's sources together, DECODE_CHUNK at a time;
    one list of hypotheses per corpus, EOS stripped."""
    sources = [p.source for pairs in corpora for p in pairs]
    hyps = iter([r.tokens[:-1] if r.tokens and r.tokens[-1] == M.EOS else r.tokens
                 for start in range(0, len(sources), DECODE_CHUNK)
                 for r in M.beam_decode_batch(model, sources[start:start + DECODE_CHUNK],
                                              beam_width, max_steps)])
    return [[next(hyps) for _ in pairs] for pairs in corpora]


def translate_corpus(model: M.EncoderDecoderModel, pairs: list[SentencePair],
                     beam_width: int, max_steps: int) -> list[list[int]]:
    return translate_corpora(model, [pairs], beam_width, max_steps)[0]


def test_bleus(model, corpora: list[list[SentencePair]], beam_width: int,
               max_steps: int) -> list[float]:
    """One BLEU per corpus, from one `translate_corpora` call."""
    return [corpus_bleu(hyps, [p.target for p in pairs]).score for hyps, pairs in
            zip(translate_corpora(model, corpora, beam_width, max_steps), corpora)]


def test_bleu(model, pairs: list[SentencePair], beam_width: int,
              max_steps: int) -> float:
    return test_bleus(model, [pairs], beam_width, max_steps)[0]


# ---------------------------------------------------------------------------
# Before FT / After FT protocol


def adapted(model: M.EncoderDecoderModel, dataset: MultiDomainDataset, hp: Hyperparams,
            seed: int, domain: int) -> M.EncoderDecoderModel:
    """The model that the protocol cell (training seed, domain) scores after
    fine-tuning: `model` fine-tuned on the domain's fine-tuning split."""
    try:
        return finetune(model, dataset.splits[domain].finetune,
                        replace(hp, seed=seed * 1000 + domain))
    except InternalError as e:
        raise InternalError(f"fine-tuning on domain {domain}: {e}") from e


def run_protocol(models: dict[str, M.EncoderDecoderModel], dataset: MultiDomainDataset,
                 hp: Hyperparams, seed: int, beam_width: int, max_steps: int) -> list[dict]:
    """Decode before fine-tuning, fine-tune per domain, decode again.

    `models` maps method name -> the checkpoint trained with `seed`. Returns
    one row per (method, domain) cell, as report.json's "protocol" holds it.
    """
    rows = []
    for name, model in sorted(models.items()):
        before_cs, domains = model.checksum(), dataset.seen_ids + dataset.unseen_ids
        befores = test_bleus(model, [dataset.splits[d].testing for d in domains],
                             beam_width, max_steps)
        for d, b_before in zip(domains, befores):
            b_after = test_bleu(adapted(model, dataset, hp, seed, d),
                                dataset.splits[d].testing, beam_width, max_steps)
            rows.append({"method": name, "domain": d, "seen": d in dataset.seen_ids,
                         "seed": seed, "bleu_before": b_before, "bleu_after": b_after,
                         "delta_ft": b_after - b_before})
        if model.checksum() != before_cs:
            raise InternalError(f"evaluation mutated model '{name}'")
    return rows


# ---------------------------------------------------------------------------
# module-swap experiment


def swap_experiment(trained: dict[str, M.EncoderDecoderModel],
                    specialists: dict[int, M.EncoderDecoderModel],
                    dataset: MultiDomainDataset, beam_width: int,
                    max_steps: int) -> list[dict]:
    """BLEU gain from grafting each trained model's encoder (or decoder) onto
    each specialist, on test domains the specialist has never trained on.

    One row per part and method, {"part": "<encoder|decoder>:<method>",
    "improvements": {"<test domain>": [(specialist domain, gain), ...]}},
    the encoder rows first, in the order of `trained`; a specialist's own
    BLEU is decoded once and shared by every row. Each specialist and each
    of its hybrids is one batched decode over every domain but its own.
    """
    if not trained:
        return []
    domains = dataset.seen_ids + dataset.unseen_ids
    rows = {(part, m): {"part": f"{part}:{m}",
                        "improvements": {str(d): [] for d in domains}}
            for part in ("encoder", "decoder") for m in trained}
    for sd, spec in sorted(specialists.items()):
        targets = [d for d in domains if d != sd]   # its own domain is excluded
        tests = [dataset.splits[d].testing for d in targets]
        base = test_bleus(spec, tests, beam_width, max_steps)
        for (part, m), r in rows.items():
            model = trained[m]
            hybrid = (M.compose(model.encoder, spec.decoder, model.config)
                      if part == "encoder" else
                      M.compose(spec.encoder, model.decoder, model.config))
            for d, b, swapped in zip(targets, base,
                                     test_bleus(hybrid, tests, beam_width, max_steps)):
                r["improvements"][str(d)].append((sd, swapped - b))
    return list(rows.values())


# ---------------------------------------------------------------------------
# parameter perturbation


def _perturbed_copy(model: M.EncoderDecoderModel, sigma: float, rng):
    out = model.copy()
    for ps in (out.encoder, out.decoder):
        for _, p in ps.items():
            p.data += rng.normal(0.0, sigma, size=p.shape)
    return out


def perturb_experiment(models: dict[str, M.EncoderDecoderModel],
                       dataset: MultiDomainDataset, sigmas, noise_seeds,
                       beam_width: int, max_steps: int) -> list[dict]:
    """Decode each seen domain after adding zero-mean Gaussian noise of std
    sigma to every parameter of a copy; sigma=0 is always included as the
    reference point. One {"method", "sigma", "domain", "bleu"} row per cell,
    the BLEU averaged over noise seeds, sorted by (method, sigma, domain)."""
    bleu = {}
    for name, model in sorted(models.items()):
        tests = [dataset.splits[d].testing for d in dataset.seen_ids]
        for d, testing, b in zip(dataset.seen_ids, tests,
                                 test_bleus(model, tests, beam_width, max_steps)):
            bleu[(name, 0.0, d)] = b
            for sigma in sigmas:
                scores = []
                for ns in noise_seeds:
                    rng = np.random.default_rng(np.random.SeedSequence([ns, 31, d]))
                    noisy = _perturbed_copy(model, sigma, rng)
                    scores.append(test_bleu(noisy, testing, beam_width, max_steps))
                bleu[(name, float(sigma), d)] = float(np.mean(scores))
    return [{"method": m, "sigma": s, "domain": d, "bleu": v}
            for (m, s, d), v in sorted(bleu.items())]


# ---------------------------------------------------------------------------
# divergence-bin report


def bin_report(models: dict[str, M.EncoderDecoderModel], thresholds: list[float],
               scored_test_pairs: list[SentencePair],
               beam_width: int, max_steps: int) -> dict:
    """Per-method BLEU across the 5 divergence bins of the scored test set,
    bin 1 (lowest divergence) first: {"sizes": [...], "bleu": {method:
    [BLEU per bin, NaN if the bin is empty]}}."""
    bins = bin_testset(scored_test_pairs, thresholds)

    def per_bin(model):   # one batched decode of the non-empty bins
        bleus = iter(test_bleus(model, [b for b in bins if b], beam_width, max_steps))
        return [next(bleus) if b else float("nan") for b in bins]

    return {"sizes": [len(b) for b in bins],
            "bleu": {name: per_bin(model) for name, model in sorted(models.items())}}


# ---------------------------------------------------------------------------
# report output


def report_bundle_json(path, protocol: list[dict], swap: list[dict] | None = None,
                       perturbation: list[dict] | None = None,
                       divergence_bins: list | None = None, meta: dict | None = None) -> None:
    """The studies' rows as one JSON file; an empty swap study is left out."""
    bundle = {"meta": meta or {}, "tokenization": "artifact token ids, no retokenization",
              "protocol": protocol, "swap": swap or None, "perturbation": perturbation,
              "divergence_bins": divergence_bins}
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: v for k, v in bundle.items() if v is not None}, f, indent=1,
                  sort_keys=True)


def report_csv(path, protocol: list[dict]) -> None:
    import csv as _csv
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["method", "domain", "seen_flag", "metric", "value", "seed"])
        for r in protocol:
            for metric in ("bleu_before", "bleu_after", "delta_ft"):
                w.writerow([r["method"], r["domain"], int(r["seen"]), metric, r[metric],
                            r["seed"]])
