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
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from . import tensor as T
from .corpus import MultiDomainDataset, SentencePair
from .curriculum import bin_testset
from .trainers import Hyperparams, finetune, protocol_hp

MAX_NGRAM = 4
SMOOTH_EPS = 0.1


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
        raise T.ContractError(
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


def translate_corpus(model: M.EncoderDecoderModel, pairs: list[SentencePair],
                     beam_width: int, max_steps: int,
                     chunk: int = 64) -> list[list[int]]:
    """Beam-decode all sources; EOS is stripped from the returned sequences."""
    hyps = []
    for start in range(0, len(pairs), chunk):
        batch = pairs[start:start + chunk]
        results = M.beam_decode_batch(model, [p.source for p in batch],
                                      beam_width, max_steps)
        for r in results:
            toks = r.tokens
            if toks and toks[-1] == M.EOS:
                toks = toks[:-1]
            hyps.append(toks)
    return hyps


def test_bleu(model, pairs: list[SentencePair], beam_width: int,
              max_steps: int) -> float:
    hyps = translate_corpus(model, pairs, beam_width, max_steps)
    return corpus_bleu(hyps, [p.target for p in pairs]).score


# ---------------------------------------------------------------------------
# Before FT / After FT protocol


@dataclass
class EvalCell:
    method: str
    domain: int
    seen: bool
    seed: int
    bleu_before: float
    bleu_after: float

    @property
    def delta_ft(self) -> float:
        return self.bleu_after - self.bleu_before


@dataclass
class EvalReport:
    cells: list[EvalCell] = field(default_factory=list)

    def mean(self, method: str, metric: str, seen: bool | None = None,
             domain: int | None = None) -> float:
        vals = [getattr(c, metric) for c in self.cells
                if c.method == method
                and (seen is None or c.seen == seen)
                and (domain is None or c.domain == domain)]
        return float(np.mean(vals))

    def to_rows(self) -> list[dict]:
        return [{"method": c.method, "domain": c.domain, "seen": c.seen, "seed": c.seed,
                 "bleu_before": c.bleu_before, "bleu_after": c.bleu_after,
                 "delta_ft": c.delta_ft} for c in self.cells]


def run_protocol(models: dict[str, M.EncoderDecoderModel], dataset: MultiDomainDataset,
                 hp: Hyperparams, seed: int, beam_width: int = 5,
                 max_steps: int = 32) -> EvalReport:
    """Decode before fine-tuning, fine-tune per domain, decode again.

    `models` maps method name -> the checkpoint trained with `seed`. Every
    (method, domain) cell appears once in the report.
    """
    report = EvalReport()
    for name, model in sorted(models.items()):
        before_cs = model.checksum()
        for d in dataset.seen_ids + dataset.unseen_ids:
            sp = dataset.splits[d]
            b_before = test_bleu(model, sp.testing, beam_width, max_steps)
            adapted = finetune(model, sp.finetune, protocol_hp(hp, seed, d)) \
                if hp.finetune_epochs > 0 else model
            b_after = test_bleu(adapted, sp.testing, beam_width, max_steps)
            report.cells.append(EvalCell(name, d, d in dataset.seen_ids,
                                         seed, b_before, b_after))
        if model.checksum() != before_cs:
            raise T.ContractError(f"evaluation mutated model '{name}'")
    return report


# ---------------------------------------------------------------------------
# module-swap experiment


@dataclass
class SwapReport:
    part: str
    # target domain -> list of (specialist domain, improvement)
    improvements: dict[int, list[tuple[int, float]]] = field(default_factory=dict)

    def domain_mean(self, domain: int) -> float:
        return float(np.mean([v for _, v in self.improvements[domain]]))

    def overall_mean(self) -> float:
        return float(np.mean([self.domain_mean(d) for d in self.improvements]))


def swap_experiment(trained: dict[str, M.EncoderDecoderModel],
                    specialists: dict[int, M.EncoderDecoderModel],
                    dataset: MultiDomainDataset, beam_width: int = 5,
                    max_steps: int = 32) -> list[SwapReport]:
    """BLEU gain from grafting each trained model's encoder (or decoder) onto
    each specialist, on test domains the specialist has never trained on.

    One report per part and method, "encoder:<method>" reports first, in the
    order of `trained`; a specialist's own BLEU is decoded once per test
    domain and shared by every report.
    """
    if not trained:
        return []
    reports = {(part, m): SwapReport(f"{part}:{m}")
               for part in ("encoder", "decoder") for m in trained}
    for d in dataset.seen_ids + dataset.unseen_ids:
        testing = dataset.splits[d].testing
        for r in reports.values():
            r.improvements[d] = []
        for sd, spec in sorted(specialists.items()):
            if sd == d:
                continue  # specialist matching the target domain is excluded
            base = test_bleu(spec, testing, beam_width, max_steps)
            for (part, m), r in reports.items():
                model = trained[m]
                hybrid = (M.compose(model.encoder, spec.decoder, model.config)
                          if part == "encoder" else
                          M.compose(spec.encoder, model.decoder, model.config))
                swapped = test_bleu(hybrid, testing, beam_width, max_steps)
                r.improvements[d].append((sd, swapped - base))
    return list(reports.values())


# ---------------------------------------------------------------------------
# parameter perturbation


@dataclass
class PerturbReport:
    # (method, sigma, domain) -> mean BLEU over noise seeds
    cells: dict[tuple[str, float, int], float] = field(default_factory=dict)

    def degradation(self, method: str, sigma: float, domains: list[int]) -> float:
        """Relative BLEU loss of the domain-mean score under perturbation.

        Normalizing by the unperturbed score makes models with different
        base strength comparable; a model at 0 BLEU degrades by 0.
        """
        base = float(np.mean([self.cells[(method, 0.0, d)] for d in domains]))
        noisy = float(np.mean([self.cells[(method, sigma, d)] for d in domains]))
        if base <= 0.0:
            return 0.0
        return (base - noisy) / base


def _perturbed_copy(model: M.EncoderDecoderModel, sigma: float, rng):
    out = model.copy()
    for ps in (out.encoder, out.decoder):
        for _, p in ps.items():
            p.data += rng.normal(0.0, sigma, size=p.shape)
    return out


def perturb_experiment(models: dict[str, M.EncoderDecoderModel],
                       dataset: MultiDomainDataset,
                       sigmas=(0.01, 0.02, 0.03), noise_seeds=(0, 1, 2),
                       beam_width: int = 5, max_steps: int = 32,
                       domains: list[int] | None = None) -> PerturbReport:
    """Decode after adding zero-mean Gaussian noise of std sigma to every
    parameter of a copy; sigma=0 is always included as the reference point."""
    report = PerturbReport()
    if domains is None:
        domains = dataset.seen_ids
    for name, model in sorted(models.items()):
        for d in domains:
            testing = dataset.splits[d].testing
            report.cells[(name, 0.0, d)] = test_bleu(model, testing,
                                                     beam_width, max_steps)
            for sigma in sigmas:
                scores = []
                for ns in noise_seeds:
                    rng = np.random.default_rng(np.random.SeedSequence([ns, 31, d]))
                    noisy = _perturbed_copy(model, sigma, rng)
                    scores.append(test_bleu(noisy, testing, beam_width, max_steps))
                report.cells[(name, float(sigma), d)] = float(np.mean(scores))
    return report


# ---------------------------------------------------------------------------
# divergence-bin report


@dataclass
class BinReport:
    # method -> list of 5 BLEU values, bin 1 (lowest divergence) first
    bleu_by_bin: dict[str, list[float]] = field(default_factory=dict)
    bin_sizes: list[int] = field(default_factory=list)

    def spearman(self, method: str) -> float:
        """Spearman rho of BLEU against bin index; NaN (empty) bins are skipped.

        NaN when fewer than two bins remain or the scores are constant.
        """
        scores = self.bleu_by_bin[method]
        idx = [i for i, s in enumerate(scores) if not math.isnan(s)]
        return _spearman(np.array(idx, dtype=np.float64),
                         np.array([scores[i] for i in idx], dtype=np.float64))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of average ranks (scipy.stats.spearmanr's statistic)."""
    if len(x) < 2:
        return float("nan")
    rx = _average_ranks(x) - (len(x) + 1) / 2.0
    ry = _average_ranks(y) - (len(y) + 1) / 2.0
    den = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if den == 0.0:
        return float("nan")
    return float(np.clip((rx @ ry) / den, -1.0, 1.0))


def bin_report(models: dict[str, M.EncoderDecoderModel], thresholds: list[float],
               scored_test_pairs: list[SentencePair],
               beam_width: int = 5, max_steps: int = 32) -> BinReport:
    """Per-method BLEU across the 5 divergence bins of the scored test set."""
    bins = bin_testset(scored_test_pairs, thresholds)
    report = BinReport(bin_sizes=[len(b) for b in bins])
    for name, model in sorted(models.items()):
        report.bleu_by_bin[name] = [test_bleu(model, b, beam_width, max_steps)
                                    if b else float("nan") for b in bins]
    return report


# ---------------------------------------------------------------------------
# report output


def report_bundle_json(path, eval_report: EvalReport | None = None,
                       swap_reports: list[SwapReport] | None = None,
                       perturb: PerturbReport | None = None,
                       bins: BinReport | None = None, meta: dict | None = None) -> None:
    bundle: dict = {"meta": meta or {},
                    "tokenization": "artifact token ids, no retokenization"}
    if eval_report is not None:
        bundle["protocol"] = eval_report.to_rows()
    if swap_reports:
        bundle["swap"] = [
            {"part": r.part,
             "improvements": {str(d): rows for d, rows in r.improvements.items()}}
            for r in swap_reports]
    if perturb is not None:
        bundle["perturbation"] = [
            {"method": m, "sigma": s, "domain": d, "bleu": v}
            for (m, s, d), v in sorted(perturb.cells.items())]
    if bins is not None:
        bundle["divergence_bins"] = {"sizes": bins.bin_sizes,
                                     "bleu": bins.bleu_by_bin}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bundle, f, indent=1, sort_keys=True)


def report_csv(path, eval_report: EvalReport) -> None:
    import csv as _csv
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["method", "domain", "seen_flag", "metric", "value", "seed"])
        for c in eval_report.cells:
            for metric, value in (("bleu_before", c.bleu_before),
                                  ("bleu_after", c.bleu_after),
                                  ("delta_ft", c.delta_ft)):
                w.writerow([c.method, c.domain, int(c.seen), metric, value, c.seed])
