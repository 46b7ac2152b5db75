"""Corpus BLEU oracle checks and the evaluation protocol machinery."""

import json
import math

import numpy as np
import pytest

from epinmt import corpus as C
from epinmt import evaluate as E
from epinmt import model as M
from epinmt import tensor as T
from epinmt import trainers as tr
from epinmt.errors import InternalError

from helpers import degradation, protocol_mean, spearman, tiny_config


class TestBleu:
    def test_perfect_match(self):
        refs = [[4, 5, 6, 7, 8], [9, 10, 11, 12]]
        score = E.corpus_bleu([list(r) for r in refs], refs)
        assert score.score == pytest.approx(100.0, abs=1e-9)
        assert score.brevity_penalty == 1.0

    def test_short_hypothesis_brevity_penalty(self):
        """All precisions 1, hypothesis 4 tokens vs reference 5:
        BLEU = 100 * exp(1 - 5/4) ~= 77.88."""
        score = E.corpus_bleu([[4, 5, 6, 7]], [[4, 5, 6, 7, 8]])
        assert score.precisions == [1.0, 1.0, 1.0, 1.0]
        assert score.brevity_penalty == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert score.score == pytest.approx(100.0 * math.exp(-0.25), abs=1e-9)
        assert score.score == pytest.approx(77.8800783, abs=1e-4)

    def test_zero_match_smoothing_floor(self):
        """Disjoint tokens: every numerator hits the 0.1 floor."""
        score = E.corpus_bleu([[4, 5, 6, 7, 8]], [[9, 10, 11, 12, 13]])
        assert score.precisions == [0.1 / 5, 0.1 / 4, 0.1 / 3, 0.1 / 2]
        assert score.score > 0.0

    def test_effective_order_short_corpus(self):
        """Two-token sentences have no 3- or 4-grams; only orders 1-2 count."""
        score = E.corpus_bleu([[4, 5]], [[4, 5]])
        assert score.precisions[2:] == [0.0, 0.0]
        assert score.score == pytest.approx(100.0, abs=1e-9)

    def test_clipping(self):
        """'the the the' against a reference with one 'the': unigram num is 1."""
        score = E.corpus_bleu([[7, 7, 7]], [[7, 8, 9]])
        assert score.precisions[0] == pytest.approx(1.0 / 3.0)

    def test_empty_hypotheses(self):
        assert E.corpus_bleu([[]], [[4, 5]]).score == 0.0

    def test_count_mismatch_rejected(self):
        with pytest.raises(InternalError, match="corpus_bleu: 1 hypotheses vs 2 references"):
            E.corpus_bleu([[4]], [[4], [5]])

    def test_matches_independent_reimplementation(self):
        """Straight-line BLEU with explicit loops over random corpora."""

        def oracle(hyps, refs):
            hyp_len = sum(len(h) for h in hyps)
            ref_len = sum(len(r) for r in refs)
            logs, orders = [], 0
            for n in range(1, 5):
                num, den = 0, 0
                for h, r in zip(hyps, refs):
                    rgrams = {}
                    for i in range(len(r) - n + 1):
                        g = tuple(r[i:i + n])
                        rgrams[g] = rgrams.get(g, 0) + 1
                    hgrams = {}
                    for i in range(len(h) - n + 1):
                        g = tuple(h[i:i + n])
                        hgrams[g] = hgrams.get(g, 0) + 1
                    den += max(len(h) - n + 1, 0)
                    for g, c in hgrams.items():
                        num += min(c, rgrams.get(g, 0))
                if den == 0:
                    continue
                logs.append(math.log((num if num else 0.1) / den))
                orders += 1
            if hyp_len == 0 or orders == 0:
                return 0.0
            bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
            return 100.0 * bp * math.exp(sum(logs) / orders)

        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            refs = [[int(x) for x in rng.integers(4, 12, int(rng.integers(1, 9)))]
                    for _ in range(n)]
            hyps = []
            for r in refs:
                h = list(r)
                for i in range(len(h)):
                    if rng.random() < 0.3:
                        h[i] = int(rng.integers(4, 12))
                if rng.random() < 0.2 and len(h) > 1:
                    h = h[:-1]
                hyps.append(h)
            got = E.corpus_bleu(hyps, refs).score
            assert got == pytest.approx(oracle(hyps, refs), abs=1e-9)


@pytest.fixture(scope="module")
def world():
    cfg = C.DatasetConfig(n_content=16, n_seen=2, n_unseen=1,
                          train_tokens=300, finetune_tokens=100,
                          test_tokens=100, generic_train_tokens=400,
                          noise_fraction=0.0, trusted_count=5)
    vocab, ds = C.build_dataset(cfg, seed=0)
    mcfg = tiny_config(vocab_size=vocab.size)
    hp = tr.Hyperparams(alpha=0.2, beta=0.2, epochs=15, batch_size=8, seed=0,
                        finetune_epochs=2)
    vanilla, _ = tr.pretrain_vanilla(ds.splits[ds.generic_id].training, mcfg, hp)
    agg, _ = tr.train_agg(vanilla, ds.all_seen_training(), hp)
    return vocab, ds, mcfg, hp, vanilla, agg


class TestTranslateCorpus:
    def test_eos_stripped(self, world):
        _, ds, _, _, vanilla, _ = world
        pairs = ds.splits[ds.seen_ids[0]].testing[:6]
        hyps = E.translate_corpus(vanilla, pairs, beam_width=1, max_steps=8)
        assert len(hyps) == 6
        for h in hyps:
            assert M.EOS not in h

    def test_chunking_invariant(self, world, monkeypatch):
        _, ds, _, _, vanilla, _ = world
        pairs = ds.splits[ds.seen_ids[0]].testing[:7]
        monkeypatch.setattr(E, "DECODE_CHUNK", 3)
        a = E.translate_corpus(vanilla, pairs, 1, 8)
        monkeypatch.setattr(E, "DECODE_CHUNK", 64)
        b = E.translate_corpus(vanilla, pairs, 1, 8)
        assert a == b


def _row(method, domain, seen, before, after, seed=0):
    """A protocol row as run_protocol returns it."""
    return {"method": method, "domain": domain, "seen": seen, "seed": seed,
            "bleu_before": before, "bleu_after": after, "delta_ft": after - before}


class TestProtocol:
    def test_cell_grid_complete(self, world):
        _, ds, _, hp, vanilla, agg = world
        rows = E.run_protocol({"vanilla": vanilla, "agg": agg}, ds, hp, 0,
                              beam_width=1, max_steps=8)
        assert len(rows) == 2 * (len(ds.seen_ids) + len(ds.unseen_ids))
        assert {r["domain"] for r in rows if r["seen"]} == set(ds.seen_ids)
        for r in rows:
            assert set(r) == {"method", "domain", "seen", "seed", "bleu_before",
                              "bleu_after", "delta_ft"}
            assert r["delta_ft"] == r["bleu_after"] - r["bleu_before"]

    def test_finetuning_helps_trained_model(self, world):
        _, ds, _, hp, vanilla, agg = world
        hp2 = tr.Hyperparams(**{**hp.__dict__, "finetune_epochs": 25})
        rows = E.run_protocol({"agg": agg}, ds, hp2, 0, beam_width=1, max_steps=8)
        assert protocol_mean(rows, "agg", "delta_ft", seen=False) > 0.0

    def test_zero_finetune_epochs_skips_adaptation(self, world):
        _, ds, _, hp, vanilla, _ = world
        hp0 = tr.Hyperparams(**{**hp.__dict__, "finetune_epochs": 0})
        rows = E.run_protocol({"vanilla": vanilla}, ds, hp0, 0, beam_width=1, max_steps=8)
        for r in rows:
            assert r["bleu_after"] == r["bleu_before"]

    def test_models_not_mutated(self, world):
        _, ds, _, hp, vanilla, agg = world
        cs_v, cs_a = vanilla.checksum(), agg.checksum()
        E.run_protocol({"vanilla": vanilla, "agg": agg}, ds, hp, 0,
                       beam_width=1, max_steps=8)
        assert vanilla.checksum() == cs_v and agg.checksum() == cs_a

    def test_report_aggregation(self):
        rows = [_row("m", 1, True, 10.0, 14.0), _row("m", 2, True, 20.0, 22.0),
                _row("m", 3, False, 5.0, 9.0), _row("other", 1, True, 0.0, 0.0)]
        assert protocol_mean(rows, "m", "bleu_before", seen=True) == pytest.approx(15.0)
        assert protocol_mean(rows, "m", "delta_ft", seen=False) == pytest.approx(4.0)


class TestSwap:
    def test_matching_specialist_excluded(self, world, monkeypatch):
        """One row per part and method, encoder first; each covers every test
        domain with every other specialist. Each specialist and each of its
        hybrids is decoded exactly once, in one batched decode over exactly
        the domains other than the specialist's own."""
        _, ds, _, hp, vanilla, agg = world
        specialists = {d: vanilla.copy() for d in ds.seen_ids}
        trained = {"agg": agg, "vanilla": vanilla}
        domains = ds.seen_ids + ds.unseen_ids
        domain_of = {id(ds.splits[d].testing): d for d in domains}
        decoded = []
        translate = E.translate_corpora

        def logged(model, corpora, *args):
            decoded.append(((id(model.encoder), id(model.decoder)),
                            [domain_of[id(c)] for c in corpora]))
            return translate(model, corpora, *args)

        monkeypatch.setattr(E, "translate_corpora", logged)
        swap = E.swap_experiment(trained, specialists, ds, beam_width=1, max_steps=8)
        assert [r["part"] for r in swap] == ["encoder:agg", "encoder:vanilla",
                                             "decoder:agg", "decoder:vanilla"]
        for r in swap:
            assert list(r["improvements"]) == [str(d) for d in domains]
            for d, gains in zip(domains, r["improvements"].values()):
                assert [sd for sd, _ in gains] == [sd for sd in ds.seen_ids if sd != d]
        want = []
        for sd, spec in specialists.items():
            others = [d for d in domains if d != sd]
            want += [((id(enc), id(dec)), others) for enc, dec in [
                (spec.encoder, spec.decoder),
                *((m.encoder, spec.decoder) for m in trained.values()),
                *((spec.encoder, m.decoder) for m in trained.values())]]
        assert len(decoded) == len(specialists) * (1 + len(swap))
        assert sorted(decoded) == sorted(want)

    def test_identity_swap_is_neutral(self, world):
        """Grafting a model's own encoder or decoder onto itself changes nothing."""
        _, ds, _, _, vanilla, agg = world
        swap = E.swap_experiment({"agg": agg}, {99: agg}, ds, beam_width=1, max_steps=8)
        assert [r["part"] for r in swap] == ["encoder:agg", "decoder:agg"]
        for r in swap:
            for gains in r["improvements"].values():
                for _, gain in gains:
                    assert gain == pytest.approx(0.0, abs=1e-12)


def _cell(method, sigma, domain, bleu):
    """A perturbation row as perturb_experiment returns it."""
    return {"method": method, "sigma": sigma, "domain": domain, "bleu": bleu}


class TestPerturb:
    def test_reference_sigma_always_present(self, world):
        _, ds, _, _, vanilla, agg = world
        rows = E.perturb_experiment({"agg": agg}, ds, sigmas=(0.05,),
                                    noise_seeds=(0,), beam_width=1, max_steps=8)
        assert [(r["method"], r["sigma"], r["domain"]) for r in rows] == [
            ("agg", s, d) for s in (0.0, 0.05) for d in sorted(ds.seen_ids)]

    def test_degradation_arithmetic(self):
        rows = [_cell("m", 0.0, 1, 30.0), _cell("m", 0.1, 1, 22.0),
                _cell("m", 0.0, 2, 40.0), _cell("m", 0.1, 2, 36.0)]
        # domain-mean 35 -> 29: a relative loss of 6/35
        assert degradation(rows, "m", 0.1, [1, 2]) == pytest.approx(6.0 / 35.0)

    def test_degradation_of_zero_base_is_zero(self):
        rows = [_cell("m", 0.0, 1, 0.0), _cell("m", 0.1, 1, 0.0)]
        assert degradation(rows, "m", 0.1, [1]) == 0.0

    def test_large_noise_hurts(self, world):
        _, ds, _, _, vanilla, agg = world
        d = ds.seen_ids[0]
        rows = E.perturb_experiment({"agg": agg}, ds, sigmas=(1.0,),
                                    noise_seeds=(0, 1), beam_width=1, max_steps=8)
        bleu = {(r["sigma"], r["domain"]): r["bleu"] for r in rows}
        assert bleu[(1.0, d)] <= bleu[(0.0, d)]


class TestBins:
    def test_spearman_of_monotone_sequences(self):
        assert spearman([50.0, 40.0, 30.0, 20.0, 10.0]) == pytest.approx(-1.0)
        assert spearman([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)

    def test_nan_bins_skipped(self):
        assert spearman([30.0, float("nan"), 20.0, 10.0, float("nan")]) == \
            pytest.approx(-1.0)

    def test_ties_get_average_ranks(self):
        # ranks of y: 1, 2.5, 2.5, 4, 5 against x ranks 1..5
        rx = np.arange(5.0) - 2.0
        ry = np.array([1.0, 2.5, 2.5, 4.0, 5.0]) - 3.0
        want = float(rx @ ry / math.sqrt((rx @ rx) * (ry @ ry)))
        assert spearman([1.0, 2.0, 2.0, 4.0, 5.0]) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.9746794344808963, abs=1e-12)

    def test_fewer_than_two_bins_is_nan(self):
        assert math.isnan(spearman([float("nan"), 7.0, float("nan")]))
        assert math.isnan(spearman([float("nan")] * 5))

    def test_constant_scores_are_nan(self):
        assert math.isnan(spearman([3.0, 3.0, float("nan"), 3.0, 3.0]))

    def test_bin_report_shape(self, world):
        _, ds, _, _, vanilla, agg = world
        pairs = [C.SentencePair(list(p.source), list(p.target), p.domain_id,
                                d_score=float(i))
                 for i, p in enumerate(ds.splits[ds.seen_ids[0]].testing[:10])]
        bins = E.bin_report({"agg": agg}, [1.5, 3.5, 5.5, 7.5], pairs,
                            beam_width=1, max_steps=8)
        assert list(bins) == ["sizes", "bleu"] and list(bins["bleu"]) == ["agg"]
        assert len(bins["bleu"]["agg"]) == 5
        assert sum(bins["sizes"]) == 10


class TestReportOutput:
    def test_json_bundle(self, tmp_path):
        protocol = [_row("m", 1, True, 10.0, 12.0)]
        path = tmp_path / "report.json"
        E.report_bundle_json(path, protocol, swap=[], meta={"run": "x"})
        bundle = json.loads(path.read_text())
        assert sorted(bundle) == ["meta", "protocol", "tokenization"]
        assert bundle["meta"] == {"run": "x"}
        assert bundle["protocol"] == protocol
        assert "token" in bundle["tokenization"]

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        E.report_csv(path, [_row("m", 1, True, 10.0, 12.0, seed=7)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,domain,seen_flag,metric,value,seed"
        assert len(lines) == 4  # header + before/after/delta
        assert lines[3].split(",") == ["m", "1", "1", "delta_ft", "2.0", "7"]
