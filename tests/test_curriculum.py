"""Denoise/divergence scoring, sharding, schedulers and curriculum sampling."""

import warnings

import numpy as np
import pytest

from epinmt import corpus as C
from epinmt import curriculum as cur
from epinmt import model as M
from epinmt import tensor as T

from helpers import tiny_config


def _pairs_with_d(scores, domain_id=1):
    return [C.SentencePair([4, 5, 6], [6, 5, 4], domain_id, d_score=float(s))
            for s in scores]


class TestPolicies:
    def test_rows_are_distributions(self):
        for variant in ("default", "advanced", "reversed"):
            m = np.array(cur.SchedulerPolicy.from_variant(variant).stage_matrix)
            assert m.shape == (3, 5)
            assert np.all(m >= 0)
            assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_default_values(self):
        m = cur.DEFAULT_STAGE_MATRIX
        assert m[0] == (0.40, 0.25, 0.15, 0.12, 0.08)
        assert m[1] == (0.30, 0.25, 0.20, 0.15, 0.10)
        assert m[2] == (0.20, 0.20, 0.20, 0.20, 0.20)

    def test_advanced_repeats_first_row(self):
        assert cur.ADVANCED_STAGE_MATRIX[0] == cur.ADVANCED_STAGE_MATRIX[1]
        assert cur.ADVANCED_STAGE_MATRIX[2] == cur.DEFAULT_STAGE_MATRIX[2]

    def test_reversed_rows(self):
        for got, src in zip(cur.REVERSED_STAGE_MATRIX, cur.DEFAULT_STAGE_MATRIX):
            assert got == tuple(reversed(src))

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            cur.SchedulerPolicy("bad", ((0.5, 0.6), (1.0, 0.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            cur.SchedulerPolicy("bad", ((1.5, -0.5), (1.0, 0.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            cur.SchedulerPolicy.from_variant("sideways")

    def test_dict_roundtrip(self):
        p = cur.SchedulerPolicy.from_variant("advanced")
        assert cur.SchedulerPolicy.from_dict(p.to_dict()) == p


class TestStageOf:
    def test_boundaries_half_open(self):
        p = cur.SchedulerPolicy.from_variant("default")
        b1, b2 = p.stage_boundaries
        assert cur.stage_of(0.0, p) == 1
        assert cur.stage_of(b1 - 1e-9, p) == 1
        assert cur.stage_of(b1, p) == 2
        assert cur.stage_of(b2 - 1e-9, p) == 2
        assert cur.stage_of(b2, p) == 3
        assert cur.stage_of(1.0, p) == 3

    def test_out_of_range(self):
        p = cur.SchedulerPolicy.from_variant("default")
        with pytest.raises(ValueError):
            cur.stage_of(-0.01, p)
        with pytest.raises(ValueError):
            cur.stage_of(1.01, p)


class TestScoreFormulas:
    def test_divergence_d_direct(self):
        assert cur.divergence_d(-6.0, -10.0, 4) == pytest.approx(1.0)

    def test_signs(self):
        assert cur.divergence_d(-10.0, -10.0, 5) == 0.0


class TestFilterNoise:
    def test_strictly_negative_dropped_zero_kept(self):
        pairs = [C.SentencePair([4], [4], 1, q_score=q)
                 for q in (-0.5, 0.0, 0.3, -1e-12)]
        kept = cur.filter_noise(pairs)
        assert [p.q_score for p in kept] == [0.0, 0.3]

    def test_order_preserved(self):
        pairs = [C.SentencePair([4], [4], 1, q_score=q) for q in (3.0, 1.0, 2.0)]
        assert [p.q_score for p in cur.filter_noise(pairs)] == [3.0, 1.0, 2.0]

    def test_unscored_rejected(self):
        with pytest.raises(T.ContractError):
            cur.filter_noise([C.SentencePair([4], [4], 1)])


class TestBuildPlan:
    def test_shard_sizes_and_order(self):
        rng = np.random.default_rng(0)
        pairs = _pairs_with_d(rng.normal(size=23))
        plan = cur.build_plan(pairs, cur.SchedulerPolicy.from_variant("default"))
        assert [len(s) for s in plan.shards] == [5, 5, 5, 4, 4]
        flat = [p.d_score for s in plan.shards for p in s]
        assert flat == sorted(flat)

    def test_stable_sort_on_ties(self):
        pairs = _pairs_with_d([1.0] * 6 + [0.0] * 4)
        for i, p in enumerate(pairs):
            p.q_score = float(i)  # marker to track identity through the sort
        plan = cur.build_plan(pairs, cur.uniform_policy(5))
        flat = [p.q_score for s in plan.shards for p in s]
        # the four zeros come first in original order, then the six ones in order
        assert flat == [6.0, 7.0, 8.0, 9.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_thresholds_are_shard_maxima(self):
        pairs = _pairs_with_d(range(10))
        plan = cur.build_plan(pairs, cur.uniform_policy(5))
        assert plan.shard_thresholds == [1.0, 3.0, 5.0, 7.0]

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            cur.build_plan(_pairs_with_d([1, 2, 3, 4]), cur.uniform_policy(5))

    def test_missing_d_score(self):
        pairs = _pairs_with_d(range(5))
        pairs[2].d_score = None
        with pytest.raises(T.ContractError):
            cur.build_plan(pairs, cur.uniform_policy(5))

    def test_roundtrip(self, tmp_path):
        pairs = _pairs_with_d(np.random.default_rng(1).normal(size=17))
        plan = cur.build_plan(pairs, cur.SchedulerPolicy.from_variant("reversed"),
                              filtered_count=3)
        cur.save_plan(plan, tmp_path / "plan.json")
        loaded = cur.load_plan(tmp_path / "plan.json")
        assert loaded.policy == plan.policy
        assert loaded.shard_thresholds == plan.shard_thresholds
        assert loaded.filtered_count == 3
        assert [[p.d_score for p in s] for s in loaded.shards] == \
            [[p.d_score for p in s] for s in plan.shards]


class TestSampling:
    def _plan(self, variant="default"):
        pairs = []
        for shard in range(5):
            for j in range(20):
                p = C.SentencePair([4, 5, 6], [6, 5, 4], domain_id=shard % 2 + 1,
                                   d_score=float(shard) + j / 100.0)
                pairs.append(p)
        return cur.build_plan(pairs, cur.SchedulerPolicy.from_variant(variant))

    def _shard_of(self, plan, pair):
        for k, shard in enumerate(plan.shards):
            if pair in shard:
                return k
        raise AssertionError("sampled pair not in any shard")

    @pytest.mark.parametrize("variant,stage", [
        ("default", 1), ("default", 2), ("default", 3),
        ("advanced", 2), ("reversed", 1),
    ])
    def test_empirical_shard_frequencies(self, variant, stage):
        """Oracle: observed shard frequencies over 100k draws match the stage
        row to within 0.01 absolute."""
        plan = self._plan(variant)
        rng = np.random.default_rng(42 + stage)
        counts = np.zeros(5)
        draws = 100_000
        batch = cur.sample_batch(plan, stage, draws, rng)
        for p in batch:
            counts[self._shard_of(plan, p)] += 1
        freq = counts / draws
        expected = np.array(plan.policy.stage_matrix[stage - 1])
        assert np.all(np.abs(freq - expected) < 0.01)

    def test_domain_restriction(self):
        plan = self._plan()
        rng = np.random.default_rng(7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # single-domain shards renormalize
            batch = cur.sample_batch(plan, 2, 500, rng, domain_id=1)
        assert all(p.domain_id == 1 for p in batch)

    def test_empty_shard_renormalizes_with_warning(self):
        # domain 3 never occurs: all restricted shards empty -> error
        plan = self._plan()
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            cur.sample_batch(plan, 1, 4, rng, domain_id=3)
        # shards alternate domains 1/2 by construction, so restricting to
        # domain 2 empties shards 0, 2, 4 and triggers renormalization
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            batch = cur.sample_batch(plan, 1, 200, rng, domain_id=2)
        assert any("renormaliz" in str(x.message) for x in w)
        assert all(p.domain_id == 2 for p in batch)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            cur.sample_batch(self._plan(), 1, 0, np.random.default_rng(0))

    def test_uniform_plan_single_shard(self):
        pairs = _pairs_with_d(range(7))
        plan = cur.uniform_plan(pairs)
        assert plan.n_shards == 1
        batch = cur.sample_batch(plan, 3, 50, np.random.default_rng(1))
        assert len(batch) == 50


class TestBinTestset:
    def test_threshold_goes_to_lower_bin(self):
        thresholds = [1.0, 2.0, 3.0, 4.0]
        pairs = _pairs_with_d([0.5, 1.0, 1.5, 4.0, 99.0, -7.0])
        bins = cur.bin_testset(pairs, thresholds)
        assert [len(b) for b in bins] == [3, 1, 0, 1, 1]
        assert pairs[1] in bins[0]   # exactly on threshold -> lower bin
        assert pairs[3] in bins[3]

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(3)
        pairs = _pairs_with_d(rng.normal(size=200))
        bins = cur.bin_testset(pairs, [-1.0, -0.3, 0.3, 1.0])
        assert sum(len(b) for b in bins) == 200


@pytest.fixture(scope="module")
def setup():
    cfg = C.DatasetConfig(n_content=16, n_seen=2, n_unseen=1,
                          train_tokens=400, finetune_tokens=80,
                          test_tokens=80, generic_train_tokens=400,
                          noise_fraction=0.20, trusted_count=60)
    vocab, ds = C.build_dataset(cfg, seed=0)
    mcfg = tiny_config(vocab_size=vocab.size)
    rng = np.random.default_rng(0)
    base = M.init_model(mcfg, rng)
    # pre-train the base briefly on the generic copy task so domain
    # adaptation has signal to move away from
    gen = ds.splits[ds.generic_id].training
    for _ in range(80):
        idx = rng.integers(0, len(gen), 8)
        loss = M.nll_batch(base, [gen[i].source for i in idx],
                           [gen[i].target for i in idx])
        T.backward(loss)
        T.sgd_step(base.encoder, 0.2)
        T.sgd_step(base.decoder, 0.2)
    return vocab, ds, mcfg, base


class TestScorers:
    def test_denoise_separates_noise_from_clean(self, setup):
        vocab, ds, mcfg, base = setup
        scorer = cur.build_denoise_scorer(base, ds, steps=300, lr=0.2,
                                          batch_size=8, seed=0)
        pairs = ds.all_seen_training()
        q = cur.denoise_score_pairs(pairs, scorer)
        noise_q = [qi for qi, p in zip(q, pairs) if p.is_noise]
        clean_q = [qi for qi, p in zip(q, pairs) if not p.is_noise]
        assert np.mean(clean_q) > np.mean(noise_q)
        # filtering with the real labels as oracle: most noise goes, most clean stays
        for p, qi in zip(pairs, q):
            p.q_score = float(qi)
        kept = cur.filter_noise(pairs)
        noise_total = sum(p.is_noise for p in pairs)
        noise_kept = sum(p.is_noise for p in kept)
        clean_total = len(pairs) - noise_total
        clean_kept = len(kept) - noise_kept
        assert (noise_total - noise_kept) / noise_total >= 0.6
        assert clean_kept / clean_total >= 0.8

    def test_divergence_orders_domains(self, setup):
        """Sentences from domain z score higher under z's own LM gap than
        generic-domain sentences do (the LM was adapted toward z)."""
        vocab, ds, mcfg, base = setup
        rng = np.random.default_rng(1)
        gen_sents = [p.source for p in ds.splits[ds.generic_id].training]
        base_lm = cur.train_base_lm(mcfg, gen_sents, steps=120, lr=0.2,
                                    batch_size=8, rng=rng)
        scorer = cur.build_divergence_scorer(base_lm, ds, steps=120, lr=0.2,
                                             batch_size=8, seed=0)
        d = ds.seen_ids[0]
        own = [p for p in ds.splits[d].training[:40]]
        d_own = cur.divergence_score_pairs(own, scorer)
        assert np.isfinite(d_own).all()
        # agreement between batched and scalar paths
        one = cur.divergence_score(own[0].source, scorer, d)
        assert one == pytest.approx(d_own[0], abs=1e-9)

    def test_denoise_matches_manual_formula(self, setup):
        vocab, ds, mcfg, base = setup
        scorer = cur.build_denoise_scorer(base, ds, steps=20, lr=0.2,
                                          batch_size=8, seed=1)
        p = ds.all_seen_training()[0]
        got = cur.denoise_score(p, scorer)
        nb = float(M.nll_per_pair(base, [p.source], [p.target])[0])
        nz = float(M.nll_per_pair(scorer.domain_models[p.domain_id],
                                  [p.source], [p.target])[0])
        assert got == pytest.approx(nb - nz, abs=1e-12)

    def test_unknown_domain_rejected(self, setup):
        vocab, ds, mcfg, base = setup
        scorer = cur.build_denoise_scorer(base, ds, steps=1, lr=0.1,
                                          batch_size=4, seed=2)
        with pytest.raises(KeyError):
            cur.denoise_score(C.SentencePair([4, 5], [5, 4], 99), scorer)

    def test_score_corpus_without_denoise_keeps_everything(self, setup):
        vocab, ds, mcfg, base = setup
        rng = np.random.default_rng(2)
        gen_sents = [p.source for p in ds.splits[ds.generic_id].training]
        base_lm = cur.train_base_lm(mcfg, gen_sents, steps=10, lr=0.1,
                                    batch_size=8, rng=rng)
        scorer = cur.build_divergence_scorer(base_lm, ds, steps=10, lr=0.1,
                                             batch_size=8, seed=3)
        pairs = [C.SentencePair(list(p.source), list(p.target), p.domain_id)
                 for p in ds.all_seen_training()[:30]]
        scored = cur.score_corpus(pairs, None, scorer)
        assert all(p.q_score == 0.0 for p in scored)
        assert len(cur.filter_noise(scored)) == len(scored)
