"""Synthetic corpus generator: rules, substitutions, noise, budgets, TSV I/O."""

import numpy as np
import pytest

from epinmt import corpus as C
from epinmt.errors import DataError
from epinmt.model import Vocabulary

from helpers import tiny_config  # noqa: F401  (kept for symmetry with other suites)


def _vocab(n=20):
    return C.make_vocabulary(n)


class TestRules:
    def test_identity(self):
        assert C.apply_rule("identity", [4, 5, 6]) == [4, 5, 6]

    def test_reverse(self):
        assert C.apply_rule("reverse", [4, 5, 6]) == [6, 5, 4]

    def test_rotate(self):
        assert C.apply_rule("rotate", [4, 5, 6, 7], rotate_by=1) == [5, 6, 7, 4]
        assert C.apply_rule("rotate", [4, 5, 6], rotate_by=3) == [4, 5, 6]

    def test_swap(self):
        assert C.apply_rule("swap", [4, 5, 6, 7, 8]) == [5, 4, 7, 6, 8]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown structural rule 'shuffle'"):
            C.apply_rule("shuffle", [4, 5])

    def test_rules_are_length_preserving_permutations(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            toks = [int(x) for x in rng.integers(4, 30, int(rng.integers(1, 10)))]
            for rule in C.STRUCTURAL_RULES:
                out = C.apply_rule(rule, toks, rotate_by=int(rng.integers(0, 5)))
                assert sorted(out) == sorted(toks)


class TestSubstitution:
    def test_bijective_over_content_vocab(self):
        vocab = _vocab(24)
        spec = C.DomainSpec(domain_id=3, rule="reverse", seed=7)
        sub = spec.build_substitution(vocab)
        assert sorted(sub) == vocab.content_ids
        assert sorted(sub.values()) == vocab.content_ids

    def test_reserved_ids_never_touched(self):
        vocab = _vocab(24)
        sub = C.DomainSpec(domain_id=1, seed=3).build_substitution(vocab)
        for rid in range(4):
            assert rid not in sub
            assert rid not in sub.values()

    def test_distinct_domains_get_distinct_maps(self):
        vocab = _vocab(24)
        a = C.DomainSpec(domain_id=1, seed=5).build_substitution(vocab)
        b = C.DomainSpec(domain_id=2, seed=5).build_substitution(vocab)
        assert a != b

    def test_deterministic(self):
        vocab = _vocab(24)
        spec = C.DomainSpec(domain_id=2, seed=9)
        assert spec.build_substitution(vocab) == spec.build_substitution(vocab)

    def test_disjoint_images_via_source_ids(self):
        """Two domains drawing from disjoint halves of the vocabulary share no
        target tokens at all, hence no target bigrams."""
        vocab = _vocab(32)
        half = len(vocab.content_ids) // 2
        lo, hi = vocab.content_ids[:half], vocab.content_ids[half:]
        a = C.DomainSpec(domain_id=1, seed=1, source_ids=lo)
        b = C.DomainSpec(domain_id=2, seed=1, source_ids=hi)
        pa = C.generate_domain(a, 50, 1, vocab)
        pb = C.generate_domain(b, 50, 1, vocab)

        def bigrams(pairs):
            out = set()
            for p in pairs:
                out.update(zip(p.target, p.target[1:]))
            return out

        assert not (bigrams(pa) & bigrams(pb))


class TestGenerate:
    def test_targets_follow_rule(self):
        vocab = _vocab(24)
        spec = C.DomainSpec(domain_id=2, rule="reverse", seed=4)
        sub = spec.build_substitution(vocab)
        for p in C.generate_domain(spec, 40, 0, vocab):
            assert p.target == [sub[t] for t in p.source][::-1]
            assert p.is_noise is False

    def test_lengths_in_band(self):
        vocab = _vocab(24)
        spec = C.DomainSpec(domain_id=1, len_min=5, len_max=9, seed=0)
        lens = {len(p.source) for p in C.generate_domain(spec, 300, 0, vocab)}
        assert lens == {5, 6, 7, 8, 9}

    def test_deterministic_in_seed(self):
        vocab = _vocab(24)
        spec = C.DomainSpec(domain_id=1, seed=0)
        a = C.generate_domain(spec, 20, 5, vocab)
        b = C.generate_domain(spec, 20, 5, vocab)
        assert [(p.source, p.target) for p in a] == [(p.source, p.target) for p in b]

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError, match="n_pairs must be positive"):
            C.generate_domain(C.DomainSpec(domain_id=1), 0, 0, _vocab())


class TestNoise:
    def _pairs(self, n=100, seed=0):
        vocab = _vocab(24)
        return C.generate_domain(C.DomainSpec(domain_id=1, rule="rotate", seed=seed),
                                 n, seed, vocab)

    def test_exact_count(self):
        noisy = C.inject_noise(self._pairs(100), 0.10, 3)
        assert sum(p.is_noise for p in noisy) == 10

    def test_rounding(self):
        assert sum(p.is_noise for p in C.inject_noise(self._pairs(15), 0.10, 3)) == 2
        assert sum(p.is_noise for p in C.inject_noise(self._pairs(4), 0.10, 3)) == 0

    def test_sources_untouched_and_targets_swapped(self):
        pairs = self._pairs(60)
        noisy = C.inject_noise(pairs, 0.25, 1)
        originals = [p.target for p in pairs]
        for before, after in zip(pairs, noisy):
            assert after.source == before.source
            if after.is_noise:
                assert after.target != before.target
                assert after.target in originals
            else:
                assert after.target == before.target

    def test_zero_fraction_is_identity(self):
        pairs = self._pairs(30)
        noisy = C.inject_noise(pairs, 0.0, 9)
        assert [(p.source, p.target) for p in noisy] == \
            [(p.source, p.target) for p in pairs]

    def test_input_list_not_mutated(self):
        pairs = self._pairs(40)
        snapshot = [(list(p.source), list(p.target)) for p in pairs]
        C.inject_noise(pairs, 0.5, 2)
        assert [(list(p.source), list(p.target)) for p in pairs] == snapshot


class TestSplit:
    def _pairs(self, n=200):
        vocab = _vocab(24)
        return C.generate_domain(C.DomainSpec(domain_id=1, seed=2), n, 2, vocab)

    def test_budgets_met_with_bounded_overshoot(self):
        pairs = self._pairs()
        sp = C.split(pairs, {"train_tokens": 300, "finetune_tokens": 100,
                             "test_tokens": 50}, 0)
        for part, budget in ((sp.training, 300), (sp.finetune, 100), (sp.testing, 50)):
            total = sum(len(p.source) for p in part)
            assert budget <= total <= budget + 9  # one sentence of slack

    def test_disjoint(self):
        pairs = self._pairs()
        sp = C.split(pairs, {"train_tokens": 200, "finetune_tokens": 200,
                             "test_tokens": 200}, 1)
        ids = [id(p) for p in sp.training + sp.finetune + sp.testing]
        assert len(ids) == len(set(ids))

    def test_insufficient_data_names_shortfall(self):
        pairs = self._pairs(10)
        with pytest.raises(DataError, match="test_tokens"):
            C.split(pairs, {"train_tokens": 30, "finetune_tokens": 0,
                            "test_tokens": 10_000}, 0)


@pytest.fixture(scope="module")
def built():
    cfg = C.DatasetConfig(n_content=24, n_seen=2, n_unseen=1,
                          train_tokens=600, finetune_tokens=120,
                          test_tokens=120, generic_train_tokens=600,
                          noise_fraction=0.10, trusted_count=10)
    return cfg, C.build_dataset(cfg, seed=0)


class TestBuildDataset:
    def test_domain_layout(self, built):
        _, (vocab, ds) = built
        assert ds.generic_id == 0
        assert ds.seen_ids == [1, 2]
        assert ds.unseen_ids == [3]
        assert set(ds.splits) == {0, 1, 2, 3}

    def test_noise_only_in_seen_training(self, built):
        _, (_, ds) = built
        for d in ds.seen_ids:
            assert any(p.is_noise for p in ds.splits[d].training)
            assert not any(p.is_noise for p in ds.splits[d].finetune)
            assert not any(p.is_noise for p in ds.splits[d].testing)
        assert not any(p.is_noise for p in ds.splits[ds.generic_id].training)

    def test_trusted_pairs_are_pre_noise_clean(self, built):
        _, (vocab, ds) = built
        for d in ds.seen_ids:
            spec = ds.specs[d]
            sub = spec.build_substitution(vocab)
            assert len(ds.trusted[d]) == 10
            for p in ds.trusted[d]:
                assert p.target == C.domain_target(spec, p.source, sub)

    def test_unseen_domains_have_no_training_split(self, built):
        _, (_, ds) = built
        for d in ds.unseen_ids:
            assert ds.splits[d].training == []
            assert ds.splits[d].finetune
            assert ds.splits[d].testing

    def test_generic_domain_is_copy_task(self, built):
        _, (_, ds) = built
        for p in ds.splits[ds.generic_id].training[:20]:
            assert p.target == p.source

    def test_deterministic(self, built):
        cfg, (vocab, ds) = built
        _, ds2 = C.build_dataset(cfg, seed=0)
        a = [(p.source, p.target, p.is_noise) for p in ds.all_seen_training()]
        b = [(p.source, p.target, p.is_noise) for p in ds2.all_seen_training()]
        assert a == b

    def test_seed_changes_content(self, built):
        cfg, (vocab, ds) = built
        _, ds2 = C.build_dataset(cfg, seed=1)
        a = [(p.source, p.target) for p in ds.all_seen_training()]
        b = [(p.source, p.target) for p in ds2.all_seen_training()]
        assert a != b

    def test_short_length_band_is_kept(self):
        """Every length of [len_min, len_max] reaches the splits, below 5 too."""
        cfg = C.DatasetConfig(n_content=24, n_seen=2, n_unseen=1, len_min=3, len_max=6,
                              train_tokens=200, finetune_tokens=60, test_tokens=60,
                              generic_train_tokens=200, trusted_count=5)
        _, ds = C.build_dataset(cfg, seed=0)
        lengths = {len(p.source) for sp in ds.splits.values()
                   for p in sp.training + sp.finetune + sp.testing}
        assert lengths == {3, 4, 5, 6}


class TestTsv:
    """The bytes that the TSV writers put in data/ and score/. Nothing reads
    them back, so the tests parse the lines themselves."""

    @staticmethod
    def _ids(vocab, text):
        index = {tok: i for i, tok in enumerate(vocab.tokens)}
        return [index[tok] for tok in text.split(" ")]

    def test_roundtrip(self, tmp_path):
        """One line per pair: its source and target tokens, a tab between."""
        vocab = _vocab(24)
        pairs = C.generate_domain(C.DomainSpec(domain_id=1, seed=0), 25, 0, vocab)
        path = tmp_path / "d.tsv"
        C.save_tsv(pairs, path, vocab)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == "" and len(lines) == len(pairs)
        for line, p in zip(lines, pairs):
            src, tgt = line.split("\t")
            assert (self._ids(vocab, src), self._ids(vocab, tgt)) == (p.source, p.target)

    def test_scored_roundtrip_preserves_floats(self, tmp_path):
        """Five tab-separated columns: source, target, domain, q and d, the
        scores as `repr` floats that parse back exactly, empty when unset."""
        vocab = _vocab(24)
        pairs = C.generate_domain(C.DomainSpec(domain_id=2, seed=1), 10, 1, vocab)
        rng = np.random.default_rng(3)
        for p in pairs[:-1]:
            p.q_score = float(rng.normal())
            p.d_score = float(rng.normal())
        path = tmp_path / "scored.tsv"
        C.save_scored_tsv(pairs, path, vocab)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == "" and len(lines) == len(pairs)
        for line, p in zip(lines, pairs):
            src, tgt, dom, q, d = line.split("\t")
            assert (self._ids(vocab, src), self._ids(vocab, tgt), int(dom)) == \
                (p.source, p.target, p.domain_id)
            assert (float(q) if q else None) == p.q_score   # repr round-trip is exact
            assert (float(d) if d else None) == p.d_score
        assert lines[-1].endswith("\t2\t\t")


class TestConfigValidation:
    def test_noise_fraction_range(self):
        with pytest.raises(ValueError, match=r"noise_fraction must lie in \[0, 1\]"):
            C.DatasetConfig(noise_fraction=1.5)

    def test_bad_rule_in_spec(self):
        with pytest.raises(ValueError, match="unknown structural rule 'zigzag'"):
            C.DomainSpec(domain_id=1, rule="zigzag")

    def test_bad_length_band(self):
        with pytest.raises(ValueError, match="len_min > len_max"):
            C.DomainSpec(domain_id=1, len_min=9, len_max=6)

    @pytest.mark.parametrize("len_min", [0, -3])
    def test_sentences_have_at_least_one_token(self, len_min):
        # a negative len_min reached rng.choice as a negative size
        with pytest.raises(ValueError, match="len_min"):
            C.DatasetConfig(len_min=len_min)
        C.DatasetConfig(len_min=1)
