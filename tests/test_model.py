"""Transformer seq2seq: tokenization, likelihoods, decoding, composition."""

import subprocess
import sys

import numpy as np
import pytest

from epinmt import model as M
from epinmt import tensor as T

from helpers import child_env, tiny_config, tiny_model, random_pair


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestVocabulary:
    def test_empty_input(self):
        v = M.Vocabulary(["a", "b"])
        assert v.tokenize("") == []

    def test_direct_lookup(self):
        v = M.Vocabulary(["a", "b"])
        assert v.tokenize("a b a") == [4, 5, 4]

    def test_unknown_maps_to_unk(self):
        v = M.Vocabulary(["a"])
        assert v.tokenize("a zzz") == [4, M.UNK]

    def test_roundtrip_over_seeded_sentences(self):
        v = M.Vocabulary([f"w{i}" for i in range(30)])
        rng = _rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            text = " ".join(v.tokens[int(i)] for i in rng.integers(4, v.size, n))
            assert v.detokenize(v.tokenize(text)) == text

    def test_reserved_ids_fixed(self):
        v = M.Vocabulary(["a"])
        assert [v.token_to_id[t] for t in M.RESERVED_TOKENS] == [0, 1, 2, 3]

    def test_file_roundtrip(self, tmp_path):
        v = M.Vocabulary([f"w{i}" for i in range(7)])
        v.save(tmp_path / "vocab.txt")
        assert M.Vocabulary.load(tmp_path / "vocab.txt").tokens == v.tokens


class TestEncode:
    def test_output_shape(self):
        model = tiny_model(0)
        mem = M.encode(model.encoder, model.config, [4, 5, 6])
        assert mem.shape == (3, model.config.d_model)

    def test_bitwise_determinism(self):
        model = tiny_model(1)
        a = M.encode(model.encoder, model.config, [4, 5, 6, 7]).data
        b = M.encode(model.encoder, model.config, [4, 5, 6, 7]).data
        assert a.tobytes() == b.tobytes()

    def test_positional_encoding_not_degenerate(self):
        model = tiny_model(2)
        a = M.encode(model.encoder, model.config, [4, 5, 6]).data
        b = M.encode(model.encoder, model.config, [5, 4, 6]).data
        assert not np.allclose(a, b)

    def test_overlength_rejected(self):
        model = tiny_model(3)
        with pytest.raises(M.LengthError):
            M.encode(model.encoder, model.config, [4] * (model.config.max_len + 1))


class TestNll:
    def test_uniform_model_gives_log_v(self):
        model = tiny_model(4)
        model.decoder["out.w"].data[:] = 0.0
        for pair in ([4, 5, 6], [7, 8]), ([5], [9, 10, 11]):
            loss = M.nll(model, pair[0], pair[1])
            assert loss.item() == pytest.approx(np.log(model.config.vocab_size),
                                                abs=1e-12)

    def test_nonnegative(self):
        rng = _rng(5)
        for seed in range(5):
            model = tiny_model(seed)
            src, tgt = random_pair(rng, model.config)
            assert M.nll(model, src, tgt).item() >= 0.0

    def test_empty_sequence_rejected(self):
        model = tiny_model(6)
        with pytest.raises(T.ContractError):
            M.nll(model, [], [4])

    def test_matches_stepwise_oracle(self):
        """Independent oracle: extract each step's conditional probability via
        a fresh decoder run on the growing prefix."""
        model = tiny_model(7)
        src, tgt = [4, 5, 6, 7], [8, 9, 10]
        cfg = model.config
        src_arr = np.array([src + [M.EOS]])
        memory = M.encode_batch(model.encoder.frozen_view(), cfg, src_arr)
        steps = tgt + [M.EOS]
        logps = []
        for m, tok in enumerate(steps):
            prefix = np.array([[M.BOS] + tgt[:m]])
            logits = M.decoder_logits(model.decoder.frozen_view(), cfg, memory,
                                      src_arr, prefix).data[0, -1]
            z = logits - logits.max()
            logp = z - np.log(np.exp(z).sum())
            logps.append(logp[tok])
        oracle = -np.mean(logps)
        assert M.nll(model, src, tgt).item() == pytest.approx(oracle, abs=1e-10)

    def test_causality(self):
        """Logits at position m ignore target tokens at positions > m."""
        model = tiny_model(8)
        cfg = model.config
        src = np.array([[4, 5, M.EOS]])
        memory = M.encode_batch(model.encoder.frozen_view(), cfg, src)
        dec_a = np.array([[M.BOS, 6, 7, 8]])
        dec_b = np.array([[M.BOS, 6, 11, 9]])  # differs only at positions >= 2
        la = M.decoder_logits(model.decoder.frozen_view(), cfg, memory, src, dec_a).data
        lb = M.decoder_logits(model.decoder.frozen_view(), cfg, memory, src, dec_b).data
        assert np.array_equal(la[0, :2], lb[0, :2])


class TestDecode:
    def test_beam1_equals_greedy_over_seeded_cases(self):
        rng = _rng(9)
        hits = 0
        for seed in range(20):
            model = tiny_model(seed)
            for _ in range(5):
                src, _ = random_pair(rng, model.config)
                g = M.greedy_decode(model, src, max_steps=8)
                b = M.beam_decode(model, src, beam_width=1, max_steps=8)
                assert g.tokens == b.tokens
                hits += 1
        assert hits == 100

    def test_uniform_model_emits_lowest_content_token(self):
        model = tiny_model(10)
        model.decoder["out.w"].data[:] = 0.0
        res = M.greedy_decode(model, [4, 5, 6], max_steps=6)
        assert res.tokens == [4] * 6
        assert res.truncated

    def test_beam5_score_at_least_greedy(self):
        rng = _rng(11)
        for seed in range(20):
            model = tiny_model(seed + 100)
            for _ in range(5):
                src, _ = random_pair(rng, model.config)
                g = M.greedy_decode(model, src, max_steps=8)
                b = M.beam_decode(model, src, beam_width=5, max_steps=8)
                assert b.logprob >= g.logprob - 1e-12

    def test_beam_width_validated(self):
        with pytest.raises(ValueError):
            M.beam_decode(tiny_model(12), [4], beam_width=0)

    def test_decoding_does_not_mutate(self):
        model = tiny_model(13)
        cs = model.checksum()
        M.beam_decode(model, [4, 5, 6], beam_width=3, max_steps=6)
        assert model.checksum() == cs


class TestLanguageModel:
    def test_uniform_lm_logprob(self):
        lm = M.init_lm(tiny_config(), _rng(14))
        lm.params["out.w"].data[:] = 0.0
        v = lm.config.vocab_size
        for length in (1, 3, 5):
            got = M.lm_logprob(lm, [4] * length)
            assert got == pytest.approx(-(length + 1) * np.log(v), abs=1e-9)

    def test_logprob_nonpositive(self):
        lm = M.init_lm(tiny_config(), _rng(15))
        rng = _rng(16)
        for _ in range(10):
            s = [int(x) for x in rng.integers(4, lm.config.vocab_size, 5)]
            assert M.lm_logprob(lm, s) <= 0.0

    def test_distributions_normalized(self):
        lm = M.init_lm(tiny_config(), _rng(17))
        logits = M.lm_logits(lm.params.frozen_view(), lm.config,
                             np.array([[M.BOS, 4, 5, 6]])).data
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.all(np.abs(probs.sum(axis=-1) - 1.0) < 1e-9)

    def test_empty_sentence_rejected(self):
        lm = M.init_lm(tiny_config(), _rng(18))
        with pytest.raises(T.ContractError):
            M.lm_logprob(lm, [])


class TestCompose:
    def test_identity_recomposition(self):
        model = tiny_model(19)
        recomposed = M.compose(model.encoder, model.decoder, model.config)
        src, tgt = [4, 5, 6], [7, 8]
        assert M.nll(recomposed, src, tgt).item() == M.nll(model, src, tgt).item()

    def test_cross_composition_finite(self):
        a, b = tiny_model(20), tiny_model(21)
        hybrid = M.compose(a.encoder, b.decoder, a.config)
        assert np.isfinite(M.nll(hybrid, [4, 5, 6], [7, 8]).item())

    def test_all_four_compositions_valid(self):
        a, b = tiny_model(22), tiny_model(23)
        for enc in (a.encoder, b.encoder):
            for dec in (a.decoder, b.decoder):
                m = M.compose(enc, dec, a.config)
                assert np.isfinite(M.nll(m, [4, 5, 6], [6, 5]).item())

    def test_mutation_isolation(self):
        a, b = tiny_model(24), tiny_model(25)
        hybrid = M.compose(a.encoder, b.decoder, a.config)
        cs_b_enc = b.encoder.checksum()
        hybrid.encoder["emb"].data += 1.0
        assert b.encoder.checksum() == cs_b_enc

    def test_config_mismatch_rejected(self):
        a = tiny_model(26)
        other = tiny_model(27, vocab_size=20)
        with pytest.raises(M.CompatibilityError):
            M.compose(a.encoder, other.decoder, a.config)

    def test_foreign_decoder_hurts_on_home_domain(self):
        """Specialists trained on different tasks: swapping in the foreign
        decoder must raise nll on the home task."""
        cfg = tiny_config(vocab_size=16)
        rng = _rng(28)
        # task A: identity copy; task B: reversal -- trained briefly
        pairs_a = []
        pairs_b = []
        for _ in range(32):
            s = [int(x) for x in rng.integers(4, 16, 5)]
            pairs_a.append((s, list(s)))
            pairs_b.append((s, s[::-1]))

        def train(pairs, seed):
            m = M.init_model(cfg, _rng(seed))
            for _ in range(60):
                idx = rng.integers(0, len(pairs), 8)
                batch = [pairs[i] for i in idx]
                loss = M.nll_batch(m, [p[0] for p in batch], [p[1] for p in batch])
                T.backward(loss)
                T.sgd_step(m.encoder, 0.2)
                T.sgd_step(m.decoder, 0.2)
            return m

        ma, mb = train(pairs_a, 1), train(pairs_b, 2)
        test_a = pairs_a[:16]
        own = M.nll_batch(ma, [p[0] for p in test_a], [p[1] for p in test_a]).item()
        hybrid = M.compose(ma.encoder, mb.decoder, cfg)
        crossed = M.nll_batch(hybrid, [p[0] for p in test_a],
                              [p[1] for p in test_a]).item()
        assert crossed > own


class TestTraining:
    def test_loss_halves_from_uniform_start(self):
        """50 SGD steps on a fixed 16-pair batch cut nll to under half ln V."""
        cfg = tiny_config(vocab_size=16)
        model = M.init_model(cfg, _rng(29))
        rng = _rng(30)
        srcs = [[int(x) for x in rng.integers(4, 16, 5)] for _ in range(16)]
        tgts = [list(s) for s in srcs]
        for _ in range(50):
            loss = M.nll_batch(model, srcs, tgts)
            T.backward(loss)
            T.sgd_step(model.encoder, 0.2)
            T.sgd_step(model.decoder, 0.2)
        final = M.nll_batch(model, srcs, tgts).item()
        assert final <= 0.5 * np.log(cfg.vocab_size)


def _assert_same_params(loaded: T.ParameterSet, ps: T.ParameterSet):
    assert list(loaded) == list(ps)
    for k in ps:
        assert loaded[k].data.dtype == np.float64
        assert np.array_equal(loaded[k].data, ps[k].data)


class TestCheckpoint:
    def test_roundtrip_reproduces_nll_bitwise(self, tmp_path):
        model = tiny_model(31)
        src, tgt = [4, 5, 6, 7], [8, 9]
        before = M.nll(model, src, tgt).item()
        M.save_model(model, tmp_path / "m.json")
        loaded = M.load_model(tmp_path / "m.json")
        assert M.nll(loaded, src, tgt).item() == before
        assert loaded.config == model.config
        _assert_same_params(loaded.encoder, model.encoder)
        _assert_same_params(loaded.decoder, model.decoder)
        lm = M.init_lm(tiny_config(), _rng(32))
        M.save_lm(lm, tmp_path / "lm.json")
        loaded_lm = M.load_lm(tmp_path / "lm.json")
        assert loaded_lm.config == lm.config
        _assert_same_params(loaded_lm.params, lm.params)


def _layer(i, *sublayers):
    """Parameter names of layer i, in init order, for the given sublayers."""
    names = []
    for j, kind in enumerate(sublayers, 1):
        names += [f"l{i}.ln{j}.g", f"l{i}.ln{j}.b"]
        if kind == "ff":
            names += [f"l{i}.ff.w1", f"l{i}.ff.b1", f"l{i}.ff.w2", f"l{i}.ff.b2"]
        else:
            names += [f"l{i}.{kind}.{w}" for w in ("wq", "wk", "wv", "wo")]
    return names


class TestInit:
    def test_parameter_layout_and_checksums_pinned(self):
        """Names, order, shapes and seed-0 values of the three module kinds.

        Init draws only from numpy's seeded generator, with no BLAS, so the
        digests hold on every machine.
        """
        cfg = tiny_config(n_layers=2)          # V 12, d 16, d_ff 24
        model = M.init_model(cfg, _rng(0))
        lm = M.init_lm(cfg, _rng(0))
        enc = ["emb"] + _layer(0, "attn", "ff") + _layer(1, "attn", "ff") + ["ln.g", "ln.b"]
        dec = (["emb"] + _layer(0, "self", "cross", "ff") + _layer(1, "self", "cross", "ff")
               + ["ln.g", "ln.b", "out.w"])
        lm_names = (["emb"] + _layer(0, "self", "ff") + _layer(1, "self", "ff")
                    + ["ln.g", "ln.b", "out.w"])
        # by full name, else by last name part; norms and b2 are (16,)
        shapes = {"emb": (12, 16), "out.w": (16, 12), "w1": (16, 24), "b1": (24,),
                  "w2": (24, 16), "wq": (16, 16), "wk": (16, 16), "wv": (16, 16),
                  "wo": (16, 16)}
        for ps, names in ((model.encoder, enc), (model.decoder, dec), (lm.params, lm_names)):
            assert list(ps) == names
            for k, v in ps.items():
                assert v.shape == shapes.get(k, shapes.get(k.rsplit(".", 1)[-1], (16,))), k
        assert model.encoder.checksum() == (
            "588a8f420057fef26652be322ed6efdf40fbb1117989c3e9af2e6ee23ef2e019")
        assert model.decoder.checksum() == (
            "86a6173099f4e5030ed227ccade12b0bc3aa61c126b672a9075c782a17f43675")
        assert lm.params.checksum() == (
            "bbffa15f20ce88c1ed75f55ba0c23bb0d1853fe523727826248cae557a83a55e")


class TestChecksum:
    def test_equal_across_processes(self):
        """Two interpreters with different hash seeds give the same digests."""
        code = ("import numpy as np; from epinmt import model as M; "
                "m = M.init_model(M.ModelConfig(vocab_size=12, d_model=16, n_layers=1, "
                "n_heads=2, d_ff=24, max_len=16), np.random.default_rng(0)); "
                "print(m.checksum(), m.encoder.checksum(), m.decoder.checksum())")
        outs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", code],
                                  env=child_env(PYTHONHASHSEED=hash_seed),
                                  capture_output=True, text=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0].split()[0] == tiny_model(seed=0).checksum()

    def test_model_digest_orders_encoder_before_decoder(self):
        a = tiny_model(seed=0)
        swapped = M.EncoderDecoderModel(a.config, a.decoder, a.encoder)
        assert a.checksum() != swapped.checksum()
        assert a.checksum() == a.copy().checksum()
