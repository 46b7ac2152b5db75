"""Transformer seq2seq: tokenization, likelihoods, decoding, composition."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from epinmt import corpus as C
from epinmt import evaluate as E
from epinmt import model as M
from epinmt import tensor as T
from epinmt.errors import InternalError

import reference_ops as R
from helpers import (beam_reference, child_env, greedy_reference, tiny_config, tiny_model,
                     random_pair)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestVocabulary:
    def test_empty_input(self):
        assert M.Vocabulary(["a", "b"]).detokenize([]) == ""

    def test_direct_lookup(self):
        assert M.Vocabulary(["a", "b"]).detokenize([4, 5, 4]) == "a b a"

    def test_roundtrip_over_seeded_sentences(self):
        """A detokenized sentence splits back into its ids' tokens."""
        v = M.Vocabulary([f"w{i}" for i in range(30)])
        index = {tok: i for i, tok in enumerate(v.tokens)}
        rng = _rng(1)
        for _ in range(1000):
            ids = [int(i) for i in rng.integers(4, v.size, int(rng.integers(1, 12)))]
            assert [index[tok] for tok in v.detokenize(ids).split(" ")] == ids

    def test_reserved_ids_fixed(self):
        v = M.Vocabulary(["a"])
        assert v.tokens[:4] == list(M.RESERVED_TOKENS)
        assert (M.PAD, M.BOS, M.EOS, M.UNK) == (0, 1, 2, 3)

    def test_file_roundtrip(self, tmp_path):
        """The vocabulary file holds one token a line, in id order."""
        v = M.Vocabulary([f"w{i}" for i in range(7)])
        v.save(tmp_path / "vocab.txt")
        assert (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines() == v.tokens


class TestEncode:
    def test_output_shape(self):
        model = tiny_model(0)
        mem = M.encode_batch(model.encoder, model.config, np.array([[4, 5, 6], [7, 8, 0]]))
        assert mem.shape == (2, 3, model.config.d_model)

    def test_bitwise_determinism(self):
        model = tiny_model(1)
        a = M.encode_batch(model.encoder, model.config, np.array([[4, 5, 6, 7]])).data
        b = M.encode_batch(model.encoder, model.config, np.array([[4, 5, 6, 7]])).data
        assert a.tobytes() == b.tobytes()

    def test_positional_encoding_not_degenerate(self):
        model = tiny_model(2)
        a = M.encode_batch(model.encoder, model.config, np.array([[4, 5, 6]])).data
        b = M.encode_batch(model.encoder, model.config, np.array([[5, 4, 6]])).data
        assert not np.allclose(a, b)

    def test_overlength_rejected(self):
        model = tiny_model(3)
        with pytest.raises(InternalError, match=r"sequence length 17 > max_len 16"):
            M.encode_batch(model.encoder, model.config,
                           np.array([[4] * (model.config.max_len + 1)]))


class TestMemoizedArrays:
    def test_read_only_and_equal_to_the_formula(self):
        for length, d in ((1, 4), (7, 16), (12, 24)):
            pe = M.positional_encoding(length, d)
            angle = np.arange(length)[:, None] / 10000.0 ** (2.0 * np.arange(d // 2) / d)
            want = np.stack([np.sin(angle), np.cos(angle)], axis=-1).reshape(length, d)
            assert np.array_equal(pe, want)
            mask = M._causal_mask(length)
            later = np.arange(length)[None, :] > np.arange(length)[:, None]
            assert mask.shape == (1, 1, length, length)
            assert np.array_equal(mask[0, 0], np.where(later, M.NEG_INF, 0.0))
            for arr, again in ((pe, M.positional_encoding(length, d)),
                               (mask, M._causal_mask(length))):
                assert again is arr and not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[..., 0] = 1.0


class TestNll:
    def test_uniform_model_gives_log_v(self):
        model = tiny_model(4)
        model.decoder["out.w"].data[:] = 0.0
        for pair in ([4, 5, 6], [7, 8]), ([5], [9, 10, 11]):
            loss = M.nll_batch(model, [pair[0]], [pair[1]])
            assert loss.item() == pytest.approx(np.log(model.config.vocab_size),
                                                abs=1e-12)

    def test_nonnegative(self):
        rng = _rng(5)
        for seed in range(5):
            model = tiny_model(seed)
            src, tgt = random_pair(rng, model.config)
            assert M.nll_batch(model, [src], [tgt]).item() >= 0.0

    def test_empty_sequence_rejected(self):
        model = tiny_model(6)
        with pytest.raises(InternalError, match="nll: empty batch or empty sequence"):
            M.nll_batch(model, [[]], [[4]])

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
        assert M.nll_batch(model, [src], [tgt]).item() == pytest.approx(oracle, abs=1e-10)

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


def _few_tokens_case(n_layers):
    """Width 5 over a vocabulary of 6, where only EOS, 4 and 5 can be
    emitted: beam 0's three candidates leave two beams at NEG_INF after the
    first step."""
    model = tiny_model(3, n_layers=n_layers, vocab_size=6)
    return model, [[4], [5, 4], [4, 4, 5], [5, 5, 5, 4]], 5, 8


def _early_finish_case(n_layers):
    """A batch in which every beam of [6], [8] and [10] has emitted EOS
    within 5 steps, while the other sentences run to max_steps."""
    model = tiny_model(19, n_layers=n_layers)
    model.decoder["out.w"].data[:, M.EOS] *= 3
    return model, [[4], [6], [7, 7], [8], [5], [10]], 5, 12


def _decode_cases(n_layers):
    """(model, sources, width, max_steps): widths 1, 2 and 5, ragged batches
    that hold length-1 sources, max_steps below and beyond what max_len
    allows, two uniform models, where every token ties at every step, and
    the two cases above."""
    rng = _rng(50)
    for seed in range(8):
        model = tiny_model(seed, n_layers=n_layers)
        if seed >= 6:
            model.decoder["out.w"].data[:] = 0.0
        srcs = [[int(x) for x in rng.integers(4, 12, int(m))] for m in rng.integers(1, 9, 6)]
        srcs.insert(seed % 6, [int(rng.integers(4, 12))])
        for width in (1, 2, 5):
            for max_steps in (6, 2 * model.config.max_len):
                yield model, srcs, width, max_steps
    yield _few_tokens_case(n_layers)
    yield _early_finish_case(n_layers)


def _decoder_inputs(model, srcs, width, max_steps):
    """(src_ids, dec_in) of every `decoder_logits` call that one
    `beam_decode_batch` makes."""
    calls, decoder_logits = [], M.decoder_logits

    def spy(phi, cfg, memory, src_ids, dec_in, cache=None):
        calls.append((src_ids, dec_in))
        return decoder_logits(phi, cfg, memory, src_ids, dec_in, cache)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(M, "decoder_logits", spy)
        M.beam_decode_batch(model, srcs, width, max_steps)
    return calls


class TestDecode:
    def test_cached_decoding_is_bit_identical_at_one_layer(self):
        """At one layer, decoding with the K/V cache equals rerunning the
        decoder over every whole prefix, bit for bit: tokens, logprob and
        truncated."""
        stops = truncs = 0
        for model, srcs, width, max_steps in _decode_cases(n_layers=1):
            got = M.beam_decode_batch(model, srcs, width, max_steps)
            assert got == beam_reference(model, srcs, width, max_steps)
            stops += sum(not r.truncated for r in got)
            truncs += sum(r.truncated for r in got)
        assert stops > 0 and truncs > 0

    def test_decodes_only_live_rows(self):
        """The first step decodes beam 0 of each sentence alone. Later steps
        decode only beams whose last token is a content token: none that has
        finished (EOS or PAD last) and none at NEG_INF (a banned token last)."""
        for case in _decode_cases(n_layers=1):
            calls = _decoder_inputs(*case)
            assert calls[0][1].tolist() == [[M.BOS]] * len(case[1])
            for _, dec_in in calls[1:]:
                assert (dec_in[:, -1] >= len(M.RESERVED_TOKENS)).all()

    def test_finished_sentences_leave_the_batch(self):
        """In the early-finish case, [6], [8] and [10] are gone from the
        decoder's rows after step 5; the other three run on to step 12."""
        model, srcs, width, max_steps = _early_finish_case(n_layers=1)
        calls = _decoder_inputs(model, srcs, width, max_steps)
        live = [{tuple(s[s != M.PAD][:-1]) for s in src_ids} for src_ids, _ in calls]
        assert live[:4] == [set(map(tuple, srcs))] * 4 and len(live) == max_steps
        assert live[5:] == [{(4,), (7, 7), (5,)}] * (max_steps - 5)

    def test_cached_decoding_keeps_the_tokens_at_two_layers(self):
        """At two layers the second layer's K/V of earlier positions are
        computed once, over the keys of their own step, instead of over the
        whole (masked) prefix at every step: the tokens are the same, and the
        scores agree to 1e-12."""
        for model, srcs, width, max_steps in _decode_cases(n_layers=2):
            got = M.beam_decode_batch(model, srcs, width, max_steps)
            want = beam_reference(model, srcs, width, max_steps)
            assert [(r.tokens, r.truncated) for r in got] == [
                (r.tokens, r.truncated) for r in want]
            assert max(abs(a.logprob - b.logprob) for a, b in zip(got, want)) <= 1e-12

    def test_translate_corpus_does_not_depend_on_the_chunk(self, monkeypatch):
        model = tiny_model(14)
        rng = _rng(51)
        pairs = [C.SentencePair(s, t, 0) for s, t in
                 (random_pair(rng, model.config, n=int(n)) for n in rng.integers(1, 9, 10))]
        want = [r.tokens[:-1] if not r.truncated else r.tokens
                for r in beam_reference(model, [p.source for p in pairs], 5, 8)]
        # corpora of 4, 0, 1 and 5 pairs: at chunk 3 the first and the last
        # each cross a chunk boundary, and the last shares a chunk with the one before
        corpora = [pairs[:4], [], pairs[4:5], pairs[5:]]
        for chunk in (3, 64):
            monkeypatch.setattr(E, "DECODE_CHUNK", chunk)
            assert E.translate_corpus(model, pairs, 5, 8) == want
            assert E.translate_corpora(model, corpora, 5, 8) == [
                want[:4], [], want[4:5], want[5:]]

    def test_beam1_equals_greedy_over_seeded_cases(self):
        """Beam width 1 against the independent greedy reference: 100 cases
        on seeded models (a few stop at EOS), and 20 on uniform models,
        where every token ties at every step and max_steps exceeds what
        max_len allows."""
        rng = _rng(9)
        hits = stops = 0
        for seed in range(24):
            model = tiny_model(seed % 20)
            max_steps = 8
            if seed >= 20:
                model.decoder["out.w"].data[:] = 0.0
                max_steps = 2 * model.config.max_len
            for _ in range(5):
                src, _ = random_pair(rng, model.config)
                want = greedy_reference(model, src, max_steps)
                assert M.beam_decode_batch(model, [src], 1, max_steps)[0].tokens == want
                hits += 1
                stops += M.EOS in want
        assert hits == 120 and stops > 0

    def test_uniform_model_emits_lowest_content_token(self):
        model = tiny_model(10)
        model.decoder["out.w"].data[:] = 0.0
        res = M.beam_decode_batch(model, [[4, 5, 6]], 1, 6)[0]
        assert res.tokens == [4] * 6
        assert res.truncated

    def test_beam5_score_at_least_greedy(self):
        rng = _rng(11)
        for seed in range(20):
            model = tiny_model(seed + 100)
            for _ in range(5):
                src, _ = random_pair(rng, model.config)
                g = M.beam_decode_batch(model, [src], 1, 8)[0]
                b = M.beam_decode_batch(model, [src], 5, 8)[0]
                assert b.logprob >= g.logprob - 1e-12

    def test_beam_width_validated(self):
        with pytest.raises(ValueError):
            M.beam_decode_batch(tiny_model(12), [[4]], 0, 6)

    def test_decoding_does_not_mutate(self):
        model = tiny_model(13)
        cs = model.checksum()
        M.beam_decode_batch(model, [[4, 5, 6]], 3, 6)
        assert model.checksum() == cs


class TestLanguageModel:
    def test_uniform_lm_logprob(self):
        lm = M.init_lm(tiny_config(), _rng(14))
        lm.params["out.w"].data[:] = 0.0
        v = lm.config.vocab_size
        for length in (1, 3, 5):
            got = M.lm_logprob_batch(lm, [[4] * length])[0]
            assert got == pytest.approx(-(length + 1) * np.log(v), abs=1e-9)

    def test_logprob_nonpositive(self):
        lm = M.init_lm(tiny_config(), _rng(15))
        rng = _rng(16)
        for _ in range(10):
            s = [int(x) for x in rng.integers(4, lm.config.vocab_size, 5)]
            assert M.lm_logprob_batch(lm, [s])[0] <= 0.0

    def test_distributions_normalized(self):
        lm = M.init_lm(tiny_config(), _rng(17))
        logits = M.lm_logits(lm.params.frozen_view(), lm.config,
                             np.array([[M.BOS, 4, 5, 6]])).data
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        assert np.all(np.abs(probs.sum(axis=-1) - 1.0) < 1e-9)

    def test_empty_sentence_rejected(self):
        lm = M.init_lm(tiny_config(), _rng(18))
        with pytest.raises(InternalError, match="lm_logprob: empty sentence"):
            M.lm_logprob_batch(lm, [[]])


class TestCompose:
    def test_identity_recomposition(self):
        model = tiny_model(19)
        recomposed = M.compose(model.encoder, model.decoder, model.config)
        src, tgt = [4, 5, 6], [7, 8]
        assert (M.nll_batch(recomposed, [src], [tgt]).item()
                == M.nll_batch(model, [src], [tgt]).item())

    def test_cross_composition_finite(self):
        a, b = tiny_model(20), tiny_model(21)
        hybrid = M.compose(a.encoder, b.decoder, a.config)
        assert np.isfinite(M.nll_batch(hybrid, [[4, 5, 6]], [[7, 8]]).item())

    def test_all_four_compositions_valid(self):
        a, b = tiny_model(22), tiny_model(23)
        for enc in (a.encoder, b.encoder):
            for dec in (a.decoder, b.decoder):
                m = M.compose(enc, dec, a.config)
                assert np.isfinite(M.nll_batch(m, [[4, 5, 6]], [[6, 5]]).item())

    def test_mutation_isolation(self):
        a, b = tiny_model(24), tiny_model(25)
        hybrid = M.compose(a.encoder, b.decoder, a.config)
        cs_b_enc = b.encoder.checksum()
        hybrid.encoder["emb"].data += 1.0
        assert b.encoder.checksum() == cs_b_enc

    def test_config_mismatch_rejected(self):
        a = tiny_model(26)
        other = tiny_model(27, vocab_size=20)
        with pytest.raises(InternalError, match="decoder projection .* does not match config"):
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


# The op chains that the fused layer ops replace: the layers as they were
# composed before `tensor.linear`, `attention` (now `reference_ops.attention`),
# `embed` and `masked_cross_entropy` existed, and the sublayers as they were
# composed of those ops before `attn_block` and `ff_block`. Patched in
# together, every sublayer runs as fine-grained ops.


def _chain_linear(x, w, b=None):
    y = T.matmul(x, w)
    return y if b is None else T.add(y, b)


def _chain_attention(q, k, v, mask, n_heads):
    def split(t):
        b, length, d = t.shape
        return T.transpose(T.reshape(t, (b, length, n_heads, d // n_heads)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    dk = q.shape[2] // n_heads
    scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    if mask is not None:
        scores = T.add(scores, T.Tensor(mask))
    out = T.matmul(T.softmax(scores), vh)
    b, h, length, _ = out.shape
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, length, h * dk))


def _chain_embed(table, ids, c, pe):
    return T.add(T.scale(T.embedding(table, ids), c), T.Tensor(pe))


def _chain_masked_xent(logits, targets, valid):
    b, length, v = logits.shape
    idx = np.flatnonzero(valid.reshape(-1))
    flat = T.reshape(logits, (b * length, v))
    return T.softmax_cross_entropy(T.gather_rows(flat, idx), targets.reshape(-1)[idx])


def _chain_attn_block(x, gain, bias, wq, wk, wv, wo, mask, n_heads, kv=None, cache=None):
    nx = T.layer_norm(x, gain, bias)
    q = T.linear(nx, wq)
    k, v = kv if kv is not None else (T.linear(nx, wk), T.linear(nx, wv))
    if cache is not None:
        kbuf, vbuf, start = cache
        end = start + x.shape[1]
        kbuf[:, start:end], vbuf[:, start:end] = k.data, v.data
        k, v = T.Tensor(kbuf[:, :end]), T.Tensor(vbuf[:, :end])
    return T.add(x, T.linear(R.attention(q, k, v, mask, n_heads), wo))


def _chain_ff_block(x, gain, bias, w1, b1, w2, b2):
    h = T.gelu(T.linear(T.layer_norm(x, gain, bias), w1, b1))
    return T.add(x, T.linear(h, w2, b2))


CHAINS = {(T, "linear"): _chain_linear, (R, "attention"): _chain_attention,
          (T, "embed"): _chain_embed, (T, "masked_cross_entropy"): _chain_masked_xent,
          (T, "attn_block"): _chain_attn_block, (T, "ff_block"): _chain_ff_block}


def _graph_nodes(loss: T.Tensor) -> int:
    """Op nodes reachable from a loss that has not been back-propagated."""
    seen, todo = set(), [loss]
    while todo:
        t = todo.pop()
        if t._backward is not None and id(t) not in seen:
            seen.add(id(t))
            todo.extend(t._parents)
    return len(seen)


def _ragged_batch(cfg, n=8, seed=40):
    rng = _rng(seed)
    srcs = [[int(x) for x in rng.integers(4, cfg.vocab_size, int(m))]
            for m in rng.integers(1, 9, n)]
    tgts = [[int(x) for x in rng.integers(4, cfg.vocab_size, int(m))]
            for m in rng.integers(1, 9, n)]
    return srcs, tgts


class TestFusedLayerOps:
    def _run(self):
        """Two SGD steps, then every loss and gradient of one more pass: the
        full model, the encoder against a frozen decoder, and the LM."""
        cfg = tiny_config(vocab_size=20, n_layers=2, n_heads=2)
        srcs, tgts = _ragged_batch(cfg)
        model = M.init_model(cfg, _rng(41))
        partner = M.init_model(cfg, _rng(42)).decoder.frozen_view()
        lm = M.init_lm(cfg, _rng(43))
        for _ in range(2):
            T.backward(M.nll_batch(model, srcs, tgts))
            T.sgd_step(model.encoder, 0.2)
            T.sgd_step(model.decoder, 0.2)
            T.backward(M.lm_nll_batch(lm, tgts))
            T.sgd_step(lm.params, 0.2)
        out = {}
        for label, loss_of, modules in (
                ("nmt", lambda: M.nll_batch(model, srcs, tgts),
                 {"enc": model.encoder, "dec": model.decoder}),
                ("hybrid", lambda: M.nll_batch(M.EncoderDecoderModel(
                    cfg, model.encoder, partner), srcs, tgts), {"enc": model.encoder}),
                ("lm", lambda: M.lm_nll_batch(lm, tgts), {"lm": lm.params})):
            loss = loss_of()
            T.backward(loss)
            out[label] = loss.item()
            for kind, ps in modules.items():
                for name, p in ps.items():
                    out[f"{label}.{kind}.{name}"], p.grad = p.grad, None
        # decoding's cached self-attention runs through attn_block (or its chain) too
        beams = [(r.tokens, r.logprob) for r in M.beam_decode_batch(model, srcs, 3, 6)]
        return out, beams

    def test_bit_identical_to_the_op_chains(self, monkeypatch):
        fused, fused_beams = self._run()
        for (module, name), fn in CHAINS.items():
            monkeypatch.setattr(module, name, fn)
        chained, chained_beams = self._run()
        assert fused_beams == chained_beams
        assert list(fused) == list(chained)
        for key, value in fused.items():
            assert np.array_equal(value, chained[key]), key

    def test_nodes_per_loss_on_the_lab_shape(self, monkeypatch):
        cfg = M.ModelConfig(d_model=24, n_layers=1, n_heads=4, d_ff=48, max_len=16,
                            vocab_size=28)
        model = M.init_model(cfg, _rng(0))
        srcs, tgts = _ragged_batch(cfg)
        # 2 embeds, 2 encoder and 3 decoder blocks, the cross-attention's K and
        # V projections, 2 final norms, the output projection and the loss
        assert _graph_nodes(M.nll_batch(model, srcs, tgts)) <= 13
        for (module, name), fn in CHAINS.items():
            monkeypatch.setattr(module, name, fn)
        assert _graph_nodes(M.nll_batch(model, srcs, tgts)) == 86


def _assert_same_params(loaded: T.ParameterSet, ps: T.ParameterSet):
    assert list(loaded) == list(ps)
    for k in ps:
        assert loaded[k].data.dtype == np.float64
        assert np.array_equal(loaded[k].data, ps[k].data)


class TestCheckpoint:
    def test_roundtrip_reproduces_nll_bitwise(self, tmp_path):
        model = tiny_model(31)
        src, tgt = [4, 5, 6, 7], [8, 9]
        before = M.nll_batch(model, [src], [tgt]).item()
        M.save_model(model, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text))      # json.dumps' own bytes
        loaded = M.load_model(tmp_path / "m.json")
        assert M.nll_batch(loaded, [src], [tgt]).item() == before
        assert loaded.config == model.config
        _assert_same_params(loaded.encoder, model.encoder)
        _assert_same_params(loaded.decoder, model.decoder)


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


def test_training_step_loads_no_scipy_package():
    """GELU's erf comes from scipy's extension module alone: neither `scipy`
    nor `scipy.special` runs in a process that trains the model."""
    code = ("import sys, numpy as np; from epinmt import model as M, tensor as T; "
            "m = M.init_model(M.ModelConfig(vocab_size=12, d_model=16, n_layers=1, "
            "n_heads=2, d_ff=24, max_len=16), np.random.default_rng(0)); "
            "T.backward(M.nll_batch(m, [[4, 5, 6]], [[7, 8]])); "
            "assert m.encoder['l0.ff.w1'].grad is not None; "
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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
