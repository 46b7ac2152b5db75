"""Small encoder-decoder transformer with swappable modules.

The encoder and decoder each own an independent ParameterSet built from one
ModelConfig, so any encoder composes with any decoder of the same config.
A decoder-only variant (causal self-attention, no cross-attention) serves as
the language model used for divergence scoring. All three are one pre-LN
transformer stack (`_init_stack`, `_stack`) that differ only in the sublayers
of a layer (ENCODER, DECODER, LM) and in the output projection.

Conventions:
  * sources are fed as `tokens + [EOS]`, targets are teacher-forced as
    `[BOS] + tokens` predicting `tokens + [EOS]`;
  * nll is the mean per-token negative log-likelihood (EOS included);
  * decoding never emits PAD/BOS/UNK, and on exact score ties prefers the
    lowest-id content token, then EOS, then the lowest beam index.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .errors import InternalError, at_least
from .tensor import ParameterSet, Tensor

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

NEG_INF = -1e9


class Vocabulary:
    """The tokens by id, with fixed reserved ids 0..3."""

    def __init__(self, content_tokens: list[str]):
        tokens = list(RESERVED_TOKENS) + list(content_tokens)
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = tokens

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def content_ids(self) -> list[int]:
        return list(range(len(RESERVED_TOKENS), self.size))

    def detokenize(self, ids: list[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")


@dataclass
class ModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_len: int = 64
    vocab_size: int = 128

    def __post_init__(self):
        at_least(self, d_model=1, n_layers=1, n_heads=1, d_ff=1, max_len=1,
                 vocab_size=len(RESERVED_TOKENS) + 1)
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


# ---------------------------------------------------------------------------
# parameter construction


def _init_matrix(rng, n_in, n_out):
    return Tensor(rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out)),
                  grad_enabled=True)


def _add_ln(params: ParameterSet, prefix: str, d: int) -> None:
    params[f"{prefix}.g"] = Tensor(np.ones(d), grad_enabled=True)
    params[f"{prefix}.b"] = Tensor(np.zeros(d), grad_enabled=True)


# The sublayers of one layer, per module kind. Sublayer j (from 1) of layer i
# is pre-normed by `l{i}.ln{j}`; "ff" is the feed-forward block, "cross"
# attends over the encoder memory and any other name is self-attention.
ENCODER = ("attn", "ff")
DECODER = ("self", "cross", "ff")
LM = ("self", "ff")


def _init_stack(cfg: ModelConfig, rng, sublayers: tuple[str, ...],
                head: bool) -> ParameterSet:
    """Embedding, n_layers of `sublayers`, final norm and, with `head`, the
    output projection; parameters are named and drawn in that order."""
    d, d_ff = cfg.d_model, cfg.d_ff
    p = ParameterSet()
    p["emb"] = Tensor(rng.normal(0.0, 0.02, size=(cfg.vocab_size, d)), grad_enabled=True)
    for i in range(cfg.n_layers):
        for j, kind in enumerate(sublayers, 1):
            _add_ln(p, f"l{i}.ln{j}", d)
            if kind == "ff":
                p[f"l{i}.ff.w1"] = _init_matrix(rng, d, d_ff)
                p[f"l{i}.ff.b1"] = Tensor(np.zeros(d_ff), grad_enabled=True)
                p[f"l{i}.ff.w2"] = _init_matrix(rng, d_ff, d)
                p[f"l{i}.ff.b2"] = Tensor(np.zeros(d), grad_enabled=True)
            else:
                for w in ("wq", "wk", "wv", "wo"):
                    p[f"l{i}.{kind}.{w}"] = _init_matrix(rng, d, d)
    _add_ln(p, "ln", d)
    if head:
        p["out.w"] = _init_matrix(rng, d, cfg.vocab_size)
    return p


@dataclass
class EncoderDecoderModel:
    config: ModelConfig
    encoder: ParameterSet
    decoder: ParameterSet

    def copy(self) -> "EncoderDecoderModel":
        return EncoderDecoderModel(self.config, self.encoder.copy(), self.decoder.copy())

    def checksum(self) -> str:
        """sha256 over the encoder's checksum, then the decoder's."""
        both = self.encoder.checksum() + self.decoder.checksum()
        return hashlib.sha256(both.encode()).hexdigest()


@dataclass
class LanguageModel:
    config: ModelConfig
    params: ParameterSet

    def copy(self) -> "LanguageModel":
        return LanguageModel(self.config, self.params.copy())


def init_model(cfg: ModelConfig, rng) -> EncoderDecoderModel:
    return EncoderDecoderModel(cfg, _init_stack(cfg, rng, ENCODER, head=False),
                               _init_stack(cfg, rng, DECODER, head=True))


def init_lm(cfg: ModelConfig, rng) -> LanguageModel:
    return LanguageModel(cfg, _init_stack(cfg, rng, LM, head=True))


def compose(theta: ParameterSet, phi: ParameterSet, cfg: ModelConfig) -> EncoderDecoderModel:
    """Pair an encoder with a decoder by reference; no parameters are copied."""
    if "out.w" not in phi or "emb" not in theta:
        raise InternalError("compose: arguments look swapped or incomplete")
    if theta["emb"].shape != (cfg.vocab_size, cfg.d_model):
        raise InternalError(
            f"encoder embedding {theta['emb'].shape} does not match config "
            f"({cfg.vocab_size}, {cfg.d_model})")
    if phi["out.w"].shape != (cfg.d_model, cfg.vocab_size):
        raise InternalError(f"decoder projection {phi['out.w'].shape} does not match config")
    return EncoderDecoderModel(cfg, theta, phi)


# ---------------------------------------------------------------------------
# forward passes


@functools.cache
def positional_encoding(length: int, d: int) -> np.ndarray:
    """Sinusoidal positions [length, d]; memoized, so read-only."""
    pos = np.arange(length)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((length, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def _embed(p: ParameterSet, ids: np.ndarray, cfg: ModelConfig, start: int = 0) -> Tensor:
    pe = positional_encoding(start + ids.shape[-1], cfg.d_model)[start:]
    return T.embed(p["emb"], ids, math.sqrt(cfg.d_model), pe)


def _pad_mask(ids: np.ndarray) -> np.ndarray:
    # additive mask over keys: [B, 1, 1, L]
    return np.where(ids == PAD, NEG_INF, 0.0)[:, None, None, :]


@functools.cache
def _causal_mask(length: int) -> np.ndarray:
    """Additive mask [1, 1, L, L] hiding later positions; memoized, so read-only."""
    m = np.triu(np.full((length, length), NEG_INF), k=1)[None, None, :, :]
    m.flags.writeable = False
    return m


@dataclass
class _DecodeCache:
    """Incremental decoding's state: every layer's self-attention K and V,
    `kv` [n_layers, 2, rows, max_len, d], the memory's cross-attention (K, V)
    per layer, and `start`, the position of the next decoder input's first row."""
    kv: np.ndarray
    cross_kv: list[tuple[Tensor, Tensor]]
    start: int = 0


def _stack(p: ParameterSet, cfg: ModelConfig, ids: np.ndarray, self_mask: np.ndarray,
           sublayers: tuple[str, ...], memory: Tensor | None = None,
           mem_mask: np.ndarray | None = None, cache: _DecodeCache | None = None) -> Tensor:
    """Pre-LN transformer body over `ids`: [B, L, d_model] after the final norm,
    one `attn_block` or `ff_block` node per sublayer. With a cache, ids are the
    positions from cache.start on, and self-attention extends the cached K/V."""
    start = cache.start if cache else 0
    if start + ids.shape[-1] > cfg.max_len:
        raise InternalError(f"sequence length {start + ids.shape[-1]} > max_len {cfg.max_len}")
    x = _embed(p, ids, cfg, start)
    for i in range(cfg.n_layers):
        for j, kind in enumerate(sublayers, 1):
            pre, ln = f"l{i}.{kind}", (p[f"l{i}.ln{j}.g"], p[f"l{i}.ln{j}.b"])
            if kind == "ff":
                x = T.ff_block(x, *ln, *(p[f"{pre}.{n}"] for n in ("w1", "b1", "w2", "b2")))
                continue
            wq, wk, wv, wo = (p[f"{pre}.{n}"] for n in ("wq", "wk", "wv", "wo"))
            if kind == "cross":
                kv = cache.cross_kv[i] if cache else (T.linear(memory, wk), T.linear(memory, wv))
                x = T.attn_block(x, *ln, wq, None, None, wo, mem_mask, cfg.n_heads, kv)
            else:
                x = T.attn_block(x, *ln, wq, wk, wv, wo, self_mask, cfg.n_heads,
                                 cache=None if cache is None else (*cache.kv[i], start))
    return T.layer_norm(x, p["ln.g"], p["ln.b"])


def encode_batch(theta: ParameterSet, cfg: ModelConfig, src_ids: np.ndarray) -> Tensor:
    """Per-token memory features [B, Ls, d_model] for padded source ids."""
    return _stack(theta, cfg, src_ids, _pad_mask(src_ids), ENCODER)


def decoder_logits(phi: ParameterSet, cfg: ModelConfig, memory: Tensor | None,
                   src_ids: np.ndarray, dec_in: np.ndarray,
                   cache: _DecodeCache | None = None) -> Tensor:
    """Teacher-forced decoder logits [B, Lt, V]. With a cache, dec_in holds
    the positions from cache.start on, and cache.cross_kv stands for memory."""
    start = cache.start if cache else 0
    mask = _causal_mask(start + dec_in.shape[-1])[:, :, start:]
    x = _stack(phi, cfg, dec_in, mask, DECODER, memory, _pad_mask(src_ids), cache)
    return T.linear(x, phi["out.w"])


def lm_logits(params: ParameterSet, cfg: ModelConfig, dec_in: np.ndarray) -> Tensor:
    """Causal next-token logits [B, L, V] for the decoder-only language model."""
    x = _stack(params, cfg, dec_in, _causal_mask(dec_in.shape[-1]), LM)
    return T.linear(x, params["out.w"])


# ---------------------------------------------------------------------------
# likelihoods


def _pad_batch(seqs: list[list[int]]) -> np.ndarray:
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), PAD, dtype=np.int64)
    for r, s in enumerate(seqs):
        out[r, : len(s)] = s
    return out


def _teacher_force(seqs: list[list[int]]):
    """Padded (input, output) ids: `[BOS] + s` predicts `s + [EOS]`."""
    return _pad_batch([[BOS] + s for s in seqs]), _pad_batch([s + [EOS] for s in seqs])


def prepare_batch(sources: list[list[int]], targets: list[list[int]]):
    """Pad and teacher-force: returns (src_ids, dec_in, tgt_out, valid_mask)."""
    dec_in, tgt_out = _teacher_force(targets)
    return _pad_batch([s + [EOS] for s in sources]), dec_in, tgt_out, tgt_out != PAD


def _masked_xent(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of logits [B, L, V] against the non-PAD targets [B, L]."""
    return T.masked_cross_entropy(logits, targets, targets != PAD)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _target_logprobs(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """log P(target) at each position of [B, L]; 0 where the target is PAD."""
    rows = np.take_along_axis(_log_softmax(logits), targets[..., None], axis=-1)[..., 0]
    return np.where(targets != PAD, rows, 0.0)


def nll_batch(model: EncoderDecoderModel, sources: list[list[int]],
              targets: list[list[int]]) -> Tensor:
    """Mean per-token teacher-forced negative log-likelihood over the batch."""
    if not sources or any(len(s) == 0 for s in sources) or any(len(t) == 0 for t in targets):
        raise InternalError("nll: empty batch or empty sequence")
    cfg = model.config
    src, dec_in, tgt_out, _ = prepare_batch(sources, targets)
    memory = encode_batch(model.encoder, cfg, src)
    return _masked_xent(decoder_logits(model.decoder, cfg, memory, src, dec_in), tgt_out)


def nll_per_pair(model: EncoderDecoderModel, sources: list[list[int]],
                 targets: list[list[int]]) -> np.ndarray:
    """Per-pair mean-per-token nll (EOS included), computed without gradients."""
    cfg = model.config
    src, dec_in, tgt_out, valid = prepare_batch(sources, targets)
    memory = encode_batch(model.encoder.frozen_view(), cfg, src)
    logits = decoder_logits(model.decoder.frozen_view(), cfg, memory, src, dec_in).data
    return -_target_logprobs(logits, tgt_out).sum(axis=-1) / valid.sum(axis=-1)


def lm_nll_batch(lm: LanguageModel, sentences: list[list[int]]) -> Tensor:
    """Mean per-token next-token nll; the LM training objective."""
    dec_in, tgt = _teacher_force(sentences)
    return _masked_xent(lm_logits(lm.params, lm.config, dec_in), tgt)


def lm_logprob_batch(lm: LanguageModel, sentences: list[list[int]]) -> np.ndarray:
    """log P(sentence) per sentence: BOS-conditioned, EOS included. No grads."""
    if any(len(s) == 0 for s in sentences):
        raise InternalError("lm_logprob: empty sentence")
    dec_in, tgt = _teacher_force(sentences)
    logits = lm_logits(lm.params.frozen_view(), lm.config, dec_in).data
    return _target_logprobs(logits, tgt).sum(axis=-1)


# ---------------------------------------------------------------------------
# decoding


@dataclass
class DecodeResult:
    tokens: list[int]
    logprob: float      # length-normalized sum of token log-probabilities
    truncated: bool = False


def beam_decode_batch(model: EncoderDecoderModel, sources: list[list[int]],
                      beam_width: int, max_steps: int) -> list[DecodeResult]:
    """Batched beam search over all sources at once.

    Scores are length-normalized sums of log-probabilities. Exact ties are
    broken by lowest content-token id (EOS loses ties), then lowest beam
    index, which pins down the degenerate all-uniform case.

    Decoding is incremental: each step runs the decoder over only the newest
    two positions (position 0 alone at the first) against every layer's
    cached self-attention K/V, which follows each beam's parent. With
    OpenBLAS 0.3.31, matmul gives a row the same bits for any row count of 2
    or more, so at one layer tokens, logprob and truncated equal those of a
    full-prefix rerun bit for bit. At more layers a deeper layer's K/V of an
    earlier position is computed once, over the keys of its own step, not
    over each step's longer masked key axis, so scores may move in the last
    bits.

    Only live rows are decoded: beams not finished and above NEG_INF (at the
    first step, beam 0 alone); the rest get NEG_INF log-probabilities. No
    result moves: a finished beam only extends with PAD, and the rest rank
    below every live or finished beam's candidates. Nor do a live row's bits
    as other rows drop out: numpy runs a batched matmul one item at a time,
    and layer ops row by row. The sources that share the batch do count:
    they set the padded source width, and a row's scores can move in the
    last bits with it (a longer source added to three short ones moved about
    a third of their logprobs, and none of their tokens).
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    cfg = model.config
    b, w, v = len(sources), beam_width, cfg.vocab_size
    enc = model.encoder.frozen_view()
    dec = model.decoder.frozen_view()
    src = _pad_batch([s + [EOS] for s in sources])
    memory = encode_batch(enc, cfg, src)
    # per-sentence cross-attention K/V, gathered for the live rows each step
    cross = [(T.linear(memory, dec[f"l{i}.cross.wk"]).data,
              T.linear(memory, dec[f"l{i}.cross.wv"]).data) for i in range(cfg.n_layers)]
    kv = np.zeros((cfg.n_layers, 2, b * w, cfg.max_len, cfg.d_model))

    tokens = np.full((b, w, 1), BOS, dtype=np.int64)
    sums = np.zeros((b, w))
    sums[:, 1:] = NEG_INF          # only beam 0 live at the start
    finished = np.zeros((b, w), dtype=bool)
    lengths = np.zeros((b, w), dtype=np.int64)
    live = np.arange(b) * w        # flat (sentence * w + beam) ids of the live rows

    banned = np.array([PAD, BOS, UNK])
    rows = np.arange(b)[:, None]
    # candidate keys of one sentence's flattened [W, V] scores, and their tie order
    tok_ids, beam_ids = np.tile(np.arange(v), w), np.repeat(np.arange(w), v)
    ties = np.lexsort((beam_ids, tok_ids, tok_ids == EOS))
    max_steps = min(max_steps, cfg.max_len - 1)
    for _ in range(max_steps):
        if not live.size:
            break
        t, sent = tokens.shape[-1], live // w              # emitted so far = t-1
        cache = _DecodeCache(kv[:, :, :live.size], [
            (Tensor(k[sent]), Tensor(vv[sent])) for k, vv in cross], max(t - 2, 0))
        window = tokens.reshape(b * w, -1)[live, cache.start:]
        logits = decoder_logits(dec, cfg, None, src[sent], window, cache).data
        logp = np.full((b, w, v), NEG_INF)
        logp.reshape(b * w, v)[live] = _log_softmax(logits[:, -1, :])
        logp[:, :, banned] = NEG_INF
        cand = sums[:, :, None] + logp                     # [B, W, V]
        norm = cand / t                                    # hypotheses of length t
        # finished beams persist unchanged as a PAD-extension candidate
        fin_b, fin_w = np.nonzero(finished)
        cand[fin_b, fin_w, :] = NEG_INF
        cand[fin_b, fin_w, PAD] = sums[fin_b, fin_w]
        norm[fin_b, fin_w, :] = NEG_INF
        norm[fin_b, fin_w, PAD] = sums[fin_b, fin_w] / np.maximum(lengths[fin_b, fin_w], 1)

        order = np.argsort(-norm.reshape(b, w * v)[:, ties], axis=-1, kind="stable")
        pick = ties[order[:, :w]]
        pb, pt = beam_ids[pick], tok_ids[pick]             # [B, W]
        was_fin = finished[rows, pb]
        tokens = np.concatenate([tokens[rows, pb], pt[..., None]], axis=-1)
        sums = cand[rows, pb, pt]
        finished = was_fin | (pt == EOS)
        lengths = np.where(was_fin, lengths[rows, pb], t)
        # a live beam's parent was live: its K/V moves to the beam's new row
        parent = np.searchsorted(live, (rows * w + pb).reshape(-1))
        live = np.flatnonzero(~finished & (sums > NEG_INF))
        kv[:, :, :live.size, :t] = kv[:, :, parent[live], :t]

    ln = np.where(finished, np.maximum(lengths, 1), max(tokens.shape[-1] - 1, 1))
    norm_final = sums / ln
    results = []
    for s_i, best in enumerate(norm_final.argmax(axis=-1)):   # ties: lowest beam
        seq = [int(x) for x in tokens[s_i, best, 1:]]
        if EOS in seq:
            seq = seq[: seq.index(EOS) + 1]
            trunc = False
        else:
            trunc = True
        results.append(DecodeResult(seq, float(norm_final[s_i, best]), trunc))
    return results


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: EncoderDecoderModel, path) -> None:
    """The checkpoint format: one JSON object holding the config, then the
    encoder and the decoder as ordered (name, shape, values) entries. float64
    values survive the round trip exactly (repr-based JSON floats). The bytes
    are `json.dumps` of that object, written a module at a time: `json.dumps`
    runs the C encoder (`json.dump` runs Python's), and per module it never
    holds the whole file in memory."""
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"config": ' + json.dumps(asdict(model.config)))
        for key, ps in (("encoder", model.encoder), ("decoder", model.decoder)):
            f.write(f', "{key}": [' + ", ".join(json.dumps(
                {"name": k, "shape": list(v.shape), "values": v.data.reshape(-1).tolist()})
                for k, v in ps.items()) + "]")
        f.write("}")


def load_model(path) -> EncoderDecoderModel:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    encoder, decoder = (ParameterSet({
        e["name"]: Tensor(np.array(e["values"]).reshape(e["shape"]), grad_enabled=True)
        for e in payload[key]}) for key in ("encoder", "decoder"))
    return EncoderDecoderModel(ModelConfig(**payload["config"]), encoder, decoder)
