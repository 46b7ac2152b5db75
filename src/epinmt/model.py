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

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .tensor import ParameterSet, Tensor

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

NEG_INF = -1e9


class LengthError(ValueError):
    """Input sequence exceeds the configured maximum length."""


class CompatibilityError(ValueError):
    """Encoder and decoder come from different model configurations."""


class Vocabulary:
    """Dense token <-> id maps with fixed reserved ids 0..3."""

    def __init__(self, content_tokens: list[str]):
        tokens = list(RESERVED_TOKENS) + list(content_tokens)
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = tokens
        self.token_to_id = {t: i for i, t in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def content_ids(self) -> list[int]:
        return list(range(len(RESERVED_TOKENS), self.size))

    def tokenize(self, text: str) -> list[int]:
        return [self.token_to_id.get(tok, UNK) for tok in text.split()]

    def detokenize(self, ids: list[int]) -> str:
        return " ".join(self.tokens[i] for i in ids)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f if line.strip()]
        if tokens[: len(RESERVED_TOKENS)] != list(RESERVED_TOKENS):
            raise ValueError("vocabulary file does not start with the reserved tokens")
        return cls(tokens[len(RESERVED_TOKENS):])


@dataclass
class ModelConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    max_len: int = 64
    dropout_rate: float = 0.0
    vocab_size: int = 128

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.vocab_size <= len(RESERVED_TOKENS):
            raise ValueError("vocab_size too small")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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
        raise CompatibilityError("compose: arguments look swapped or incomplete")
    if theta["emb"].shape != (cfg.vocab_size, cfg.d_model):
        raise CompatibilityError(
            f"encoder embedding {theta['emb'].shape} does not match config "
            f"({cfg.vocab_size}, {cfg.d_model})")
    if phi["out.w"].shape != (cfg.d_model, cfg.vocab_size):
        raise CompatibilityError(
            f"decoder projection {phi['out.w'].shape} does not match config")
    return EncoderDecoderModel(cfg, theta, phi)


# ---------------------------------------------------------------------------
# forward passes


def positional_encoding(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    pe = np.zeros((length, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, l, d = x.shape
    dk = d // n_heads
    return T.transpose(T.reshape(x, (b, l, n_heads, dk)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dk = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, l, h * dk))


def _mha(p: ParameterSet, prefix: str, x_q: Tensor, x_kv: Tensor,
         mask: np.ndarray | None, cfg: ModelConfig) -> Tensor:
    q = _split_heads(T.matmul(x_q, p[f"{prefix}.wq"]), cfg.n_heads)
    k = _split_heads(T.matmul(x_kv, p[f"{prefix}.wk"]), cfg.n_heads)
    v = _split_heads(T.matmul(x_kv, p[f"{prefix}.wv"]), cfg.n_heads)
    dk = cfg.d_model // cfg.n_heads
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    if mask is not None:
        scores = T.add(scores, T.constant(mask))
    attn = T.softmax(scores)
    out = _merge_heads(T.matmul(attn, v))
    return T.matmul(out, p[f"{prefix}.wo"])


def _ff(p: ParameterSet, prefix: str, x: Tensor) -> Tensor:
    h = T.gelu(T.add(T.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
    return T.add(T.matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])


def _embed(p: ParameterSet, ids: np.ndarray, cfg: ModelConfig) -> Tensor:
    x = T.scale(T.embedding(p["emb"], ids), math.sqrt(cfg.d_model))
    pe = positional_encoding(ids.shape[-1], cfg.d_model)
    return T.add(x, T.constant(pe))


def _pad_mask(ids: np.ndarray) -> np.ndarray:
    # additive mask over keys: [B, 1, 1, L]
    return np.where(ids == PAD, NEG_INF, 0.0)[:, None, None, :]


def _causal_mask(length: int) -> np.ndarray:
    m = np.triu(np.full((length, length), NEG_INF), k=1)
    return m[None, None, :, :]


def _stack(p: ParameterSet, cfg: ModelConfig, ids: np.ndarray, self_mask: np.ndarray,
           sublayers: tuple[str, ...], memory: Tensor | None = None,
           mem_mask: np.ndarray | None = None) -> Tensor:
    """Pre-LN transformer body over `ids`: [B, L, d_model] after the final norm."""
    if ids.shape[-1] > cfg.max_len:
        raise LengthError(f"sequence length {ids.shape[-1]} > max_len {cfg.max_len}")
    x = _embed(p, ids, cfg)
    for i in range(cfg.n_layers):
        for j, kind in enumerate(sublayers, 1):
            nx = T.layer_norm(x, p[f"l{i}.ln{j}.g"], p[f"l{i}.ln{j}.b"])
            if kind == "ff":
                x = T.add(x, _ff(p, f"l{i}.ff", nx))
            elif kind == "cross":
                x = T.add(x, _mha(p, f"l{i}.cross", nx, memory, mem_mask, cfg))
            else:
                x = T.add(x, _mha(p, f"l{i}.{kind}", nx, nx, self_mask, cfg))
    return T.layer_norm(x, p["ln.g"], p["ln.b"])


def encode_batch(theta: ParameterSet, cfg: ModelConfig, src_ids: np.ndarray) -> Tensor:
    """Per-token memory features [B, Ls, d_model] for padded source ids."""
    return _stack(theta, cfg, src_ids, _pad_mask(src_ids), ENCODER)


def encode(theta: ParameterSet, cfg: ModelConfig, source: list[int]) -> Tensor:
    """Single-sentence convenience wrapper; returns [len, d_model]."""
    mem = encode_batch(theta, cfg, np.array([source], dtype=np.int64))
    return T.reshape(mem, (len(source), cfg.d_model))


def decoder_logits(phi: ParameterSet, cfg: ModelConfig, memory: Tensor,
                   src_ids: np.ndarray, dec_in: np.ndarray) -> Tensor:
    """Teacher-forced decoder logits [B, Lt, V]."""
    x = _stack(phi, cfg, dec_in, _causal_mask(dec_in.shape[-1]), DECODER, memory,
               _pad_mask(src_ids))
    return T.matmul(x, phi["out.w"])


def lm_logits(params: ParameterSet, cfg: ModelConfig, dec_in: np.ndarray) -> Tensor:
    """Causal next-token logits [B, L, V] for the decoder-only language model."""
    x = _stack(params, cfg, dec_in, _causal_mask(dec_in.shape[-1]), LM)
    return T.matmul(x, params["out.w"])


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
    flat = T.reshape(logits, (logits.shape[0] * logits.shape[1], logits.shape[2]))
    idx = np.flatnonzero((targets != PAD).reshape(-1))
    return T.softmax_cross_entropy(T.gather_rows(flat, idx), targets.reshape(-1)[idx])


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
        raise T.ContractError("nll: empty batch or empty sequence")
    cfg = model.config
    src, dec_in, tgt_out, _ = prepare_batch(sources, targets)
    memory = encode_batch(model.encoder, cfg, src)
    return _masked_xent(decoder_logits(model.decoder, cfg, memory, src, dec_in), tgt_out)


def nll(model: EncoderDecoderModel, source: list[int], target: list[int]) -> Tensor:
    return nll_batch(model, [source], [target])


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
        raise T.ContractError("lm_logprob: empty sentence")
    dec_in, tgt = _teacher_force(sentences)
    logits = lm_logits(lm.params.frozen_view(), lm.config, dec_in).data
    return _target_logprobs(logits, tgt).sum(axis=-1)


def lm_logprob(lm: LanguageModel, sentence: list[int]) -> float:
    return float(lm_logprob_batch(lm, [sentence])[0])


# ---------------------------------------------------------------------------
# decoding


@dataclass
class DecodeResult:
    tokens: list[int]
    logprob: float      # length-normalized sum of token log-probabilities
    truncated: bool = False


def _step_logprobs(model, src, memory, prefixes) -> np.ndarray:
    logits = decoder_logits(model.decoder, model.config, memory, src, prefixes).data
    return _log_softmax(logits[:, -1, :])


def beam_decode_batch(model: EncoderDecoderModel, sources: list[list[int]],
                      beam_width: int = 5, max_steps: int = 32) -> list[DecodeResult]:
    """Batched beam search over all sources at once.

    Scores are length-normalized sums of log-probabilities. Exact ties are
    broken by lowest content-token id (EOS loses ties), then lowest beam
    index, which pins down the degenerate all-uniform case.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    cfg = model.config
    b, w = len(sources), beam_width
    enc = model.encoder.frozen_view()
    dec = model.decoder.frozen_view()
    frozen = EncoderDecoderModel(cfg, enc, dec)
    src = _pad_batch([s + [EOS] for s in sources])
    memory = encode_batch(enc, cfg, src)
    # replicate memory and source mask across beams: [B*W, ...]
    mem = Tensor(np.repeat(memory.data, w, axis=0))
    src_rep = np.repeat(src, w, axis=0)

    tokens = np.full((b, w, 1), BOS, dtype=np.int64)
    sums = np.zeros((b, w))
    sums[:, 1:] = NEG_INF          # only beam 0 live at the start
    finished = np.zeros((b, w), dtype=bool)
    lengths = np.zeros((b, w), dtype=np.int64)

    banned = np.array([PAD, BOS, UNK])
    max_steps = min(max_steps, cfg.max_len - 1)
    for _ in range(max_steps):
        if finished.all():
            break
        logp = _step_logprobs(frozen, src_rep, mem, tokens.reshape(b * w, -1))
        logp = logp.reshape(b, w, cfg.vocab_size)
        logp[:, :, banned] = NEG_INF
        cand = sums[:, :, None] + logp                     # [B, W, V]
        t = tokens.shape[-1]                               # emitted so far = t-1
        norm = cand / t                                    # hypotheses of length t
        # finished beams persist unchanged as a PAD-extension candidate
        fin_b, fin_w = np.nonzero(finished)
        cand[fin_b, fin_w, :] = NEG_INF
        cand[fin_b, fin_w, PAD] = sums[fin_b, fin_w]
        norm[fin_b, fin_w, :] = NEG_INF
        norm[fin_b, fin_w, PAD] = sums[fin_b, fin_w] / np.maximum(lengths[fin_b, fin_w], 1)

        flat_norm = norm.reshape(b, w * cfg.vocab_size)
        tok_ids = np.tile(np.arange(cfg.vocab_size), w)
        beam_ids = np.repeat(np.arange(w), cfg.vocab_size)
        is_eos = (tok_ids == EOS).astype(np.int64)
        new_tokens = np.empty((b, w, t + 1), dtype=np.int64)
        new_sums = np.empty((b, w))
        new_fin = np.empty((b, w), dtype=bool)
        new_len = np.empty((b, w), dtype=np.int64)
        for s_i in range(b):
            order = np.lexsort((beam_ids, tok_ids, is_eos, -flat_norm[s_i]))
            pick = order[:w]
            pb, pt = beam_ids[pick], tok_ids[pick]
            new_tokens[s_i, :, :t] = tokens[s_i, pb]
            new_tokens[s_i, :, t] = pt
            new_sums[s_i] = cand[s_i, pb, pt]
            was_fin = finished[s_i, pb]
            now_fin = was_fin | (pt == EOS)
            new_fin[s_i] = now_fin
            new_len[s_i] = np.where(was_fin, lengths[s_i, pb], t)
        tokens, sums, finished, lengths = new_tokens, new_sums, new_fin, new_len

    results = []
    for s_i in range(b):
        ln = np.where(finished[s_i], np.maximum(lengths[s_i], 1),
                      np.maximum(tokens.shape[-1] - 1, 1))
        norm_final = sums[s_i] / ln
        best = int(np.lexsort((np.arange(w), -norm_final))[0])
        seq = [int(x) for x in tokens[s_i, best, 1:]]
        if EOS in seq:
            seq = seq[: seq.index(EOS) + 1]
            trunc = False
        else:
            trunc = True
        results.append(DecodeResult(seq, float(norm_final[best]), trunc))
    return results


def beam_decode(model, source, beam_width=5, max_steps=32) -> DecodeResult:
    return beam_decode_batch(model, [source], beam_width, max_steps)[0]


def greedy_decode(model, source, max_steps=32) -> DecodeResult:
    return beam_decode(model, source, beam_width=1, max_steps=max_steps)


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: EncoderDecoderModel, path) -> None:
    _save(path, model.config, encoder=model.encoder, decoder=model.decoder)


def load_model(path) -> EncoderDecoderModel:
    cfg, modules = _load(path)
    return EncoderDecoderModel(cfg, modules["encoder"], modules["decoder"])


def save_lm(lm: LanguageModel, path) -> None:
    _save(path, lm.config, params=lm.params)


def load_lm(path) -> LanguageModel:
    cfg, modules = _load(path)
    return LanguageModel(cfg, modules["params"])


def _save(path, config: ModelConfig, **modules: ParameterSet) -> None:
    """The checkpoint format: one JSON object holding the config, then each
    module as ordered (name, shape, values) entries. float64 values survive
    the round trip exactly (repr-based JSON floats)."""
    payload = {"config": config.to_dict()}
    for key, ps in modules.items():
        payload[key] = [{"name": k, "shape": list(v.shape),
                         "values": v.data.reshape(-1).tolist()} for k, v in ps.items()]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def _load(path) -> tuple[ModelConfig, dict[str, ParameterSet]]:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    modules = {}
    for key, entries in payload.items():
        if key != "config":
            modules[key] = ParameterSet({
                e["name"]: Tensor(np.array(e["values"]).reshape(e["shape"]), grad_enabled=True)
                for e in entries})
    return ModelConfig.from_dict(payload["config"]), modules
