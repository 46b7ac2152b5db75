"""Shared test utilities: finite-difference oracle, tiny model builders and a
tiny run config."""

import hashlib
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from epinmt import cli
from epinmt import model as M
from epinmt import tensor as T
from epinmt import trainers as TR

FD_STEP = 1e-4
FD_TOL = 1e-4

# a run config small enough for CLI tests that run every stage
TINY = {
    "master_seed": 0,
    "dataset": {"n_content": 12, "n_seen": 2, "n_unseen": 1,
                "train_tokens": 200, "finetune_tokens": 60, "test_tokens": 60,
                "generic_train_tokens": 200, "noise_fraction": 0.1,
                "trusted_count": 5},
    "model": {"d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 24,
              "max_len": 16},
    "curriculum": {"scorer_steps": 2, "scorer_lr": 0.1, "lm_steps": 2,
                   "lm_lr": 0.1},
    "training": {"alpha": 0.1, "beta": 0.1, "epochs": 1, "batch_size": 4,
                 "episodes": 2, "finetune_epochs": 1,
                 "methods": ["vanilla", "agg", "epi_curriculum"]},
    "eval": {"seeds": [0], "sigmas": [0.05], "noise_seeds": [0],
             "beam_width": 1, "experiment_beam_width": 1, "max_steps": 6},
}

# one line per acceptance criterion, replayed in the pytest terminal summary
ACCEPTANCE_RESULTS: list[str] = []

# the detail that each criterion line prints, at its printed precision
GOLDEN_CRITERIA = os.path.join(os.path.dirname(__file__), "golden", "criteria.json")
# each criterion's detail as printed by this process, by number ("01".."12")
CRITERIA: dict[str, str] = {}


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    """Print the criterion's line, then fail if its detail is not the one in
    tests/golden/criteria.json: a moved value fails even within its threshold."""
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:02d}] {status} {name}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    CRITERIA[f"{number:02d}"] = detail
    print(line, file=sys.stderr, flush=True)
    with open(GOLDEN_CRITERIA, encoding="utf-8") as f:
        golden = json.load(f)[f"{number:02d}"]
    assert detail == golden, f"criterion {number:02d} printed {detail!r}, golden {golden!r}"


# the statistics that the acceptance criteria take of an eval/report.json

def protocol_mean(protocol: list[dict], method: str, metric: str, seen: bool) -> float:
    """Mean of a protocol metric over the method's seen (or unseen) cells."""
    return float(np.mean([r[metric] for r in protocol
                          if r["method"] == method and r["seen"] == seen]))


def swap_mean(swap: list[dict], part: str) -> float:
    """Mean over test domains of the mean gain from grafting `part`
    ("<encoder|decoder>:<method>") onto the other domains' specialists."""
    (improvements,) = [r["improvements"] for r in swap if r["part"] == part]
    return float(np.mean([np.mean([gain for _, gain in rows])
                          for rows in improvements.values()]))


def degradation(perturbation: list[dict], method: str, sigma: float,
                domains: list[int]) -> float:
    """Relative BLEU loss of the domain-mean score under perturbation.

    Normalizing by the unperturbed score makes models with different base
    strength comparable; a model at 0 BLEU degrades by 0.
    """
    bleu = {(r["method"], r["sigma"], r["domain"]): r["bleu"] for r in perturbation}
    base = float(np.mean([bleu[(method, 0.0, d)] for d in domains]))
    noisy = float(np.mean([bleu[(method, sigma, d)] for d in domains]))
    return 0.0 if base <= 0.0 else (base - noisy) / base


def spearman(scores: list[float]) -> float:
    """Spearman rho of BLEU against bin index; NaN (empty) bins are skipped.

    NaN when fewer than two bins remain or the scores are constant.
    """
    from scipy import stats
    idx = [i for i, s in enumerate(scores) if not math.isnan(s)]
    vals = [scores[i] for i in idx]
    if len(set(vals)) < 2:
        return float("nan")
    return float(stats.spearmanr(idx, vals).statistic)


def child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this checkout's epinmt."""
    src = os.path.dirname(os.path.dirname(M.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def finite_diff(loss_fn, param: T.Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. every entry of param.

    Independent of the reverse pass: only calls loss_fn and perturbs data.
    """
    g = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        lp = loss_fn()
        flat[i] = old - step
        lm = loss_fn()
        flat[i] = old
        gflat[i] = (lp - lm) / (2.0 * step)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grad(loss_fn, params: list[T.Tensor], tol: float = FD_TOL) -> float:
    """Backward pass vs finite differences; returns the worst relative error."""
    for p in params:
        p.grad = None
    loss = loss_fn()
    T.backward(loss)
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        fd = finite_diff(lambda: loss_fn().item(), p)
        worst = max(worst, max_rel_err(p.grad, fd))
    assert worst < tol, f"gradient mismatch: rel err {worst}"
    return worst


def tiny_config(vocab_size=12, **kw) -> M.ModelConfig:
    defaults = dict(d_model=16, n_layers=1, n_heads=2, d_ff=24, max_len=16,
                    vocab_size=vocab_size)
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def episodic_update_footprint(state, part: str, batch, k: int):
    """Run epi_train's update of the agg `part` ("encoder" or "decoder") with
    partner k: `_episodic_backward`, then `sgd_step` of that module. Returns
    the names of the parameter sets that hold gradients after the backward,
    and of those whose checksum the update moved."""
    modules = {"agg.encoder": state.agg.encoder, "agg.decoder": state.agg.decoder}
    for d, spec in sorted(state.specialists.items()):
        modules.update({f"specialist{d}.encoder": spec.encoder,
                        f"specialist{d}.decoder": spec.decoder})
    before = {name: ps.checksum() for name, ps in modules.items()}
    TR._episodic_backward(state, part, batch, k)
    holders = [name for name, ps in modules.items()
               if any(p.grad is not None for p in ps.values())]
    T.sgd_step(getattr(state.agg, part), state.hp.alpha)
    moved = [name for name, ps in modules.items() if ps.checksum() != before[name]]
    return holders, moved


def tiny_model(seed=0, **kw) -> M.EncoderDecoderModel:
    return M.init_model(tiny_config(**kw), np.random.default_rng(seed))


def random_pair(rng, cfg, lo=4, n=None):
    n = n or int(rng.integers(3, 7))
    src = [int(x) for x in rng.integers(lo, cfg.vocab_size, size=n)]
    tgt = [int(x) for x in rng.integers(lo, cfg.vocab_size, size=n)]
    return src, tgt


def greedy_reference(model: M.EncoderDecoderModel, source: list[int],
                     max_steps: int) -> list[int]:
    """Greedy decoding by its definition, independent of beam search: each
    step takes the argmax of the last position's `decoder_logits`, with PAD,
    BOS and UNK banned; on an exact tie the lowest content id wins and EOS
    loses. Decoding stops at EOS, after at most max_len - 1 steps."""
    cfg = model.config
    src = np.array([source + [M.EOS]])
    memory = M.encode_batch(model.encoder.frozen_view(), cfg, src)
    allowed = [t for t in range(cfg.vocab_size) if t not in (M.PAD, M.BOS, M.UNK)]
    tokens: list[int] = []
    for _ in range(min(max_steps, cfg.max_len - 1)):
        logits = M.decoder_logits(model.decoder.frozen_view(), cfg, memory, src,
                                  np.array([[M.BOS] + tokens])).data[0, -1]
        best = max(logits[t] for t in allowed)
        ties = [t for t in allowed if logits[t] == best]
        content = [t for t in ties if t != M.EOS]
        tokens.append(min(content) if content else M.EOS)
        if tokens[-1] == M.EOS:
            break
    return tokens


def beam_reference(model: M.EncoderDecoderModel, sources: list[list[int]],
                   beam_width: int, max_steps: int) -> list[M.DecodeResult]:
    """Beam search as it ran before the decoder K/V cache: every step runs
    `decoder_logits` over each beam's whole prefix and ranks each sentence's
    candidates with its own lexsort. Same scores, tie-breaks and results
    contract as `beam_decode_batch`."""
    cfg = model.config
    b, w, v = len(sources), beam_width, cfg.vocab_size
    src = M._pad_batch([s + [M.EOS] for s in sources])
    memory = M.encode_batch(model.encoder.frozen_view(), cfg, src)
    mem = T.Tensor(np.repeat(memory.data, w, axis=0))
    src_rep = np.repeat(src, w, axis=0)
    dec = model.decoder.frozen_view()
    tokens = np.full((b, w, 1), M.BOS, dtype=np.int64)
    sums = np.zeros((b, w))
    sums[:, 1:] = M.NEG_INF
    finished = np.zeros((b, w), dtype=bool)
    lengths = np.zeros((b, w), dtype=np.int64)
    tok_ids, beam_ids = np.tile(np.arange(v), w), np.repeat(np.arange(w), v)
    is_eos = (tok_ids == M.EOS).astype(np.int64)
    for _ in range(min(max_steps, cfg.max_len - 1)):
        if finished.all():
            break
        logits = M.decoder_logits(dec, cfg, mem, src_rep, tokens.reshape(b * w, -1)).data
        logp = M._log_softmax(logits[:, -1, :]).reshape(b, w, v)
        logp[:, :, [M.PAD, M.BOS, M.UNK]] = M.NEG_INF
        cand = sums[:, :, None] + logp
        t = tokens.shape[-1]
        norm = cand / t
        fin_b, fin_w = np.nonzero(finished)
        cand[fin_b, fin_w, :] = M.NEG_INF
        cand[fin_b, fin_w, M.PAD] = sums[fin_b, fin_w]
        norm[fin_b, fin_w, :] = M.NEG_INF
        norm[fin_b, fin_w, M.PAD] = sums[fin_b, fin_w] / np.maximum(lengths[fin_b, fin_w], 1)
        new_tokens = np.empty((b, w, t + 1), dtype=np.int64)
        new_sums, new_len = np.empty((b, w)), np.empty((b, w), dtype=np.int64)
        new_fin = np.empty((b, w), dtype=bool)
        for s_i in range(b):
            pick = np.lexsort((beam_ids, tok_ids, is_eos, -norm[s_i].reshape(-1)))[:w]
            pb, pt = beam_ids[pick], tok_ids[pick]
            new_tokens[s_i, :, :t] = tokens[s_i, pb]
            new_tokens[s_i, :, t] = pt
            new_sums[s_i] = cand[s_i, pb, pt]
            was_fin = finished[s_i, pb]
            new_fin[s_i] = was_fin | (pt == M.EOS)
            new_len[s_i] = np.where(was_fin, lengths[s_i, pb], t)
        tokens, sums, finished, lengths = new_tokens, new_sums, new_fin, new_len
    results = []
    for s_i in range(b):
        ln = np.where(finished[s_i], np.maximum(lengths[s_i], 1),
                      np.maximum(tokens.shape[-1] - 1, 1))
        norm_final = sums[s_i] / ln
        best = int(np.lexsort((np.arange(w), -norm_final))[0])
        seq = [int(x) for x in tokens[s_i, best, 1:]]
        trunc = M.EOS not in seq
        if not trunc:
            seq = seq[: seq.index(M.EOS) + 1]
        results.append(M.DecodeResult(seq, float(norm_final[best]), trunc))
    return results


# the pipeline chain: perfbench's pipeline workload, in process, on a copy of
# its config with master seed 11 and eval seeds 11 and 12
GOLDEN_PIPELINE = Path(__file__).parent / "golden" / "pipeline.json"
PIPELINE_CONFIG = Path(__file__).parent / "golden" / "pipeline_config.json"
PIPELINE_CHAIN = (["gen-data"], ["score"], ["train", "--method", "epi_curriculum", "--build-deps"],
                  ["finetune", "--method", "epi_curriculum"], ["experiment"])


def environment() -> dict:
    """What the chain's bytes may depend on besides the code: numpy, scipy,
    the BLAS and the CPU model."""
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy before 1.26 prints its config only
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):   # not Linux
        cpu = platform.processor() or platform.machine()
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas, "cpu": cpu}


def pipeline_artifacts(out: Path) -> dict:
    """Run the pipeline chain into `out`; each file it wrote, by its path under
    `out`: a record (`summary.json`, `<method>.provenance.json`) as its JSON
    without `source`, the digest of src/ that every edit moves, and any other
    file as its sha256."""
    for argv in PIPELINE_CHAIN:
        assert cli.main([*argv, "--config", str(PIPELINE_CONFIG), "--out", str(out)]) == 0, argv
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name.endswith(("summary.json", ".provenance.json")):
            record = json.loads(path.read_text(encoding="utf-8"))
            del record["source"]
            files[path.relative_to(out).as_posix()] = record
        else:
            files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files
