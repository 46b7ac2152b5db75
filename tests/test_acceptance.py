"""Acceptance suite: exact property checks plus directional experiment checks.

Each test prints one `[criterion NN] PASS/FAIL` line (replayed in the pytest
terminal summary) and then asserts, so a red run still shows the scoreboard.
"""

import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epinmt import cli
from epinmt import config as cfgmod
from epinmt import corpus as C
from epinmt import curriculum as cur
from epinmt import evaluate as E
from epinmt import model as M
from epinmt import pipeline as P
from epinmt import tensor as T
from epinmt import trainers as tr

import reference_ops as R
from helpers import (FD_TOL, TINY, degradation, episodic_update_footprint, finite_diff,
                     greedy_reference, max_rel_err, protocol_mean, record_criterion,
                     spearman, swap_mean, tiny_config)


# ---------------------------------------------------------------------------
# criterion 1: gradients vs central finite differences, >= 20 inputs per op


def _grad_worst_err(loss_fn, params) -> float:
    for p in params:
        p.grad = None
    T.backward(loss_fn())
    worst = 0.0
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        fd = finite_diff(lambda: loss_fn().item(), p)
        worst = max(worst, max_rel_err(p.grad, fd))
        p.grad = None
    return worst


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return T.Tensor(rng.uniform(lo, hi, shape), grad_enabled=True)


def _op_cases(seed):
    """One loss/params pair per differentiable op for one seed."""
    rng = np.random.default_rng(seed)
    w = T.Tensor(rng.uniform(-1, 1, (3, 4)))
    a = _rand(rng, (3, 4))
    b = _rand(rng, (3, 4))
    row = _rand(rng, (4,))
    # keep relu inputs away from the kink where FD is one-sided
    r = T.Tensor(np.where(np.abs(a.data) < 0.1, 0.3, a.data).copy(),
                 grad_enabled=True)
    m1 = _rand(rng, (3, 5))
    m2 = _rand(rng, (5, 4))
    gain = _rand(rng, (4,), 0.5, 1.5)
    bias = _rand(rng, (4,), -0.5, 0.5)
    table = _rand(rng, (6, 4))
    ids = rng.integers(0, 6, size=5)
    ridx = rng.integers(0, 3, size=4)
    logits = _rand(rng, (4, 6))
    targets = rng.integers(0, 6, size=4)
    c = float(rng.uniform(0.5, 2.0))
    # the fused layer ops: [2, 3, 4] queries, [2, 5, 4] cross keys/values
    x3 = _rand(rng, (2, 3, 4))
    lw, lb = _rand(rng, (4, 4)), _rand(rng, (4,))
    q, k, v = _rand(rng, (2, 3, 4)), _rand(rng, (2, 3, 4)), _rand(rng, (2, 3, 4))
    kx, vx = _rand(rng, (2, 5, 4)), _rand(rng, (2, 5, 4))
    causal = np.triu(np.full((3, 3), M.NEG_INF), k=1)[None, None]
    # key padding: lengths 3 and 2 (self), 4 and 2 (cross)
    pad_self = np.where(np.arange(3) >= np.array([[3], [2]]), M.NEG_INF, 0.0)[:, None, None]
    pad_cross = np.where(np.arange(5) >= np.array([[4], [2]]), M.NEG_INF, 0.0)[:, None, None]
    pe = rng.uniform(-1, 1, (3, 4))
    ids3 = rng.integers(0, 6, size=(2, 3))
    logits3 = _rand(rng, (2, 3, 6))
    targets3 = rng.integers(0, 6, size=(2, 3))
    valid3 = np.array([[True, True, False], [True, False, False]])
    w3 = T.Tensor(rng.uniform(-1, 1, (2, 3, 4)))
    # the sublayer blocks on x3: 2 heads, d_ff 5
    wq, wk, wv, wo = (_rand(rng, (4, 4)) for _ in range(4))
    w1, b1, w2, b2 = _rand(rng, (4, 5)), _rand(rng, (5,)), _rand(rng, (5, 4)), _rand(rng, (4,))

    def dot(x):
        return T.reduce_sum(T.mul(x, w))

    def dot3(x):
        return T.reduce_sum(T.mul(x, w3))

    def attn(keys, values, mask):
        return lambda: dot3(R.attention(q, keys, values, mask, 2))

    def self_block(mask):
        return lambda: dot3(T.attn_block(x3, gain, bias, wq, wk, wv, wo, mask, 2))

    return [
        ("add", lambda: dot(T.add(a, b)), [a, b]),
        ("add_broadcast", lambda: dot(T.add(a, row)), [a, row]),
        ("sub", lambda: dot(T.sub(a, b)), [a, b]),
        ("mul", lambda: dot(T.mul(a, b)), [a, b]),
        ("scale", lambda: dot(T.scale(a, c)), [a]),
        ("relu", lambda: dot(T.relu(r)), [r]),
        ("gelu", lambda: dot(T.gelu(a)), [a]),
        ("reshape", lambda: T.reduce_sum(T.mul(T.reshape(a, (4, 3)),
                                               T.reshape(a, (4, 3)))), [a]),
        ("transpose", lambda: T.reduce_sum(T.mul(T.transpose(a, (1, 0)),
                                                 T.transpose(b, (1, 0)))), [a, b]),
        ("reduce_sum_axis", lambda: T.reduce_sum(T.mul(T.reduce_sum(a, axis=0),
                                                       row)), [a, row]),
        ("reduce_mean", lambda: T.reduce_sum(T.mul(T.reduce_mean(a, axis=1,
                                                                 keepdims=True),
                                                   T.reduce_mean(b, axis=1,
                                                                 keepdims=True))),
         [a, b]),
        ("matmul", lambda: T.reduce_sum(T.mul(T.matmul(m1, m2),
                                              T.matmul(m1, m2))), [m1, m2]),
        ("softmax", lambda: dot(T.softmax(a)), [a]),
        ("layer_norm", lambda: dot(T.layer_norm(a, gain, bias)), [a, gain, bias]),
        ("embedding", lambda: T.reduce_sum(T.mul(T.embedding(table, ids),
                                                 T.embedding(table, ids))),
         [table]),
        ("gather_rows", lambda: T.reduce_sum(T.mul(T.gather_rows(a, ridx),
                                                   T.gather_rows(b, ridx))),
         [a, b]),
        ("softmax_cross_entropy",
         lambda: T.softmax_cross_entropy(logits, targets), [logits]),
        ("linear", lambda: dot3(T.linear(x3, lw)), [x3, lw]),
        ("linear_bias", lambda: dot3(T.linear(x3, lw, lb)), [x3, lw, lb]),
        ("attention_self", attn(k, v, None), [q, k, v]),
        ("attention_self_causal", attn(k, v, causal), [q, k, v]),
        ("attention_self_pad", attn(k, v, pad_self), [q, k, v]),
        ("attention_cross", attn(kx, vx, None), [q, kx, vx]),
        ("attention_cross_pad", attn(kx, vx, pad_cross), [q, kx, vx]),
        ("embed", lambda: dot3(T.embed(table, ids3, c, pe)), [table]),
        ("masked_cross_entropy",
         lambda: T.masked_cross_entropy(logits3, targets3, valid3), [logits3]),
        ("attn_block_self_causal", self_block(causal), [x3, gain, bias, wq, wk, wv, wo]),
        ("attn_block_self_pad", self_block(pad_self), [x3, gain, bias, wq, wk, wv, wo]),
        ("attn_block_cross_pad",
         lambda: dot3(T.attn_block(x3, gain, bias, wq, None, None, wo, pad_cross, 2,
                                   (kx, vx))), [x3, kx, vx, gain, bias, wq, wo]),
        ("ff_block", lambda: dot3(T.ff_block(x3, gain, bias, w1, b1, w2, b2)),
         [x3, gain, bias, w1, b1, w2, b2]),
    ]


def test_criterion_01_gradient_suite():
    n_inputs = 20
    worst = {}
    for seed in range(n_inputs):
        for name, loss_fn, params in _op_cases(seed):
            err = _grad_worst_err(loss_fn, params)
            worst[name] = max(worst.get(name, 0.0), err)
    overall = max(worst.values())
    ok = overall < FD_TOL
    record_criterion(1, "gradient suite", ok,
                     f"{len(worst)} ops x {n_inputs} inputs, worst rel err "
                     f"{overall:.2e}")
    assert ok, f"worst per-op errors: {worst}"


# ---------------------------------------------------------------------------
# criteria 2 and 3: episodic freezing/locality and the episode oracle


def _micro_world(n_seen, seed=0):
    cfg = C.DatasetConfig(n_content=16, n_seen=n_seen, n_unseen=1,
                          train_tokens=300, finetune_tokens=60, test_tokens=60,
                          generic_train_tokens=300, noise_fraction=0.0,
                          trusted_count=5)
    vocab, ds = C.build_dataset(cfg, seed=seed)
    mcfg = tiny_config(vocab_size=vocab.size)
    hp = tr.Hyperparams(alpha=0.1, beta=0.15, epochs=1, batch_size=8, seed=seed)
    vanilla, _ = tr.pretrain_vanilla(ds.splits[ds.generic_id].training, mcfg, hp)
    return ds, vanilla


def _oracle_episode(state, rng, seen, ep, total):
    """One Algorithm-1 episode as straight-line bookkeeping on the state.

    Mirrors the trainer's sampling stream; all parameter arithmetic is manual.
    Returns (i, k).
    """
    hp = state.hp
    stage = cur.stage_of(ep / total, state.plan.policy)
    i = seen[ep % len(seen)]
    for j in seen:
        batch_j = cur.sample_batch(state.plan, stage, hp.batch_size, rng,
                                   domain_id=j)
        spec = state.specialists[j]
        T.backward(M.nll_batch(spec, [p.source for p in batch_j],
                               [p.target for p in batch_j]))
        for ps in (spec.encoder, spec.decoder):
            for _, prm in ps.items():
                prm.data = prm.data - hp.beta * prm.grad
                prm.grad = None
    others = [d for d in seen if d != i]
    k = int(others[rng.integers(0, len(others))])
    batch_i = cur.sample_batch(state.plan, stage, hp.batch_size, rng, domain_id=i)
    srcs = [p.source for p in batch_i]
    tgts = [p.target for p in batch_i]
    agg = state.agg
    T.backward(M.nll_batch(agg, srcs, tgts))
    hybrid_e = M.EncoderDecoderModel(agg.config, agg.encoder,
                                     state.specialists[k].decoder.frozen_view())
    T.backward(M.nll_batch(hybrid_e, srcs, tgts))
    hybrid_d = M.EncoderDecoderModel(agg.config,
                                     state.specialists[k].encoder.frozen_view(),
                                     agg.decoder)
    T.backward(M.nll_batch(hybrid_d, srcs, tgts))
    for ps in (agg.encoder, agg.decoder):
        for _, prm in ps.items():
            prm.data = prm.data - hp.alpha * prm.grad
            prm.grad = None
    return i, k


def test_criterion_02_freeze_and_locality():
    episodes = 200
    ds, vanilla = _micro_world(n_seen=3)
    plan = cur.uniform_plan(ds.all_seen_training())
    hp = tr.Hyperparams(alpha=0.1, beta=0.15, epochs=1, batch_size=8, seed=0,
                        episodes=episodes)
    seen = sorted(ds.seen_ids)

    # (b) epi_train's episodic update of each agg module (its backward through
    # the partner's frozen other module, then its step) gives gradients to
    # that module alone and moves only it
    state = tr.init_state(vanilla, ds.seen_ids, plan, hp)
    batch = ds.splits[seen[0]].training[:8]
    only_theta = episodic_update_footprint(state, "encoder", batch, seen[1]) == (
        ["agg.encoder"], ["agg.encoder"])
    only_phi = episodic_update_footprint(state, "decoder", batch, seen[1]) == (
        ["agg.decoder"], ["agg.decoder"])

    # reference run of the full policy
    ref = tr.init_state(vanilla, ds.seen_ids, plan, hp)
    tr.epi_train(ref)
    partners_ok = all(r.partner_k != r.domain_i for r in ref.episode_log)

    # instrumented replication in one process: per-episode checks that (a)
    # the partner's modules are untouched by the aggregation update, (c)
    # specialists move only through their own steps, and that each episode's
    # record, all four losses included, is epi_train's exactly (it computes
    # L_i in the specialists' own process)
    state = tr.init_state(vanilla, ds.seen_ids, plan, hp)
    rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 5]))
    locality_ok = True
    for ep in range(episodes):
        stage = cur.stage_of(ep / episodes, plan.policy)
        i = seen[ep % len(seen)]
        agg_cs = state.agg.checksum()
        spec_cs = {d: state.specialists[d].checksum() for d in seen}
        for j in seen:
            batch_j = cur.sample_batch(plan, stage, hp.batch_size, rng,
                                       domain_id=j)
            loss_j = tr.specialist_step(state, j, batch_j)
            if j == i:
                loss_spec = loss_j
            after = {d: state.specialists[d].checksum() for d in seen}
            locality_ok &= after[j] != spec_cs[j]
            locality_ok &= all(after[d] == spec_cs[d] for d in seen if d != j)
            locality_ok &= state.agg.checksum() == agg_cs
            spec_cs = after
        k = tr._pick_partner(state, i, rng)
        batch_i = cur.sample_batch(plan, stage, hp.batch_size, rng, domain_id=i)
        srcs = [p.source for p in batch_i]
        tgts = [p.target for p in batch_i]
        loss_agg = M.nll_batch(state.agg, srcs, tgts)
        T.backward(loss_agg)
        hybrid_e = M.EncoderDecoderModel(
            state.agg.config, state.agg.encoder,
            state.specialists[k].decoder.frozen_view())
        loss_enc = M.nll_batch(hybrid_e, srcs, tgts)
        T.backward(loss_enc)
        hybrid_d = M.EncoderDecoderModel(
            state.agg.config, state.specialists[k].encoder.frozen_view(),
            state.agg.decoder)
        loss_dec = M.nll_batch(hybrid_d, srcs, tgts)
        T.backward(loss_dec)
        T.sgd_step(state.agg.encoder, hp.alpha)
        T.sgd_step(state.agg.decoder, hp.alpha)
        # (a) phi_k and theta_k survive the episode's aggregation update
        locality_ok &= all(state.specialists[d].checksum() == spec_cs[d]
                           for d in seen)
        locality_ok &= state.agg.checksum() != agg_cs
        locality_ok &= ref.episode_log[ep] == tr.EpisodeRecord(
            ep, stage, i, k, loss_agg.item(), loss_spec, loss_enc.item(), loss_dec.item())
        if not locality_ok:
            break
    replication_ok = state.agg.checksum() == ref.agg.checksum() and all(
        state.specialists[d].checksum() == ref.specialists[d].checksum()
        for d in seen)

    ok = only_theta and only_phi and partners_ok and locality_ok and replication_ok
    record_criterion(2, "freeze/locality suite", ok,
                     f"{episodes} episodes, exact checksum checks")
    assert only_theta, "the episodic encoder update touched more than theta"
    assert only_phi, "the episodic decoder update touched more than phi"
    assert partners_ok, "logged partner k == i"
    assert locality_ok, "a frozen module moved during an episode"
    assert replication_ok, "instrumented replication diverged from epi_train"


def test_criterion_03_episode_oracle():
    ds, vanilla = _micro_world(n_seen=2, seed=1)
    plan = cur.uniform_plan(ds.all_seen_training())
    hp = tr.Hyperparams(alpha=0.1, beta=0.15, epochs=1, batch_size=8, seed=1,
                        episodes=1)
    state = tr.init_state(vanilla, ds.seen_ids, plan, hp)
    tr.epi_train(state)

    oracle = tr.init_state(vanilla, ds.seen_ids, plan, hp)
    rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 5]))
    i, k = _oracle_episode(oracle, rng, sorted(ds.seen_ids), 0, 1)

    worst = 0.0
    for got_m, want_m in [(state.agg, oracle.agg)] + [
            (state.specialists[d], oracle.specialists[d]) for d in ds.seen_ids]:
        for got_ps, want_ps in ((got_m.encoder, want_m.encoder),
                                (got_m.decoder, want_m.decoder)):
            for name, prm in want_ps.items():
                worst = max(worst, float(np.max(np.abs(got_ps[name].data
                                                       - prm.data))))
    ok = worst < 1e-10 and state.episode_log[0].partner_k == k \
        and state.episode_log[0].domain_i == i
    record_criterion(3, "episode oracle equivalence", ok,
                     f"2-domain micro-model, max param diff {worst:.2e}")
    assert ok, f"max parameter difference {worst}"


# ---------------------------------------------------------------------------
# criterion 4: BLEU oracle and beam-1 == greedy


def test_criterion_04_bleu_oracle():
    rng = np.random.default_rng(0)
    corpora = [[list(map(int, rng.integers(4, 20, size=rng.integers(3, 9))))
                for _ in range(8)] for _ in range(5)]
    perfect_ok = all(E.corpus_bleu(c, [list(s) for s in c]).score == 100.0
                     for c in corpora)

    hand = E.corpus_bleu([[4, 5, 6, 7]], [[4, 5, 6, 7, 8]])
    # all clipped n-gram precisions are 1, so BLEU = 100 * BP = 100*e^(1-5/4)
    expected = 100.0 * np.exp(1.0 - 5.0 / 4.0)
    hand_ok = abs(hand.score - expected) < 1e-6

    # beam width 1 against the independent greedy reference: 100 sources on
    # a seeded model, then 10 on a uniform one, where every token ties at
    # every step and max_steps exceeds what max_len allows
    model = M.init_model(tiny_config(vocab_size=16), np.random.default_rng(3))
    uniform = model.copy()
    uniform.decoder["out.w"].data[:] = 0.0
    greedy_ok = True
    for case in range(110):
        crng = np.random.default_rng(case)
        src = [int(x) for x in crng.integers(4, 16, size=crng.integers(2, 8))]
        m, steps = (model, 10) if case < 100 else (uniform, 2 * model.config.max_len)
        b1 = M.beam_decode_batch(m, [src], 1, steps)[0]
        greedy_ok &= b1.tokens == greedy_reference(m, src, steps)
    ok = perfect_ok and hand_ok and greedy_ok
    record_criterion(4, "BLEU oracle and beam-1 == greedy", ok,
                     f"hand case {hand.score:.7f} vs {expected:.7f}")
    assert perfect_ok, "corpus_bleu(x, x) != 100"
    assert hand_ok, f"hand-computed case: {hand.score} != {expected}"
    assert greedy_ok, "beam width 1 diverged from greedy decoding"


# ---------------------------------------------------------------------------
# criterion 5: scheduler suite


def test_criterion_05_scheduler_suite():
    rows_ok = True
    for variant in ("default", "advanced", "reversed"):
        m = np.asarray(cur.SchedulerPolicy.from_variant(variant).stage_matrix)
        rows_ok &= bool(np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-12))

    default = cur.SchedulerPolicy.from_variant("default")
    reversed_ = cur.SchedulerPolicy.from_variant("reversed")
    mirror_ok = all(
        tuple(reversed(dr)) == rr
        for dr, rr in zip(default.stage_matrix, reversed_.stage_matrix))

    # 50 pairs with ascending d scores; shard membership is recoverable from
    # the domain id marker (10 pairs per shard)
    pairs = [C.SentencePair([4], [4], domain_id=i // 10, q_score=0.0,
                            d_score=float(i)) for i in range(50)]
    plan = cur.build_plan(pairs, default)
    draws = 100_000
    batch = cur.sample_batch(plan, stage=3, batch_size=draws,
                             rng=np.random.default_rng(0))
    freqs = np.bincount([p.domain_id for p in batch], minlength=5) / draws
    freq_ok = bool(np.all(np.abs(freqs - 0.2) <= 0.01))

    ok = rows_ok and mirror_ok and freq_ok
    record_criterion(5, "scheduler suite", ok,
                     "stage-3 shard freqs "
                     + "/".join(f"{f:.3f}" for f in freqs))
    assert rows_ok, "a policy row does not sum to 1"
    assert mirror_ok, "reversed variant is not the mirrored default"
    assert freq_ok, f"stage-3 default frequencies {freqs} not within 0.01 of 0.2"


# ---------------------------------------------------------------------------
# criteria 6-11: the experiment lab — full method lineup over three seeds
#
# One shared fixture scores each lab seed (`pipeline.score`, in a pool) and
# then makes one `pipeline.experiment` call, the path `epinmt experiment`
# ships, with the lab seeds as its eval seeds, which loads those plans; the
# protocol, swap, perturbation and bin rows of every seed are in its report.
# The criterion tests only read from it. Hyperparameters were calibrated by
# seed sweeps; every number in LAB_CONFIG is part of the frozen recipe.

LAB_SEEDS = (0, 1, 2)
LAB_METHODS = ("vanilla", "agg", "meta_mt", "epi_nmt", "epi_curriculum")
TRAINED_METHODS = tuple(m for m in LAB_METHODS if m != "vanilla")
LAB_CONFIG = {
    "dataset": {"n_content": 24, "n_seen": 3, "n_unseen": 2, "train_tokens": 900,
                "finetune_tokens": 150, "test_tokens": 250,
                "generic_train_tokens": 1500, "noise_fraction": 0.20,
                "trusted_count": 60,
                "rules": ["identity", "swap", "reverse", "swap", "reverse"],
                "windows": [[0, 16], [10, 10], [18, 6]], "unseen_like": [0, 1]},
    "model": {"d_model": 24, "n_layers": 1, "n_heads": 4, "d_ff": 48, "max_len": 16},
    "curriculum": {"scorer_steps": 600, "scorer_lr": 0.25, "lm_steps": 600,
                   "lm_lr": 0.2, "div_steps": 150, "div_lr": 0.1},
    # the base set also trains the swap specialists and drives fine-tuning
    "training": {"alpha": 0.25, "beta": 0.25, "epochs": 25, "batch_size": 8,
                 "finetune_epochs": 6, "finetune_lr": 0.05,
                 "methods": list(LAB_METHODS),
                 "overrides": {
                     "vanilla": {"epochs": 10},
                     "agg": {"alpha": 0.15, "epochs": 300, "batch_size": 64},
                     "meta_mt": {"alpha": 0.05, "beta": 0.05, "episodes": 600},
                     "epi_nmt": {"alpha": 0.08, "beta": 0.02, "episodes": 2400},
                     "epi_curriculum": {"alpha": 0.08, "beta": 0.05, "episodes": 2400}}},
    "eval": {"beam_width": 5, "experiment_beam_width": 1, "max_steps": 12,
             "sigmas": [0.03], "noise_seeds": [0, 1, 2]},
}


def _lab_config(output_dir="runs"):
    return cfgmod.config_from_dict({**LAB_CONFIG, "output_dir": str(output_dir),
                                    "eval": {**LAB_CONFIG["eval"], "seeds": LAB_SEEDS}})


def test_lab_config_is_the_frozen_recipe():
    seed = 2
    cfg = _lab_config()
    base = dict(alpha=0.25, beta=0.25, epochs=10, batch_size=8, seed=seed,
                finetune_epochs=6, finetune_lr=0.05)
    for m, ov in {"vanilla": {}, "agg": dict(alpha=0.15, epochs=300, batch_size=64),
                  "meta_mt": dict(alpha=0.05, beta=0.05, episodes=600),
                  "epi_nmt": dict(alpha=0.08, beta=0.02, episodes=2400),
                  "epi_curriculum": dict(alpha=0.08, beta=0.05, episodes=2400)}.items():
        hp = cfg.training.method_hp(m, seed)
        if hp.episodes is not None:  # `episodes` replaces `epochs`
            hp = replace(hp, epochs=base["epochs"])
        assert hp == tr.Hyperparams(**{**base, **ov}), m
    for d in range(1, 4):  # the swap specialists
        assert replace(cfg.training.hp, seed=seed * 100 + d) == tr.Hyperparams(
            **{**base, "epochs": 25, "seed": seed * 100 + d})
    assert cfg.training.methods == LAB_METHODS
    cu = cfg.curriculum
    assert (cu.variant, cu.denoise, cu.scorer_steps, cu.scorer_lr, cu.lm_steps,
            cu.lm_lr, cu.div_steps, cu.div_lr) == ("default", True, 600, 0.25,
                                                   600, 0.2, 150, 0.1)
    assert cfg.model == M.ModelConfig(d_model=24, n_layers=1, n_heads=4, d_ff=48,
                                      max_len=16)
    assert cfg.dataset == C.DatasetConfig(
        n_content=24, n_seen=3, n_unseen=2, train_tokens=900, finetune_tokens=150,
        test_tokens=250, generic_train_tokens=1500, noise_fraction=0.20,
        trusted_count=60, rules=("identity", "swap", "reverse", "swap", "reverse"),
        windows=((0, 16), (10, 10), (18, 6)), unseen_like=(0, 1))
    ev = cfg.eval
    assert (ev.seeds, ev.beam_width, ev.experiment_beam_width, ev.max_steps,
            ev.sigmas, ev.noise_seeds) == (LAB_SEEDS, 5, 1, 12, (0.03,), (0, 1, 2))


def _lab_seed(cfg, seed, report, denoise):
    """One seed's view of the lab: its rows of each report study, and the
    share of noisy and of clean pairs that its denoise scorer drops."""
    # a 10%-noise realization of the same dataset/seed for the filter check;
    # corpus generation and the trusted pairs do not depend on noise_fraction,
    # so the run's denoise scorer applies to it unchanged
    _, ds10 = C.build_dataset(replace(cfg.dataset, noise_fraction=0.10), seed)
    pairs10 = ds10.all_seen_training()
    dropped = np.asarray(cur.denoise_score_pairs(pairs10, denoise)) < 0
    noisy = np.array([p.is_noise for p in pairs10])
    rows = {study: [r for r in report[study] if r["seed"] == seed]
            for study in ("protocol", "swap", "perturbation", "divergence_bins")}
    (bins,) = rows.pop("divergence_bins")
    return dict(rows, divergence_bins=bins, seen_ids=ds10.seen_ids,
                filter10=(float(np.mean(dropped[noisy])),
                          float(np.mean(dropped[~noisy]))))


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    cfg = _lab_config(tmp_path_factory.mktemp("lab"))
    # score each seed in a pool, as `experiment` would, and keep the denoise
    # scorers for criterion 06; `experiment` then loads the plans
    with P._pool(len(LAB_SEEDS)) as pool:
        denoise = [d for _, d, _ in P._results(P._submit(
            pool, [(f"scoring (seed {s})", P.score, cfg, s) for s in LAB_SEEDS]))]
    # criteria 07-11 read the report file the run ships; JSON floats
    # round-trip exactly, and NaN loads back as nan
    with open(os.path.join(P.experiment(cfg), "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    return {seed: _lab_seed(cfg, seed, report, d) for seed, d in zip(LAB_SEEDS, denoise)}


def _lab_mean(lab, value):
    return float(np.mean([value(lab[s]) for s in LAB_SEEDS]))


@pytest.mark.lab
def test_criterion_06_noise_filter(lab):
    removed = _lab_mean(lab, lambda L: L["filter10"][0])
    clean_loss = _lab_mean(lab, lambda L: L["filter10"][1])
    ok = removed >= 0.70 and clean_loss <= 0.20
    record_criterion(6, "noise filter at 10% injected noise", ok,
                     f"removed {removed:.3f} >= 0.70, "
                     f"clean loss {clean_loss:.3f} <= 0.20")
    assert removed >= 0.70, f"only {removed:.3f} of the noise was filtered"
    assert clean_loss <= 0.20, f"{clean_loss:.3f} of the clean pairs were lost"


@pytest.mark.lab
def test_criterion_07_before_ft_ordering(lab):
    seen = {m: _lab_mean(lab, lambda L, m=m: protocol_mean(
        L["protocol"], m, "bleu_before", seen=True)) for m in LAB_METHODS}
    unseen = {m: _lab_mean(lab, lambda L, m=m: protocol_mean(
        L["protocol"], m, "bleu_before", seen=False)) for m in LAB_METHODS}
    order_ok = (seen["epi_curriculum"] >= seen["epi_nmt"] >= seen["agg"])
    unseen_ok = unseen["epi_curriculum"] >= unseen["vanilla"]
    ok = order_ok and unseen_ok
    record_criterion(7, "before-FT BLEU ordering", ok,
                     "seen " + "/".join(f"{m}={seen[m]:.2f}"
                                        for m in ("epi_curriculum", "epi_nmt",
                                                  "agg"))
                     + f", unseen epi_curriculum={unseen['epi_curriculum']:.2f}"
                       f" vanilla={unseen['vanilla']:.2f}")
    assert order_ok, f"seen-domain ordering violated: {seen}"
    assert unseen_ok, f"unseen-domain ordering violated: {unseen}"


@pytest.mark.lab
def test_criterion_08_finetune_gain(lab):
    gain = {m: _lab_mean(lab, lambda L, m=m: protocol_mean(
        L["protocol"], m, "delta_ft", seen=False)) for m in ("meta_mt", "agg")}
    ok = gain["meta_mt"] >= gain["agg"]
    record_criterion(8, "unseen fine-tuning gain", ok,
                     f"meta_mt {gain['meta_mt']:.2f} >= agg {gain['agg']:.2f}")
    assert ok, f"fine-tuning gains: {gain}"


@pytest.mark.lab
def test_criterion_09_module_swap(lab):
    means = {(part, m): _lab_mean(
        lab, lambda L, part=part, m=m: swap_mean(L["swap"], f"{part}:{m}"))
        for part in ("encoder", "decoder") for m in ("epi_curriculum", "agg")}
    enc_ok = means[("encoder", "epi_curriculum")] > means[("encoder", "agg")]
    dec_ok = means[("decoder", "epi_curriculum")] > means[("decoder", "agg")]
    ok = enc_ok and dec_ok
    record_criterion(
        9, "specialist swap improvements", ok,
        f"encoder {means[('encoder', 'epi_curriculum')]:.2f} vs "
        f"{means[('encoder', 'agg')]:.2f}, decoder "
        f"{means[('decoder', 'epi_curriculum')]:.2f} vs "
        f"{means[('decoder', 'agg')]:.2f}")
    assert enc_ok, f"encoder swap: {means}"
    assert dec_ok, f"decoder swap: {means}"


@pytest.mark.lab
def test_criterion_10_perturbation_robustness(lab):
    deg = {m: _lab_mean(lab, lambda L, m=m: degradation(
        L["perturbation"], m, 0.03, L["seen_ids"]))
        for m in ("agg", "epi_nmt", "epi_curriculum")}
    episodic = (deg["epi_nmt"] + deg["epi_curriculum"]) / 2.0
    ok = episodic < deg["agg"]
    record_criterion(10, "perturbation robustness at sigma=0.03", ok,
                     f"episodic mean {episodic:.3f} < agg {deg['agg']:.3f}")
    assert ok, f"relative degradations: {deg}"


@pytest.mark.lab
def test_criterion_11_divergence_bins(lab):
    rho = {m: _lab_mean(lab, lambda L, m=m: spearman(L["divergence_bins"]["bleu"][m]))
           for m in TRAINED_METHODS}
    ok = all(v < 0.0 for v in rho.values())
    record_criterion(11, "divergence-bin correlation", ok,
                     "/".join(f"{m}={v:.2f}" for m, v in rho.items()))
    assert ok, f"non-negative correlation for: " \
               f"{[m for m, v in rho.items() if v >= 0]}"


# ---------------------------------------------------------------------------
# criterion 12: byte-identical reruns


def test_criterion_12_determinism(tmp_path, capsys, monkeypatch):
    cfg = dict(TINY)
    cfg["output_dir"] = str(tmp_path / "runs")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run = P.run_dir(cfgmod.config_from_dict(cfg), 0)

    tracked = {}

    def run_and_compare(args, artifacts, recompute=()):
        """Run a command twice; artifacts maps label -> run-dir-relative path.
        The second run overwrites the first, so bytes are snapshotted. The
        run-dir-relative directories `recompute` are removed before the second
        run, so that it computes what it would load from there otherwise."""
        results = []
        for i in range(2):
            for rel in recompute if i else ():
                shutil.rmtree(os.path.join(run, rel))
            assert cli.main(args) == cli.EXIT_OK
            capsys.readouterr()
            results.append({label: Path(run, rel).read_bytes()
                            for label, rel in artifacts.items()})
        for label in artifacts:
            tracked[f"{args[0]}:{label}"] = results[0][label] == results[1][label]

    run_and_compare(["gen-data", "--config", str(cfg_path)],
                    {"manifest": "data/manifest.json",
                     "train_tsv": "data/domain_1.train.tsv"})
    run_and_compare(["score", "--config", str(cfg_path)],
                    {"plan": "score/plan.json", "scored": "score/scored.tsv"},
                    recompute=("score",))
    run_and_compare(["train", "--config", str(cfg_path), "--method", "agg"],
                    {"checkpoint": "train/agg.model.json"}, recompute=("train",))
    run_and_compare(["experiment", "--config", str(cfg_path)],
                    {"report_json": "eval/report.json",
                     "report_csv": "eval/report.csv"}, recompute=("train", "score"))

    # every file `experiment` writes into a fresh directory, with a pool of
    # one worker and of two
    trees = []
    for workers in (1, 2):
        monkeypatch.setattr(P, "_workers", lambda workers=workers: workers)
        out = tmp_path / f"workers{workers}"
        assert cli.main(["experiment", "--config", str(cfg_path),
                         "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    for rel in sorted(set(trees[0]) | set(trees[1])):
        tracked[f"experiment@1v2:{rel}"] = trees[0].get(rel) == trees[1].get(rel)

    ok = all(tracked.values())
    record_criterion(12, "byte-identical reruns", ok,
                     f"{len(tracked)} artifacts across 4 commands, "
                     f"{len(trees[1])} of them experiment at 1 and 2 workers")
    assert ok, f"non-deterministic artifacts: " \
               f"{[k for k, v in tracked.items() if not v]}"
