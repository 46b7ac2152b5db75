"""Training procedures: episodic updates, baselines, fine-tuning, logging."""

import multiprocessing
import os
import signal
import time
import warnings

import numpy as np
import pytest

from epinmt import corpus as C
from epinmt import curriculum as cur
from epinmt import model as M
from epinmt import tensor as T
from epinmt import trainers as tr
from epinmt.errors import InternalError

from helpers import episodic_update_footprint, tiny_config


@pytest.fixture(scope="module")
def world():
    """Small 3-seen-domain dataset, a lightly pre-trained vanilla model, and a
    uniform plan over the seen training pairs."""
    cfg = C.DatasetConfig(n_content=16, n_seen=3, n_unseen=1,
                          train_tokens=300, finetune_tokens=80,
                          test_tokens=80, generic_train_tokens=400,
                          noise_fraction=0.0, trusted_count=5)
    vocab, ds = C.build_dataset(cfg, seed=0)
    mcfg = tiny_config(vocab_size=vocab.size)
    hp = tr.Hyperparams(alpha=0.1, beta=0.15, epochs=1, batch_size=8, seed=0)
    vanilla, curve = tr.pretrain_vanilla(ds.splits[ds.generic_id].training, mcfg, hp)
    plan = cur.uniform_plan(ds.all_seen_training())
    return vocab, ds, mcfg, vanilla, plan


def _hp(**kw):
    base = dict(alpha=0.1, beta=0.15, epochs=1, batch_size=8, seed=0)
    base.update(kw)
    return tr.Hyperparams(**base)


class TestHyperparams:
    def test_zero_rates_allowed(self):
        hp = tr.Hyperparams(alpha=0.0, beta=0.0)
        assert hp.alpha == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            tr.Hyperparams(alpha=-0.1)

    @pytest.mark.parametrize("kw", [dict(batch_size=0), dict(epochs=-1),
                                    dict(finetune_epochs=-1), dict(episodes=0),
                                    dict(episodes=-3)])
    def test_invalid_counts_rejected(self, kw):
        with pytest.raises(ValueError):
            tr.Hyperparams(**kw)

    def test_zero_epochs_allowed(self):
        hp = tr.Hyperparams(epochs=0, finetune_epochs=0, episodes=1)
        assert (hp.epochs, hp.finetune_epochs, hp.episodes) == (0, 0, 1)

    def test_finetune_lr_defaults_to_alpha(self):
        assert tr.Hyperparams(alpha=0.07).ft_lr == 0.07
        assert tr.Hyperparams(alpha=0.07, finetune_lr=0.01).ft_lr == 0.01


class TestPretrain:
    def test_loss_decreases(self, world):
        _, ds, mcfg, _, _ = world
        model, curve = tr.pretrain_vanilla(ds.splits[ds.generic_id].training,
                                           mcfg, _hp(epochs=2))
        assert np.mean(curve[-5:]) < np.mean(curve[:5])

    def test_deterministic(self, world):
        _, ds, mcfg, _, _ = world
        a, _ = tr.pretrain_vanilla(ds.splits[ds.generic_id].training, mcfg, _hp())
        b, _ = tr.pretrain_vanilla(ds.splits[ds.generic_id].training, mcfg, _hp())
        assert a.checksum() == b.checksum()

    def test_empty_corpus_rejected(self, world):
        _, _, mcfg, _, _ = world
        with pytest.raises(ValueError):
            tr.pretrain_vanilla([], mcfg, _hp())


class TestAgg:
    def test_does_not_mutate_vanilla(self, world):
        _, ds, _, vanilla, _ = world
        cs = vanilla.checksum()
        tr.train_agg(vanilla, ds.all_seen_training(), _hp())
        assert vanilla.checksum() == cs

    def test_changes_model(self, world):
        _, ds, _, vanilla, _ = world
        model, _ = tr.train_agg(vanilla, ds.all_seen_training(), _hp())
        assert model.checksum() != vanilla.checksum()

    def test_curriculum_variant_runs_all_stages(self, world):
        _, _, _, vanilla, plan = world
        model, curve = tr.train_agg_curriculum(vanilla, plan,
                                               _hp(episodes=12))
        assert len(curve) == 12
        assert model.checksum() != vanilla.checksum()

    def test_zero_alpha_is_identity(self, world):
        _, ds, _, vanilla, _ = world
        model, _ = tr.train_agg(vanilla, ds.all_seen_training(), _hp(alpha=0.0))
        assert model.checksum() == vanilla.checksum()


class TestSpecialistStep:
    def test_foreign_domain_rejected(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp())
        i, j = ds.seen_ids[0], ds.seen_ids[1]
        batch = ds.splits[j].training[:4]
        with pytest.raises(InternalError,
                           match="specialist_step: batch contains foreign domain pairs"):
            tr.specialist_step(state, i, batch)

    def test_locality(self, world):
        """Exactly one specialist moves; agg and the others are untouched."""
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp())
        before = {d: state.specialists[d].checksum() for d in ds.seen_ids}
        agg_before = state.agg.checksum()
        i = ds.seen_ids[1]
        tr.specialist_step(state, i, ds.splits[i].training[:4])
        assert state.specialists[i].checksum() != before[i]
        for d in ds.seen_ids:
            if d != i:
                assert state.specialists[d].checksum() == before[d]
        assert state.agg.checksum() == agg_before

    def test_zero_beta_is_noop(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp(beta=0.0))
        i = ds.seen_ids[0]
        before = state.specialists[i].checksum()
        tr.specialist_step(state, i, ds.splits[i].training[:4])
        assert state.specialists[i].checksum() == before


class TestEpisodicFreezing:
    """epi_train's episodic update of one agg module: its backward gives
    gradients to that module alone, through the partner's frozen other
    module, and its step moves only that module."""

    def test_encoder_step_touches_only_agg_encoder(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp())
        i, k = ds.seen_ids[:2]
        holders, moved = episodic_update_footprint(state, "encoder",
                                                   ds.splits[i].training[:4], k)
        assert holders == moved == ["agg.encoder"]

    def test_decoder_step_touches_only_agg_decoder(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp())
        k, i = ds.seen_ids[:2]
        holders, moved = episodic_update_footprint(state, "decoder",
                                                   ds.splits[i].training[:4], k)
        assert holders == moved == ["agg.decoder"]

    def test_needs_two_domains(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, [ds.seen_ids[0]], plan, _hp(episodes=1))
        with pytest.raises(ValueError, match="at least 2 seen domains"):
            tr.epi_train(state)


class TestEpiTrain:
    def test_single_episode_matches_straight_line_oracle(self, world):
        """Re-derive one episode with explicit per-loss gradients and manual
        numpy parameter arithmetic; the trainer must agree to 1e-10."""
        _, ds, _, vanilla, plan = world
        hp = _hp(episodes=1)
        state = tr.init_state(vanilla, ds.seen_ids, plan, hp)
        tr.epi_train(state)

        # --- oracle: same sampling stream, independent update arithmetic ---
        rng = np.random.default_rng(np.random.SeedSequence([hp.seed, 5]))
        seen = sorted(ds.seen_ids)
        agg = vanilla.copy()
        specs = {d: vanilla.copy() for d in seen}
        stage = cur.stage_of(0.0, plan.policy)
        i = seen[0]
        for j in seen:
            batch_j = cur.sample_batch(plan, stage, hp.batch_size, rng, domain_id=j)
            loss = M.nll_batch(specs[j], [p.source for p in batch_j],
                               [p.target for p in batch_j])
            T.backward(loss)
            for ps in (specs[j].encoder, specs[j].decoder):
                for name, prm in ps.items():
                    prm.data = prm.data - hp.beta * prm.grad
                    prm.grad = None
        others = [d for d in seen if d != i]
        k = int(others[rng.integers(0, len(others))])
        batch_i = cur.sample_batch(plan, stage, hp.batch_size, rng, domain_id=i)
        srcs = [p.source for p in batch_i]
        tgts = [p.target for p in batch_i]

        def take_grads(params):
            """Copies of the parameters' gradients, which are then cleared."""
            out = {}
            for n, p in params.items():
                out[n], p.grad = p.grad.copy(), None
            return out

        def grads_of(loss, params):
            T.backward(loss)
            return take_grads(params)

        T.backward(M.nll_batch(agg, srcs, tgts))
        gA_enc, gA_dec = take_grads(agg.encoder), take_grads(agg.decoder)

        hybrid_e = M.EncoderDecoderModel(agg.config, agg.encoder,
                                         specs[k].decoder.frozen_view())
        gE = grads_of(M.nll_batch(hybrid_e, srcs, tgts), agg.encoder)
        hybrid_d = M.EncoderDecoderModel(agg.config,
                                         specs[k].encoder.frozen_view(),
                                         agg.decoder)
        gD = grads_of(M.nll_batch(hybrid_d, srcs, tgts), agg.decoder)

        for n, p in agg.encoder.items():
            p.data = p.data - hp.alpha * (gA_enc[n] + gE[n])
        for n, p in agg.decoder.items():
            p.data = p.data - hp.alpha * (gA_dec[n] + gD[n])

        for ps_got, ps_want in ((state.agg.encoder, agg.encoder),
                                (state.agg.decoder, agg.decoder)):
            for name in ps_want:
                err = np.max(np.abs(ps_got[name].data - ps_want[name].data))
                assert err < 1e-10, f"{name}: {err}"
        for d in seen:
            for ps_got, ps_want in ((state.specialists[d].encoder, specs[d].encoder),
                                    (state.specialists[d].decoder, specs[d].decoder)):
                for name in ps_want:
                    err = np.max(np.abs(ps_got[name].data - ps_want[name].data))
                    assert err < 1e-10, f"specialist {d} {name}: {err}"
        rec = state.episode_log[0]
        assert rec.domain_i == i and rec.partner_k == k and rec.stage == stage

    def test_round_robin_and_log_shape(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=7))
        assert tr.epi_train(state) is state.agg
        assert [r.domain_i for r in state.episode_log] == \
            [sorted(ds.seen_ids)[e % len(ds.seen_ids)] for e in range(7)]
        assert all(r.partner_k != r.domain_i for r in state.episode_log)
        assert all(np.isfinite([r.loss_agg, r.loss_spec, r.loss_enc, r.loss_dec]).all()
                   for r in state.episode_log)

    def test_zero_rates_freeze_everything(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan,
                              _hp(alpha=0.0, beta=0.0, episodes=3))
        tr.epi_train(state)
        assert state.agg.checksum() == vanilla.checksum()
        for d in ds.seen_ids:
            assert state.specialists[d].checksum() == vanilla.checksum()

    def test_deterministic(self, world):
        _, ds, _, vanilla, plan = world
        a = tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=5)))
        b = tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=5)))
        assert a.checksum() == b.checksum()

    def test_epi_nmt_wrapper_uses_single_shard(self, world):
        """The epi_nmt method runs the episodic loop on a one-shard plan of
        every seen training pair, and needs no curriculum plan."""
        _, ds, _, vanilla, _ = world
        needs_plan, trainer = tr.TRAINERS["epi_nmt"]
        single = cur.uniform_plan(ds.all_seen_training())
        want = tr.epi_train(tr.init_state(vanilla, ds.seen_ids, single, _hp(episodes=3)))
        assert not needs_plan and len(single.shards) == 1
        assert trainer(vanilla, ds, None, _hp(episodes=3)).checksum() == want.checksum()

    def test_renormalizing_warns_once_per_domain(self, world):
        """Shards sorted by domain leave every domain out of some shard that
        each stage samples, so every `sample_batch` call renormalizes; one
        run warns once per such domain, not once per batch."""
        _, ds, _, vanilla, _ = world
        pairs = [C.SentencePair(p.source, p.target, p.domain_id, d_score=float(p.domain_id))
                 for p in ds.all_seen_training()]
        uniform = ((0.2,) * 5,) * 3
        plan = cur.build_plan(pairs, cur.SchedulerPolicy("uniform", uniform))
        gapped = [d for d in ds.seen_ids if any(not s for s in plan.domain_shards(d))]
        assert len(gapped) == 3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=4)))
        assert len(caught) == len(gapped)
        assert all("renormaliz" in str(w.message) for w in caught)


class TestNonFiniteLoss:
    """A learning rate that blows the parameters up stops training at once."""

    def test_plain_training_fails_fast(self, world):
        _, ds, _, vanilla, _ = world
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InternalError, match="non-finite loss .* at step"):
            tr.train_agg(vanilla, ds.all_seen_training(), _hp(alpha=1e100))

    def test_epi_train_names_the_episode(self, world):
        """...and stops the specialists' process, which is then blocked
        sending episodes that the caller will never read."""
        _, ds, _, vanilla, plan = world
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InternalError, match="non-finite loss at episode 1"):
            tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan,
                                       _hp(alpha=1e100, episodes=400)))
        assert multiprocessing.active_children() == []

    def test_maml_train_names_the_episode(self, world):
        _, ds, _, vanilla, _ = world
        pools = {d: ds.splits[d].training for d in ds.seen_ids}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InternalError, match="non-finite loss .* at episode 1"):
            tr.maml_train(vanilla, pools, _hp(alpha=1e100, episodes=5))


def _failing_at_call(n: int, fail):
    """A specialist_step that calls fail() on its n-th call (from 1)."""
    step, calls = tr.specialist_step, [0]

    def specialist_step(*args):
        calls[0] += 1
        if calls[0] == n:
            fail()
        return step(*args)
    return specialist_step


class TestSpecialistStream:
    """epi_train runs the specialists in a forked process of their own; no
    process outlives the call, however it ends."""

    def test_normal_return_leaves_the_specialists_of_a_serial_run(self, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=5))
        serial = tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=5))
        seen = sorted(ds.seen_ids)
        for e in tr._draw_episodes(serial):
            for j, batch in zip(seen, e.spec_batches):
                tr.specialist_step(serial, j, batch)
        tr.epi_train(state)
        assert multiprocessing.active_children() == []
        for d in seen:
            assert state.specialists[d].checksum() == serial.specialists[d].checksum()
            assert state.specialists[d].checksum() != vanilla.checksum()

    def test_keyboard_interrupt_stops_the_stream(self, world, monkeypatch):
        _, ds, _, vanilla, plan = world

        def interrupted(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(tr, "_episodic_backward", interrupted)
        with pytest.raises(KeyboardInterrupt):
            tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=200)))
        assert multiprocessing.active_children() == []

    def test_stream_exception_is_raised_with_its_type(self, world, monkeypatch):
        _, ds, _, vanilla, plan = world

        def fail():
            raise LookupError("no such specialist")
        monkeypatch.setattr(tr, "specialist_step", _failing_at_call(7, fail))
        with pytest.raises(LookupError, match="no such specialist"):
            tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=6)))
        assert multiprocessing.active_children() == []

    def test_dead_stream_names_the_episode(self, world, monkeypatch):
        """The 7th specialist step is the first of episode 2 (3 seen domains)."""
        _, ds, _, vanilla, plan = world
        monkeypatch.setattr(tr, "specialist_step", _failing_at_call(7, lambda: os._exit(5)))
        with pytest.raises(InternalError,
                           match=r"specialists' process died at episode 2 \(exit code 5\)"):
            tr.epi_train(tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=6)))
        assert multiprocessing.active_children() == []

    def test_stream_ends_when_its_caller_is_killed(self, world, monkeypatch):
        """A caller killed without cleanup (a pool worker terminated, say)
        leaves the stream to find the pipe's read end gone and exit."""
        _, ds, _, vanilla, plan = world
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def stall(*args):   # in the caller: report the stream's pid, then hang
            writer.send(multiprocessing.active_children()[0].pid)
            time.sleep(120)
        monkeypatch.setattr(tr, "_episodic_backward", stall)
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=400))
        caller = ctx.Process(target=tr.epi_train, args=(state,))
        caller.start()
        try:
            assert reader.poll(60)
            pid = reader.recv()
        finally:
            caller.kill()
            caller.join()

        def alive() -> bool:   # an exited orphan may stay a zombie until reaped
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False
        deadline = time.monotonic() + 30
        while alive() and time.monotonic() < deadline:
            time.sleep(0.05)
        if alive():
            os.kill(pid, signal.SIGKILL)
            pytest.fail("the stream outlived its killed caller")


class TestMaml:
    def test_zero_alpha_is_identity(self, world):
        _, ds, _, vanilla, _ = world
        pools = {d: ds.splits[d].training for d in ds.seen_ids}
        model = tr.maml_train(vanilla, pools, _hp(alpha=0.0, episodes=3))
        assert model.checksum() == vanilla.checksum()

    def test_updates_and_determinism(self, world):
        _, ds, _, vanilla, _ = world
        pools = {d: ds.splits[d].training for d in ds.seen_ids}
        a = tr.maml_train(vanilla, pools, _hp(episodes=5))
        b = tr.maml_train(vanilla, pools, _hp(episodes=5))
        assert a.checksum() == b.checksum()
        assert a.checksum() != vanilla.checksum()

    def test_empty_domains_rejected(self, world):
        _, _, _, vanilla, _ = world
        with pytest.raises(ValueError):
            tr.maml_train(vanilla, {}, _hp())


class TestFinetune:
    def test_input_untouched_and_loss_improves(self, world):
        _, ds, _, vanilla, _ = world
        d = ds.seen_ids[0]
        pairs = ds.splits[d].finetune
        cs = vanilla.checksum()
        adapted = tr.finetune(vanilla, pairs, _hp(finetune_epochs=8))
        assert vanilla.checksum() == cs
        before = M.nll_batch(vanilla, [p.source for p in pairs],
                             [p.target for p in pairs]).item()
        after = M.nll_batch(adapted, [p.source for p in pairs],
                            [p.target for p in pairs]).item()
        assert after < before

    def test_empty_split_rejected(self, world):
        _, _, _, vanilla, _ = world
        with pytest.raises(ValueError):
            tr.finetune(vanilla, [], _hp())


class TestEpisodeLog:
    def test_csv_roundtrip(self, tmp_path, world):
        _, ds, _, vanilla, plan = world
        state = tr.init_state(vanilla, ds.seen_ids, plan, _hp(episodes=4))
        tr.epi_train(state)
        path = tmp_path / "log.csv"
        tr.write_episode_log(state.episode_log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["episode", "stage", "domain_i", "partner_k",
                                       "L_agg", "L_i", "L_enc", "L_dec"]
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[4]) == pytest.approx(state.episode_log[0].loss_agg)
