"""The four workloads: what each sets up, the fixed work one rep does, its checks.

Model and data follow the acceptance lab recipe (d_model 24, one layer, four
heads, the lab dataset and the lab per-method hyperparameters). The workload
seed is the dataset seed (on decode, of the test sentences only); the program
only ever sees the generated inputs. Every rep of one run starts from the same
inputs, so every rep must produce the same parameters, translations or
artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import rebound

HERE = Path(__file__).resolve().parent

LAB_DATASET = dict(n_content=24, n_seen=3, n_unseen=2, train_tokens=900,
                   finetune_tokens=150, test_tokens=250,
                   generic_train_tokens=1500, noise_fraction=0.20,
                   trusted_count=60,
                   rules=("identity", "swap", "reverse", "swap", "reverse"),
                   windows=((0, 16), (10, 10), (18, 6)), unseen_like=(0, 1))
LAB_MODEL = dict(d_model=24, n_layers=1, n_heads=4, d_ff=48, max_len=16)
LAB_HP = dict(alpha=0.25, beta=0.25, epochs=10, batch_size=8, finetune_epochs=6,
              finetune_lr=0.05)
EPI_CURRICULUM_HP = dict(alpha=0.08, beta=0.05, batch_size=8)
AGG_HP = dict(alpha=0.15, batch_size=64)
BEAMS, MAX_STEPS = (5, 1), 12

# Scorer adaptation steps for the episodic set-up: a tenth of the lab's
# (600, 600, 150), so that set-up can run several times per run. The scorers
# and the plan are built by the real code; only their training is shorter.
DENOISE_STEPS, LM_STEPS, DIV_STEPS = 60, 60, 15

EPISODES = 50           # episodic: one rep
AGG_EPOCHS = 5          # agg: one rep
DECODE_AGG_EPOCHS = 10  # decode: training of the fixed agg model, in set-up
MODEL_SEED = 0          # decode: dataset and training seed of the fixed models
LAST_STEPS = 10         # final_loss averages the loss of the last steps of a rep


@dataclass
class Rep:
    """One execution of a workload's fixed work."""
    wall_s: float
    digest: str          # parameters, translations or artifacts it produced
    warnings: int
    ops: int             # operations attempted: episodes, SGD steps, decodes, CLI steps
    failed: int = 0
    step_ms: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def params_digest(*paramsets) -> str:
    """sha256 over parameter names, shapes and bytes; equal across processes."""
    h = hashlib.sha256()
    for ps in paramsets:
        for name, t in ps.items():
            h.update(name.encode())
            h.update(repr(tuple(t.shape)).encode())
            h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def pctl(values, q: float) -> float:
    """Percentile with linear interpolation; 0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


@contextmanager
def counted_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


@contextmanager
def counted_target_tokens():
    """Count target tokens (EOS included) of every nll_batch loss."""
    counter = [0]

    def make(fn):
        def nll_batch(model, sources, targets):
            counter[0] += sum(len(t) + 1 for t in targets)
            return fn(model, sources, targets)
        return nll_batch

    with rebound("model.nll_batch", make):
        yield counter


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def mean_nll(model, pairs) -> float:
    from epinmt import model as M
    return M.nll_batch(model, [p.source for p in pairs], [p.target for p in pairs]).item()


def lab_inputs(seed: int):
    from epinmt import corpus as C, model as M, trainers as TR
    vocab, ds = C.build_dataset(C.DatasetConfig(**LAB_DATASET), seed)
    mcfg = M.ModelConfig(vocab_size=vocab.size, **LAB_MODEL)
    vanilla, _ = TR.pretrain_vanilla(ds.splits[ds.generic_id].training, mcfg,
                                     TR.Hyperparams(**LAB_HP, seed=seed))
    return ds, mcfg, vanilla


class Workload:
    name = ""
    warmup = True     # an untimed first rep that also counts target tokens
    min_reps = 1
    uses_children = False
    # Accepted range of each quality metric: the spread across workload seeds
    # with a margin, so that reordered floating-point sums stay inside it.
    quality: dict[str, tuple[float, float]] = {}

    def setup(self, seed: int):
        raise NotImplementedError

    def rep(self, inputs) -> Rep:
        raise NotImplementedError

    def metrics(self, inputs, reps: list[Rep], tokens: int) -> dict[str, float]:
        """Workload-specific end-to-end metrics from the timed reps."""
        return {}


class _TrainingWorkload(Workload):
    def start_loss(self, inputs) -> float:
        """Mean per-token loss of the starting model on the pairs a rep trains on."""
        raise NotImplementedError

    def metrics(self, inputs, reps, tokens):
        steps = [s for r in reps for s in r.step_ms]
        wall = statistics.median(r.wall_s for r in reps)
        return {"train_tok_per_s": tokens / wall,
                "step_ms_p50": pctl(steps, 50), "step_ms_p90": pctl(steps, 90),
                "step_samples": len(steps),
                "final_loss": float(np.mean(reps[-1].losses[-LAST_STEPS:]))}


class _StampedLog(list):
    """Episode log that notes the time at which epi_train appends each record."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def append(self, record) -> None:
        self.stamps.append(time.perf_counter())
        super().append(record)


class Episodic(_TrainingWorkload):
    """epi_curriculum episodes from a vanilla checkpoint and a scored plan."""
    name = "episodic"
    quality = {"final_loss": (1.2, 2.9)}      # seeds 0-19: 1.87-2.51

    def setup(self, seed):
        from epinmt import curriculum as CU, trainers as TR
        ds, mcfg, vanilla = lab_inputs(seed)
        denoise = CU.build_denoise_scorer(vanilla, ds, DENOISE_STEPS, 0.25, 8, seed)
        base_lm = CU.train_base_lm(
            mcfg, [p.source for p in ds.splits[ds.generic_id].training], LM_STEPS, 0.2, 8,
            np.random.default_rng(np.random.SeedSequence([seed, 41])))
        divergence = CU.build_divergence_scorer(base_lm, ds, DIV_STEPS, 0.1, 8, seed)
        pairs = ds.all_seen_training()
        CU.score_corpus(pairs, denoise, divergence)
        kept = CU.filter_noise(pairs)
        plan = CU.build_plan(kept, CU.SchedulerPolicy.from_variant("default"),
                             len(pairs) - len(kept))
        hp = TR.Hyperparams(**EPI_CURRICULUM_HP, seed=seed, episodes=EPISODES)
        return ds, vanilla, plan, hp

    def start_loss(self, inputs):
        _, vanilla, plan, _ = inputs
        return mean_nll(vanilla, [p for shard in plan.shards for p in shard])

    def rep(self, inputs):
        from epinmt import trainers as TR
        ds, vanilla, plan, hp = inputs
        with counted_warnings() as caught:
            t0 = time.perf_counter()
            state = TR.init_state(vanilla, ds.seen_ids, plan, hp)
            log = state.episode_log = _StampedLog()
            t1 = time.perf_counter()
            TR.epi_train(state)
            t2 = time.perf_counter()
        edges = [t1] + log.stamps
        bad = sum(1 for r in log
                  if not _finite((r.loss_agg, r.loss_spec, r.loss_enc, r.loss_dec)))
        return Rep(wall_s=t2 - t0, digest=params_digest(state.agg.encoder, state.agg.decoder),
                   warnings=len(caught), ops=len(log), failed=bad,
                   step_ms=[(b - a) * 1e3 for a, b in zip(edges, edges[1:])],
                   losses=[r.loss_agg for r in log])


class Agg(_TrainingWorkload):
    """train_agg over every seen training pair at batch 64."""
    name = "agg"
    quality = {"final_loss": (1.4, 2.9)}      # seeds 0-19: 2.15-2.48

    def setup(self, seed):
        from epinmt import trainers as TR
        ds, _, vanilla = lab_inputs(seed)
        hp = TR.Hyperparams(**AGG_HP, seed=seed, epochs=AGG_EPOCHS)
        return vanilla, ds.all_seen_training(), hp

    def start_loss(self, inputs):
        vanilla, pairs, _ = inputs
        return mean_nll(vanilla, pairs)

    def rep(self, inputs):
        from epinmt import trainers as TR
        vanilla, pairs, hp = inputs
        starts: list[float] = []

        def make(fn):
            def nll_batch(*args, **kwargs):
                starts.append(time.perf_counter())
                return fn(*args, **kwargs)
            return nll_batch

        # one timestamp at the start of each SGD step marks the step boundaries
        with counted_warnings() as caught, rebound("model.nll_batch", make):
            t0 = time.perf_counter()
            model, curve = TR.train_agg(vanilla, pairs, hp)
            t1 = time.perf_counter()
        edges = starts + [t1]
        return Rep(wall_s=t1 - t0, digest=params_digest(model.encoder, model.decoder),
                   warnings=len(caught), ops=len(curve),
                   failed=sum(1 for v in curve if not math.isfinite(v)),
                   step_ms=[(b - a) * 1e3 for a, b in zip(edges, edges[1:])],
                   losses=list(curve))


class Decode(Workload):
    """Beam 5 and beam 1 over every test split, for two fixed trained models.

    The models are the same in every run: trained on the lab dataset of
    MODEL_SEED. The workload seed draws the test sentences from the same
    domains, and their references follow those domains' mapping. How soon
    every beam of a batch emits EOS, and so the decoding work, depends on
    the model; with the models fixed it varies across seeds by about 4%
    instead of about 12%.
    """
    name = "decode"
    quality = {"bleu": (3.0, 40.0)}           # seeds 100-109: 7.6-11.9

    def setup(self, seed):
        from epinmt import corpus as C, trainers as TR
        fixed, _, vanilla = lab_inputs(MODEL_SEED)
        agg, _ = TR.train_agg(vanilla, fixed.all_seen_training(),
                              TR.Hyperparams(**AGG_HP, seed=MODEL_SEED,
                                             epochs=DECODE_AGG_EPOCHS))
        vocab, ds = C.build_dataset(C.DatasetConfig(**LAB_DATASET), seed)
        splits = []
        for d in ds.seen_ids + ds.unseen_ids:
            spec = fixed.specs[d]
            sub = spec.build_substitution(vocab)
            splits.append([C.SentencePair(p.source, C.domain_target(spec, p.source, sub), d)
                           for p in ds.splits[d].testing])
        return {"vanilla": vanilla, "agg": agg}, splits

    def rep(self, inputs):
        from epinmt import evaluate as E
        models, splits = inputs
        seconds = {bw: 0.0 for bw in BEAMS}
        hyps = {}
        with counted_warnings() as caught:
            t0 = time.perf_counter()
            for name, model in models.items():
                for bw in BEAMS:
                    ts = time.perf_counter()
                    for i, pairs in enumerate(splits):
                        h = E.translate_corpus(model, pairs, bw, MAX_STEPS)
                        E.corpus_bleu(h, [p.target for p in pairs])
                        hyps[f"{name}/b{bw}/{i}"] = h
                    seconds[bw] += time.perf_counter() - ts
            t1 = time.perf_counter()
        digest = hashlib.sha256(json.dumps(hyps, sort_keys=True).encode()).hexdigest()
        return Rep(wall_s=t1 - t0, digest=digest, warnings=len(caught), ops=len(hyps),
                   detail={"seconds": seconds, "hyps": hyps})

    def metrics(self, inputs, reps, tokens):
        from epinmt import evaluate as E
        models, splits = inputs
        sentences = len(models) * sum(len(s) for s in splits)
        out = {f"decode_b{bw}_sent_per_s": statistics.median(
            sentences / r.detail["seconds"][bw] for r in reps) for bw in BEAMS}
        hyps = reps[-1].detail["hyps"]
        pooled = [h for i in range(len(splits)) for h in hyps[f"agg/b5/{i}"]]
        refs = [p.target for s in splits for p in s]
        out["bleu"] = E.corpus_bleu(pooled, refs).score
        return out


# ---------------------------------------------------------------------------
# pipeline


PIPELINE_STEPS = (
    ("gen-data", ["gen-data"]),
    ("score", ["score"]),
    ("train", ["train", "--method", "epi_curriculum", "--build-deps"]),
    ("finetune", ["finetune", "--method", "epi_curriculum"]),
    ("experiment", ["experiment"]),
)
STEP_TIMEOUT_S = 150


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def file_digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


class Pipeline(Workload):
    """A fixed chain of `epinmt` subcommands, as subprocesses, in a fresh directory."""
    name = "pipeline"
    quality = {"bleu": (0.05, 20.0)}          # seeds 0-9: 0.35-0.90
    warmup = False
    min_reps = 2       # two reps of one seed must leave byte-identical artifacts
    uses_children = True

    def __init__(self, src: Path, out: Path):
        self.src, self.out = src, out
        self.tracer = None    # when set, each CLI step records spans into it
        self._n = 0

    def setup(self, seed):
        from epinmt import config as CF
        from epinmt import pipeline as P
        raw = json.loads((HERE / "pipeline_config.json").read_text())
        raw["master_seed"] = seed
        raw["eval"]["seeds"] = [seed, seed + 1]
        cfg = CF.config_from_dict(raw)
        runs = {s: Path(P.run_dir(cfg, s)) for s in raw["eval"]["seeds"]}
        domains = range(1, 1 + cfg.dataset.n_seen + cfg.dataset.n_unseen)
        first, second = runs[seed], runs[seed + 1]
        expected = {
            "gen-data": [first / "data/manifest.json", first / "data/vocab.txt"],
            "score": [first / f"score/{n}" for n in ("plan.json", "scored.tsv",
                                                     "summary.json")],
            "train": [first / "train/epi_curriculum.model.json",
                      first / "train/epi_curriculum.provenance.json"],
            "finetune": [first / f"train/epi_curriculum.ft_domain{d}.model.json"
                         for d in domains],
            "experiment": [first / "eval/report.json", first / "eval/report.csv",
                           second / "score/plan.json"],
        }
        return raw, expected, first

    def rep(self, inputs):
        raw, expected, first = inputs
        self._n += 1
        work = self.out / f"pipeline-{os.getpid()}-{self._n}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            (work / "config.json").write_text(json.dumps(raw, indent=1))
            env = child_env(self.src)
            step_s, warned, failed, spans = {}, 0, 0, {}
            t0 = time.perf_counter()
            for label, argv in PIPELINE_STEPS:
                stats = work / f".{label}.stats.json"
                cmd = [sys.executable, str(HERE / "cli_boot.py"), "--stats", str(stats)]
                if self.tracer is not None:
                    spans[label] = work / f".{label}.spans.json.gz"
                    cmd += ["--spans", str(spans[label])]
                cmd += ["--", *argv, "--config", "config.json"]
                ts = time.perf_counter()
                proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=STEP_TIMEOUT_S)
                step_s[label] = time.perf_counter() - ts
                missing = [str(p) for p in expected[label] if not (work / p).is_file()]
                if proc.returncode != 0 or missing:
                    failed += 1
                    print(f"perfbench: {label} exited {proc.returncode}, missing {missing}:"
                          f" {proc.stderr[-2000:]}", file=sys.stderr)
                if stats.is_file():
                    warned += json.loads(stats.read_text())["warnings"]
            t1 = time.perf_counter()
            for label, path in spans.items():
                if path.is_file():
                    self.tracer.merge(path, f"{self.tracer.run_id}:{label}")
            artifacts = file_digests(work / raw["output_dir"])
            report = work / first / "eval/report.json"
            bleu = (float(np.mean([c["bleu_before"] for c in
                                   json.loads(report.read_text())["protocol"]]))
                    if report.is_file() else float("nan"))
            digest = hashlib.sha256(json.dumps(artifacts, sort_keys=True).encode()).hexdigest()
            return Rep(wall_s=t1 - t0, digest=digest, warnings=warned,
                       ops=len(PIPELINE_STEPS), failed=failed,
                       detail={"step_s": step_s, "bleu": bleu, "artifacts": len(artifacts)})
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def metrics(self, inputs, reps, tokens):
        return {"bleu": reps[-1].detail["bleu"]}


def make(name: str, src: Path, out: Path) -> Workload:
    if name == "pipeline":
        return Pipeline(src, out)
    return {"episodic": Episodic, "agg": Agg, "decode": Decode}[name]()

