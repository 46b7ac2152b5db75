"""Run configuration: one JSON file drives every command.

Unknown keys are rejected so typos fail fast, and every stochastic component
draws its seed from the master seed through a fixed counter scheme
(SeedSequence([master, component, ...])).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict, fields

from .corpus import DatasetConfig
from .curriculum import SchedulerPolicy
from .model import ModelConfig
from .trainers import TRAINERS, Hyperparams

METHODS = tuple(TRAINERS)


class UsageError(ValueError):
    pass


@dataclass
class CurriculumConfig:
    variant: str = "default"
    denoise: bool = True
    stage_boundaries: tuple[float, float] = (1.0 / 3.0, 2.0 / 3.0)
    scorer_steps: int = 200      # denoise scorer adaptation
    scorer_lr: float = 3e-3
    lm_steps: int = 300          # base language model for divergence
    lm_lr: float = 3e-3
    div_steps: int = 100         # per-domain divergence LM adaptation
    div_lr: float = 3e-3

    def policy(self) -> SchedulerPolicy:
        return SchedulerPolicy.from_variant(self.variant, self.stage_boundaries)


@dataclass
class TrainingConfig:
    hp: Hyperparams = field(default_factory=Hyperparams)
    methods: tuple[str, ...] = METHODS
    # per-method hyperparameter overrides, e.g. {"agg": {"batch_size": 64}};
    # unlisted fields fall back to `hp`
    overrides: dict = field(default_factory=dict)

    def validate(self):
        for m in self.methods:
            if m not in METHODS:
                raise UsageError(
                    f"unknown method '{m}'; valid methods: {', '.join(METHODS)}")
        hp_fields = {f.name for f in fields(Hyperparams)}
        for m, ov in self.overrides.items():
            if m not in METHODS:
                raise UsageError(
                    f"override for unknown method '{m}'; "
                    f"valid methods: {', '.join(METHODS)}")
            unknown = set(ov) - hp_fields
            if unknown:
                raise UsageError(
                    f"unknown key(s) in training.overrides.{m}: "
                    f"{', '.join(sorted(unknown))}")
            try:
                self.method_hp(m, 0)
            except (TypeError, ValueError) as e:
                raise UsageError(f"training.overrides.{m}: {e}") from None

    def method_hp(self, method: str, seed: int) -> Hyperparams:
        from dataclasses import replace
        return replace(self.hp, seed=seed, **self.overrides.get(method, {}))


@dataclass
class EvalConfig:
    seeds: tuple[int, ...] = (0, 1, 2)
    sigmas: tuple[float, ...] = (0.01, 0.02, 0.03)
    noise_seeds: tuple[int, ...] = (0, 1, 2)
    beam_width: int = 5
    experiment_beam_width: int = 1   # swap/perturb/bin experiments
    max_steps: int = 32


@dataclass
class RunConfig:
    output_dir: str = "runs"
    master_seed: int = 0
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def canonical_json(self) -> str:
        """Every field except `output_dir`, which says where results go, not
        what they are."""
        payload = asdict(self)
        del payload["output_dir"]
        return json.dumps(payload, sort_keys=True, default=list)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def _build(cls, payload: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(payload) - allowed
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return payload


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        raw = json.load(f)
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    top_allowed = {"output_dir", "master_seed", "dataset", "model",
                   "curriculum", "training", "eval"}
    unknown = set(raw) - top_allowed
    if unknown:
        raise UsageError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    cfg = RunConfig()
    cfg.output_dir = raw.get("output_dir", cfg.output_dir)
    cfg.master_seed = int(raw.get("master_seed", cfg.master_seed))
    if "dataset" in raw:
        d = _build(DatasetConfig, raw["dataset"], "dataset")
        if "rules" in d:
            d = {**d, "rules": tuple(d["rules"])}
        if d.get("windows") is not None:
            d = {**d, "windows": tuple(tuple(w) for w in d["windows"])}
        if d.get("unseen_like") is not None:
            d = {**d, "unseen_like": tuple(d["unseen_like"])}
        cfg.dataset = DatasetConfig(**d)
    if "model" in raw:
        cfg.model = ModelConfig(**_build(ModelConfig, raw["model"], "model"))
    if "curriculum" in raw:
        c = _build(CurriculumConfig, raw["curriculum"], "curriculum")
        if "stage_boundaries" in c:
            c = {**c, "stage_boundaries": tuple(c["stage_boundaries"])}
        cfg.curriculum = CurriculumConfig(**c)
    if "training" in raw:
        t = dict(raw["training"])
        methods = tuple(t.pop("methods", METHODS))
        overrides = {m: dict(ov) for m, ov in t.pop("overrides", {}).items()}
        hp_fields = _build(Hyperparams, t, "training")
        try:
            hp = Hyperparams(**hp_fields)
        except (TypeError, ValueError) as e:
            raise UsageError(f"training: {e}") from None
        cfg.training = TrainingConfig(hp, methods, overrides)
    cfg.training.validate()
    if "eval" in raw:
        e = _build(EvalConfig, raw["eval"], "eval")
        for k in ("seeds", "sigmas", "noise_seeds"):
            if k in e:
                e = {**e, k: tuple(e[k])}
        cfg.eval = EvalConfig(**e)
    return cfg
