"""Run configuration: one JSON file drives every command.

Unknown keys are rejected so typos fail fast. Each stochastic component
draws from SeedSequence([s, counters...]), s derived from the run's seed, but
the modules' counters overlap: domain d's data and `trainers._rng(seed, d)`
read one stream.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass, field, asdict, fields, is_dataclass, replace

from .corpus import DatasetConfig
from .curriculum import SchedulerPolicy
from .errors import UsageError, at_least
from .model import ModelConfig
from .trainers import TRAINERS, Hyperparams

METHODS = tuple(TRAINERS)


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

    def __post_init__(self):
        at_least(self, scorer_steps=0, lm_steps=0, div_steps=0, scorer_lr=0, lm_lr=0,
                 div_lr=0)
        self.policy()

    def policy(self) -> SchedulerPolicy:
        return SchedulerPolicy.from_variant(self.variant, self.stage_boundaries)


@dataclass
class TrainingConfig:
    hp: Hyperparams = field(default_factory=Hyperparams)
    methods: tuple[str, ...] = METHODS
    # per-method hyperparameter overrides, e.g. {"agg": {"batch_size": 64}};
    # unlisted fields fall back to `hp`
    overrides: dict = field(default_factory=dict)

    def method_hp(self, method: str, seed: int) -> Hyperparams:
        return replace(self.hp, seed=seed, **self.overrides.get(method, {}))


@dataclass
class EvalConfig:
    seeds: tuple[int, ...] = (0, 1, 2)
    sigmas: tuple[float, ...] = (0.01, 0.02, 0.03)
    noise_seeds: tuple[int, ...] = (0, 1, 2)
    beam_width: int = 5
    experiment_beam_width: int = 1   # swap/perturb/bin experiments
    max_steps: int = 32

    def __post_init__(self):
        at_least(self, seeds=0, sigmas=0, noise_seeds=0, beam_width=1,
                 experiment_beam_width=1, max_steps=1)
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be nonempty and distinct, got {list(self.seeds)}")
        if self.sigmas and not self.noise_seeds:
            raise ValueError("noise_seeds must not be empty when sigmas is not")


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
        """Every field but `output_dir`, where results go, `master_seed`, which
        the run directory's name carries, and `eval`, which no stage file reads."""
        payload = asdict(self)
        del payload["output_dir"], payload["master_seed"], payload["eval"]
        return json.dumps(payload, sort_keys=True, default=list)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


# fields that the stages set themselves, so that a config which sets one is
# refused rather than silently overridden: field -> where the value comes from
_DERIVED = {
    (ModelConfig, "vocab_size"): "it is the size of the vocabulary that `dataset` "
                                 "generates",
    (Hyperparams, "seed"): "each task derives it from the run's seed (master_seed or "
                           "--seed; each of eval.seeds in experiment)",
}

# the hyperparameters that only the base block sets: fine-tuning reads
# `training.hp` whatever the method, so an override would only move the hash
_BASE_ONLY = ("finetune_epochs", "finetune_lr")


def _check_keys(cls, payload: dict, where: str) -> None:
    """Every key of payload is a field of dataclass `cls` that a config may set."""
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    for key in payload:
        if (cls, key) in _DERIVED:
            raise UsageError(f"{where}.{key} cannot be set: {_DERIVED[cls, key]}")


# each config class's annotations, evaluated from their strings once
_hints = functools.cache(typing.get_type_hints)

# the JSON values that each scalar annotation takes: (their name, a test of one)
_SCALARS = {
    int: ("integers", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # NaN, inf and an integer too large for a float all fail the bound
    float: ("finite numbers", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("strings", lambda v: isinstance(v, str)),
}


def _value(hint, value, where: str):
    """The JSON `value` of the field that `where` names, as its annotation
    `hint` holds it: a list (or a Python caller's tuple) as a tuple, an object
    as the dataclass. A value of another kind is a usage error naming the
    field, or the item that is wrong."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:                    # X | None
        (inner,) = set(args) - {type(None)}
        return None if value is None else _value(inner, value, where)
    if origin is tuple:
        sized = args[-1] is not Ellipsis
        if not isinstance(value, (list, tuple)) or sized and len(value) != len(args):
            size = f" of {len(args)} items" if sized else ""
            raise UsageError(f"{where} takes lists{size} only, got {json.dumps(value)}")
        items = args if sized else args[:1] * len(value)
        return tuple(_value(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    if is_dataclass(hint):
        return _build(hint, value, where)
    name, fits = _SCALARS[hint]
    if not fits(value):
        raise UsageError(f"{where} takes {name} only, got {json.dumps(value)}")
    return value


def _object(value, where: str) -> dict:
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be a JSON object, got {json.dumps(value)}")
    return value


def _build(cls, payload: dict, where: str):
    """cls(**payload), each value checked against its field's annotation;
    unknown keys and invalid values are usage errors."""
    _check_keys(cls, _object(payload, where), where)
    hints = _hints(cls)
    values = {k: _value(hints[k], v, f"{where}.{k}") for k, v in payload.items()}
    try:
        return cls(**values)
    except ValueError as e:    # a rule across fields, or a bound
        raise UsageError(f"{where}: {e}") from None


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as e:   # malformed JSON or not UTF-8
            raise UsageError(f"{path} is not a valid JSON file: {e}") from None
    return config_from_dict(raw)


def _training(t: dict) -> TrainingConfig:
    """The `training` section: the base hyperparameters with `methods` and
    `overrides`, each override checked as the hyperparameter set it makes."""
    methods = _value(_hints(TrainingConfig)["methods"],
                     t.pop("methods", list(METHODS)), "training.methods")
    overrides = _object(t.pop("overrides", {}), "training.overrides")
    for where, names in (("training.methods", methods), ("training.overrides", overrides)):
        for m in names:
            if m not in METHODS:
                raise UsageError(f"unknown method '{m}' in {where}; "
                                 f"valid methods: {', '.join(METHODS)}")
    if not methods or len(set(methods)) != len(methods):
        raise UsageError(f"training.methods must be nonempty and distinct, "
                         f"got {list(methods)}")
    hp = _build(Hyperparams, t, "training")
    for m, ov in overrides.items():
        where = f"training.overrides.{m}"
        for key in _BASE_ONLY:
            if key in _object(ov, where):
                raise UsageError(f"{where}.{key} cannot be set: every method is fine-tuned "
                                 f"with the base block's training.{key}")
        _build(Hyperparams, {**t, **ov}, where)
    return TrainingConfig(hp, methods, {m: dict(ov) for m, ov in overrides.items()})


def config_from_dict(raw: dict) -> RunConfig:
    raw = dict(_object(raw, "the config"))
    _check_keys(RunConfig, raw, "the config")
    training = _training(dict(_object(raw.pop("training", {}), "training")))
    hints = _hints(RunConfig)
    cfg = RunConfig(**{k: _value(hints[k], v, k) for k, v in raw.items()},
                    training=training)
    if cfg.master_seed < 0:   # numpy's SeedSequence takes no negative seed
        raise UsageError(f"master_seed must be nonnegative, got {cfg.master_seed}")
    # a source is fed as its tokens + EOS, a target as BOS + its tokens
    if cfg.model.max_len < cfg.dataset.len_max + 1:
        raise UsageError(f"model.max_len {cfg.model.max_len} is below dataset.len_max + 1 "
                         f"({cfg.dataset.len_max + 1}), the longest sequence the model reads")
    cu = cfg.curriculum
    if cu.denoise and cu.scorer_steps > 0 and cfg.dataset.trusted_count == 0:
        raise UsageError("curriculum.denoise adapts its scorer on dataset.trusted_count "
                         "trusted pairs per seen domain, which is 0")
    return cfg
