"""Run configuration: one JSON file drives every command.

Unknown keys are rejected so typos fail fast, and every stochastic component
draws its seed from the master seed through a fixed counter scheme
(SeedSequence([master, component, ...])).
"""

from __future__ import annotations

import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field, asdict, fields, replace

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

    def __post_init__(self):
        if min(self.scorer_steps, self.lm_steps, self.div_steps) < 0:
            raise ValueError("scorer_steps, lm_steps and div_steps must be >= 0")
        if min(self.scorer_lr, self.lm_lr, self.div_lr) < 0:
            raise ValueError("scorer_lr, lm_lr and div_lr must be nonnegative")
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

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise UsageError(
                    f"unknown method '{m}'; valid methods: {', '.join(METHODS)}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise UsageError(f"training.methods must be nonempty and distinct, "
                             f"got {list(self.methods)}")
        for m, ov in self.overrides.items():
            if m not in METHODS:
                raise UsageError(
                    f"override for unknown method '{m}'; "
                    f"valid methods: {', '.join(METHODS)}")
            _check_keys(Hyperparams, ov, f"training.overrides.{m}")
            _check_ints(Hyperparams, ov, f"training.overrides.{m}")
            _check_finite(ov, f"training.overrides.{m}")
            _checked(f"training.overrides.{m}", lambda: self.method_hp(m, 0))

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
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.beam_width < 1 or self.experiment_beam_width < 1:
            raise ValueError("beam_width and experiment_beam_width must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if min((*self.seeds, *self.sigmas, *self.noise_seeds)) < 0:
            raise ValueError("seeds, sigmas and noise_seeds must be nonnegative")


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
        """Every field except `output_dir`, which says where results go, and
        `master_seed`, which the run directory's name carries."""
        payload = asdict(self)
        del payload["output_dir"], payload["master_seed"]
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


def _check_keys(cls, payload: dict, where: str) -> None:
    """Every key of payload is a field of dataclass `cls` that a config may set."""
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise UsageError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    for key in payload:
        if (cls, key) in _DERIVED:
            raise UsageError(f"{where}.{key} cannot be set: {_DERIVED[cls, key]}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints_ok(hint, value) -> bool:
    """Whether `value` holds an integer wherever the type `hint` names int.
    A float or a bool is no count, and int() would quietly truncate it."""
    if hint is int:
        return _is_int(value)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):          # X | None
        return value is None or any(_ints_ok(a, value) for a in args if a is not type(None))
    if typing.get_origin(hint) is tuple and isinstance(value, tuple):
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        return all(_ints_ok(h, v) for h, v in zip(hints, value))
    return True


def _check_ints(cls, payload: dict, where: str) -> None:
    """Each of payload's fields of dataclass `cls` holds integers where its
    annotation names int; otherwise a usage error."""
    hints = typing.get_type_hints(cls)
    for key, value in payload.items():
        hint = hints[key]
        if not _ints_ok(hint, value):
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise UsageError(f"{where}.{key} takes integers only ({name}), "
                             f"got {json.dumps(value)}")


def _finite(value) -> bool:
    """Whether no float in `value`, a tuple's included, is NaN or infinite."""
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _check_finite(payload: dict, where: str) -> None:
    """Each of payload's values is free of NaN and infinities, which JSON
    parsing lets through (`NaN`, `Infinity`, `1e999`) and which pass every
    bound check; otherwise a usage error."""
    for key, value in payload.items():
        if not _finite(value):
            raise UsageError(f"{where}.{key} takes finite numbers only, "
                             f"got {json.dumps(value)}")


def _object(value, where: str) -> dict:
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise UsageError(f"{where} must be a JSON object, got {json.dumps(value)}")
    return value


def _checked(where: str, make):
    """make(); a TypeError or ValueError it raises is a usage error."""
    try:
        return make()
    except (TypeError, ValueError) as e:
        raise UsageError(f"{where}: {e}") from None


def _frozen(value):
    """A JSON list as a tuple, nested lists too."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _build(cls, payload: dict, where: str):
    """cls(**payload); unknown keys and invalid values are usage errors."""
    _check_keys(cls, _object(payload, where), where)
    values = {k: _frozen(v) for k, v in payload.items()}
    _check_ints(cls, values, where)
    _check_finite(values, where)
    return _checked(where, lambda: cls(**values))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except ValueError as e:   # malformed JSON or not UTF-8
            raise UsageError(f"{path} is not a valid JSON file: {e}") from None
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    top_allowed = {"output_dir", "master_seed", "dataset", "model",
                   "curriculum", "training", "eval"}
    unknown = set(_object(raw, "the config")) - top_allowed
    if unknown:
        raise UsageError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    cfg = RunConfig()
    cfg.output_dir = raw.get("output_dir", cfg.output_dir)
    if not isinstance(cfg.output_dir, str):
        raise UsageError(f"output_dir must be a string, got {json.dumps(cfg.output_dir)}")
    cfg.master_seed = raw.get("master_seed", cfg.master_seed)
    # numpy's SeedSequence takes no negative seed; 1.7 or true is no seed at all
    if not _is_int(cfg.master_seed) or cfg.master_seed < 0:
        raise UsageError(
            f"master_seed must be a nonnegative integer, got {json.dumps(cfg.master_seed)}")
    for key, cls in (("dataset", DatasetConfig), ("model", ModelConfig),
                     ("curriculum", CurriculumConfig), ("eval", EvalConfig)):
        if key in raw:
            setattr(cfg, key, _build(cls, raw[key], key))
    if "training" in raw:
        t = dict(_object(raw["training"], "training"))
        methods = _checked("training.methods", lambda: tuple(t.pop("methods", METHODS)))
        overrides = {m: dict(_object(ov, f"training.overrides.{m}")) for m, ov in
                     _object(t.pop("overrides", {}), "training.overrides").items()}
        cfg.training = TrainingConfig(_build(Hyperparams, t, "training"), methods,
                                      overrides)
    # a source is fed as its tokens + EOS, a target as BOS + its tokens
    if cfg.model.max_len < cfg.dataset.len_max + 1:
        raise UsageError(f"model.max_len {cfg.model.max_len} is below dataset.len_max + 1 "
                         f"({cfg.dataset.len_max + 1}), the longest sequence the model reads")
    cu = cfg.curriculum
    if cu.denoise and cu.scorer_steps > 0 and cfg.dataset.trusted_count == 0:
        raise UsageError("curriculum.denoise adapts its scorer on dataset.trusted_count "
                         "trusted pairs per seen domain, which is 0")
    return cfg
