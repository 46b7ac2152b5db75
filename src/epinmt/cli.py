"""Command-line entry point.

Subcommands: gen-data, score, train, finetune, eval, experiment.
Exit codes: 0 success, 1 usage error, 2 data/dependency error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import corpus as C
from . import model as M
from . import pipeline as P
from . import tensor as T
from . import trainers as TR
from . import evaluate as E
from .config import RunConfig, UsageError, load_config, METHODS

log = logging.getLogger("epinmt")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _setup_logging() -> None:
    level = os.environ.get("EPI_LOG_LEVEL", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.out:
        cfg.output_dir = args.out
    if args.seed is not None:
        cfg.master_seed = args.seed
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    _, _, out = P.gen_data(cfg, cfg.master_seed)
    print(out)
    return EXIT_OK


def cmd_score(args) -> int:
    cfg = _load(args)
    plan, _, _ = P.score(cfg, cfg.master_seed)
    print(json.dumps({"filtered_count": plan.filtered_count,
                      "shard_sizes": [len(s) for s in plan.shards]}))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load(args)
    if args.method not in METHODS:
        raise UsageError(
            f"unknown method '{args.method}'; valid methods: {', '.join(METHODS)}")
    path = P.train(cfg, args.method, cfg.master_seed, build_deps=args.build_deps)
    print(path)
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load(args)
    seed = cfg.master_seed
    ckpt = os.path.join(P.run_dir(cfg, seed), "train", f"{args.method}.model.json")
    if not os.path.exists(ckpt):
        raise P.DependencyError(f"missing checkpoint {ckpt}; run 'train' first")
    vocab, dataset, _ = P.gen_data(cfg, seed)
    model = M.load_model(ckpt)
    hp = replace(cfg.training.hp, seed=seed)
    out = P._ensure(os.path.join(P.run_dir(cfg, seed), "train"))
    for d in dataset.seen_ids + dataset.unseen_ids:
        adapted = TR.finetune(model, dataset.splits[d].finetune, hp)
        M.save_model(adapted, os.path.join(out, f"{args.method}.ft_domain{d}.model.json"))
    print(out)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load(args)
    seed = cfg.master_seed
    vocab, dataset, _ = P.gen_data(cfg, seed)
    models = {}
    for m in cfg.training.methods:
        ckpt = os.path.join(P.run_dir(cfg, seed), "train", f"{m}.model.json")
        if not os.path.exists(ckpt):
            raise P.DependencyError(f"missing checkpoint {ckpt}; run 'train' first")
        models[m] = M.load_model(ckpt)
    report = E.run_protocol({seed: models}, dataset, cfg.training.hp,
                            cfg.eval.beam_width, cfg.eval.max_steps)
    out = P._ensure(os.path.join(P.run_dir(cfg, seed), "eval"))
    E.report_bundle_json(os.path.join(out, "report.json"), report,
                         meta={"config_hash": cfg.config_hash(), "seeds": [seed]})
    E.report_csv(os.path.join(out, "report.csv"), report)
    print(out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _load(args)
    result = P.experiment(cfg)
    print(result["report_dir"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epinmt")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_method in (
            ("gen-data", cmd_gen_data, False),
            ("score", cmd_score, False),
            ("train", cmd_train, True),
            ("finetune", cmd_finetune, True),
            ("eval", cmd_eval, False),
            ("experiment", cmd_experiment, False)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--build-deps", action="store_true")
        if needs_method:
            p.add_argument("--method", type=str, required=True)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (P.DependencyError, C.ConfigError, C.BudgetError, C.ParseError,
            FileNotFoundError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (T.ContractError, T.DimensionError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
