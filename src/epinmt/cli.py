"""Command-line entry point.

Subcommands: gen-data, score, train, finetune, eval, experiment.
Exit codes: 0 success, 1 `UsageError`, 2 `DataError` or an `OSError`, 3
`InternalError` (an invariant violated, or a pool worker died), 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import pipeline as P
from .config import RunConfig, load_config
from .errors import DataError, InternalError, UsageError

EXIT_OK = 0
EXIT_USAGE = UsageError.exit_code
EXIT_DATA = DataError.exit_code
EXIT_INTERNAL = InternalError.exit_code
EXIT_INTERRUPTED = 130


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
    if getattr(args, "seed", None) is not None:   # `experiment` takes no --seed
        if args.seed < 0:
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        cfg.master_seed = args.seed
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load(args)
    print(P.gen_data(cfg, cfg.master_seed)[2])
    return EXIT_OK


def cmd_score(args) -> int:
    cfg = _load(args)
    _, plan = P.planned_base(cfg, cfg.master_seed)
    print(json.dumps({"filtered_count": plan.filtered_count,
                      "shard_sizes": [len(s) for s in plan.shards]}))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load(args)
    print(P.train(cfg, args.method, cfg.master_seed, build_deps=args.build_deps))
    return EXIT_OK


def cmd_finetune(args) -> int:
    cfg = _load(args)
    print(P.finetune(cfg, args.method, cfg.master_seed))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load(args)
    print(P.evaluate(cfg, cfg.master_seed))
    return EXIT_OK


def cmd_experiment(args) -> int:
    print(P.experiment(_load(args)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="epinmt")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("gen-data", cmd_gen_data), ("score", cmd_score),
                     ("train", cmd_train), ("finetune", cmd_finetune),
                     ("eval", cmd_eval), ("experiment", cmd_experiment)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        if name != "experiment":
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if name in ("train", "finetune"):
            p.add_argument("--method", type=str, required=True)
        if name == "train":
            p.add_argument("--build-deps", action="store_true")
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
    except (UsageError, DataError, InternalError) as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:   # a file that cannot be read or written
        print(f"{DataError.prefix}: {e}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:   # caught here, after every pool has shut down
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
