"""Command-line interface: train / run / compare.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ddpg, harness
from .benchmarks import FUNCTIONS
from .ddpg import DdpgAgent, action_width
from .harness import ALGORITHMS, MODEL_ALGORITHMS


def _seed(text: str) -> int:
    """A seed value: numpy generators take only non-negative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rlapso", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train",
                           help="train an adaptation agent and save the actor model")
    train.add_argument("--algo", choices=tuple(MODEL_ALGORITHMS), default="rlam-absolute",
                       help="the model-driven algorithm the model is for")
    train.add_argument("--functions", default=",".join(ddpg.DEFAULT_POOL),
                       help="comma-separated training pool")
    train.add_argument("--dim", type=int, default=10)
    train.add_argument("--episodes", type=int, default=300)
    train.add_argument("--budget", type=int, default=10_000)
    train.add_argument("--particles", type=int, default=40)
    train.add_argument("--seed", type=_seed, default=0)
    train.add_argument("--out", required=True, help="model output path")
    train.add_argument("--validate-every", type=int, default=25,
                       help="greedy-validation cadence for snapshot selection (0 disables)")
    train.add_argument("--log-every", type=int, default=25)

    run = sub.add_parser("run",
                         help="run one algorithm once and write its convergence curve")
    run.add_argument("--function", required=True, choices=sorted(FUNCTIONS))
    run.add_argument("--dim", type=int, default=10)
    run.add_argument("--fn-seed", type=_seed, default=1234)
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--model", default=None, help="trained model (rlam-*/rlpso only)")
    run.add_argument("--budget", type=int, default=10_000)
    run.add_argument("--particles", type=int, default=40)
    run.add_argument("--seed", type=_seed, default=1)
    run.add_argument("--out", required=True, help="curve CSV output path")

    compare = sub.add_parser("compare",
                             help="run a full comparison experiment from a config file")
    compare.add_argument("--config", required=True)

    return parser


def _cmd_train(args) -> int:
    variant, mode = MODEL_ALGORITHMS[args.algo]
    pool = harness.parse_list(args.functions)
    agent = DdpgAgent(action_width(variant), args.seed)
    log = ddpg.train(agent, pool, args.episodes, mode, variant, args.dim,
                     n_particles=args.particles, budget=args.budget, seed=args.seed,
                     validate_every=args.validate_every, log_every=args.log_every)
    ddpg.save_model(agent.actor, args.out, mode=mode, variant=variant,
                    pool=pool, episodes=args.episodes, seed=args.seed)
    finals = [rec.final_gbest for rec in log[-20:]]
    print(f"trained {args.episodes} episodes; last-20 median final gbest "
          f"{float(np.median(finals)):.6g}; model written to {args.out}")
    return 0


def _cmd_run(args) -> int:
    record = harness.run_single(args.algo, args.function, args.dim, args.fn_seed,
                                args.budget, args.seed, args.particles, args.model)
    harness.write_curve_csv(record, args.out)
    print(f"{args.function} / {args.algo}: final gbest {record.final_fit!r} -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    config = harness.load_config(args.config)
    _, summary = harness.run_experiment(config, quiet=False)
    print(f"wrote {Path(config.out_dir) / 'summary.csv'}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help, 2 after a usage error
        return 1 if exc.code else 0
    try:
        if args.command in ("train", "run"):
            out = Path(args.out)
            if not out.parent.is_dir():
                raise FileNotFoundError(f"output directory not found: {out.parent}")
            if out.is_dir():
                raise IsADirectoryError(f"--out is a directory, not a file path: {out}")
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
