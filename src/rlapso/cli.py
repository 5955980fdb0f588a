"""Command-line interface: train / run / compare / bench.

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ddpg, harness
from .benchmarks import FUNCTIONS, make_objective
from .ddpg import DdpgAgent, action_width
from .harness import ALGORITHMS
from .swarm import Swarm, drive


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
    train.add_argument("--variant", choices=tuple(ddpg.GROUP_WIDTH), default="pso")
    train.add_argument("--mode", choices=("absolute", "relative"), default="absolute")
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

    sub.add_parser("bench", help="quick smoke suite")
    return parser


def _cmd_train(args) -> int:
    pool = harness.parse_list(args.functions)
    agent = DdpgAgent(action_width(args.variant), args.seed)
    log = ddpg.train(agent, pool, args.episodes, args.mode, args.variant, args.dim,
                     n_particles=args.particles, budget=args.budget, seed=args.seed,
                     validate_every=args.validate_every, log_every=args.log_every)
    ddpg.save_model(agent.actor, args.out, mode=args.mode, variant=args.variant,
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


def _cmd_bench() -> int:
    labels, failed = [], []

    def check(label, passed):
        labels.append(label)
        if passed:
            print(f"bench: {label}: ok")
        else:
            print(f"bench: {label}: FAILED", file=sys.stderr)
            failed.append(label)

    passed = True
    for fn in FUNCTIONS:
        obj = make_objective(fn, 2, seed=99)
        if fn != "composition":
            passed &= abs(obj.evaluate(obj.shift) - obj.bias) < 1e-9
        passed &= np.abs(obj.rotation.T @ obj.rotation - np.eye(2)).max() < 1e-9
    check("objectives hit their bias at the shift, rotations orthogonal", passed)

    obj = make_objective("sphere", 2, seed=5)
    passed = True
    rlpso_model = (DdpgAgent(action_width("rlpso"), seed=12), {})
    for algorithm, model in (("pso", None), ("clpso", None), ("rlpso", rlpso_model)):
        variant, controller = harness.controller_for(algorithm, model)
        swarm = Swarm(obj, 10, 400, seed=3, variant=variant)
        curve = drive(swarm, controller).curve
        fits = [fit for _, fit in curve]
        passed &= all(b <= a for a, b in zip(fits, fits[1:]))
        passed &= curve[-1][0] == swarm.eval_count == swarm.eval_budget
        passed &= bool(np.all(swarm.positions >= obj.lower) and np.all(swarm.positions <= obj.upper))
    check("all step variants keep monotone gbest, bounds, and the budget", passed)

    agent = DdpgAgent(action_width("pso"), seed=11)
    rec1 = ddpg.adapted_run(agent, obj, "pso", "absolute", 400, seed=8, n_particles=10)
    rec2 = ddpg.adapted_run(agent, obj, "pso", "absolute", 400, seed=8, n_particles=10)
    check("adapted runs are deterministic", rec1.curve == rec2.curve)

    stat, p = harness.wilcoxon_signed_rank([1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0])
    check("wilcoxon matches the all-positive exact case", stat == 0.0 and abs(p - 0.03125) < 1e-12)

    rng = np.random.default_rng(0)
    rows = np.vstack([ddpg.coefficient_sets(rng.uniform(-1, 1, 20), "absolute", "pso")
                      for _ in range(40)])
    w, c1, c2 = rows[:, 0], rows[:, 1], rows[:, 2]
    check("absolute action mapping stays in range",
          bool(np.all((0.1 - 1e-12 <= w) & (w <= 0.9 + 1e-12) & (c1 >= 0) & (c2 >= 0)
                      & (c1 + c2 <= 8 + 1e-3))))

    if failed:
        print(f"bench: {len(failed)} checks failed", file=sys.stderr)
        return 2
    print(f"bench: {len(labels)} checks passed")
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
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_bench()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
