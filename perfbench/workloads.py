"""The benchmark's workloads: inputs from a seed, the timed phase, and the
checks on every output.

Each workload is a closed loop: one caller, each call waiting for the one
before.  ``size(seconds)`` turns the time budget into a fixed amount of work
using nominal unit costs measured on a 2-core x86 machine, so the work, the
outputs and their digest depend only on the seed and the budget, and a faster
program shows as a shorter ``wall_s``.

Why these three:

* ``train`` runs ``ddpg.train``; the DDPG learner (replay sampling, batch
  forward/backward, Adam, soft updates) does most of the work, and it does
  none in the other two.
* ``compare`` runs ``harness.run_experiment``: many cheap independent 10-D
  runs, where the per-particle Python overhead of the swarm step dominates and
  the actor only infers on single vectors.  Curve-CSV writing and the
  Wilcoxon summary run here and nowhere else.
* ``solo-30d`` runs ``harness.run_single`` one run at a time at 30-D on the
  two most expensive objectives, so evaluation is the largest share; no
  learner runs and nothing can be batched.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rlapso import ddpg, harness
from rlapso.benchmarks import FUNCTIONS
from rlapso.ddpg import ActorPolicy, DdpgAgent, action_width

from tracer import Patches

BUDGET = 10_000
PARTICLES = 40


@dataclass
class Outcome:
    """What one timed phase produced, after its outputs were checked."""

    wall_s: float
    unit_s: list       # wall time of each unit, in run order
    unit_kind: list    # what each unit ran; units of one kind cost the same
    unit_ok: list      # whether each unit's output passed its checks
    evals: int         # objective evaluations, counted from the records
    train_steps: int   # learner steps, derived from the agent's replay buffer
    digest: str        # sha256 of the outputs, see ``curve_csv_bytes``
    checks: dict       # workload-level checks, name -> passed
    info: dict         # facts for the report


def curve_csv_bytes(record) -> bytes:
    """The bytes ``harness.write_curve_csv`` writes for ``record``."""
    lines = ["eval_count,gbest\n"]
    lines += [f"{count},{float(fit)!r}\n" for count, fit in record.curve]
    return "".join(lines).encode()


def run_ok(record, budget: int = BUDGET) -> bool:
    """Curve non-increasing, full budget spent, final value finite, not below
    the optimum, and equal to the curve's last entry."""
    fits = [fit for _, fit in record.curve]
    return (
        all(b <= a for a, b in zip(fits, fits[1:]))
        and record.curve[-1][0] == budget
        and math.isfinite(record.final_fit)
        and record.final_fit >= FUNCTIONS[record.function].bias
        and record.final_fit == fits[-1]
    )


def hook(patches: Patches, module_name: str, attr: str, make_wrapper) -> None:
    if not patches.wrap(module_name, attr, make_wrapper):
        raise RuntimeError(f"cannot time units: {module_name}.{attr} is gone")


def replaced_count(scores) -> int:
    """Validations whose score beat every earlier one (the snapshot kept)."""
    best, kept = math.inf, 0
    for score in scores:
        if score < best:
            best, kept = score, kept + 1
    return kept


def episode_kind(record) -> str:
    """Episodes cost the same when they train on the same function; the
    warm-up episodes, which fill the replay buffer and never train, cost far
    less."""
    return record.function if math.isfinite(record.mean_critic_loss) else "warmup"


class Train:
    """``ddpg.train``: pso/absolute, 10-D, the default pool, validation on."""

    name = "train"
    EPISODE_S = 2.15  # one episode plus its share of the two validations

    @staticmethod
    def size(seconds: float) -> dict:
        # the 500-transition warm-up covers the first two episodes
        return {"episodes": max(3, round(seconds / Train.EPISODE_S))}

    @staticmethod
    def setup(seed: int, size: dict, workdir: Path) -> dict:
        return {"agent": DdpgAgent(action_width("pso"), seed), "seed": seed,
                "workdir": workdir, **size}

    @staticmethod
    def run(ctx: dict) -> Outcome:
        agent, episodes = ctx["agent"], ctx["episodes"]
        events = []        # ("episode" | "validated", perf_counter) in call order
        scores = []
        validation_runs = []

        def record_episode(original):
            def hooked(*args, **kwargs):
                rec = original(*args, **kwargs)
                events.append(("episode", time.perf_counter()))
                return rec
            return hooked

        def record_validation(original):
            def hooked(*args, **kwargs):
                score = original(*args, **kwargs)
                events.append(("validated", time.perf_counter()))
                scores.append(score)
                return score
            return hooked

        def record_run(original):
            def hooked(*args, **kwargs):
                rec = original(*args, **kwargs)
                validation_runs.append(rec)
                return rec
            return hooked

        with Patches() as patches:
            hook(patches, "rlapso.ddpg", "EpisodeRecord", record_episode)
            hook(patches, "rlapso.ddpg", "_validation_score", record_validation)
            hook(patches, "rlapso.ddpg", "adapted_run", record_run)
            t0 = time.perf_counter()
            log = ddpg.train(agent, ddpg.DEFAULT_POOL, episodes, "absolute", "pso", 10,
                             n_particles=PARTICLES, budget=BUDGET, seed=ctx["seed"],
                             validate_every=episodes, log_every=0)
            wall = time.perf_counter() - t0

        # an episode runs from the previous episode or validation to its record
        unit_s, start = [], t0
        for kind, stamp in events:
            if kind == "episode":
                unit_s.append(stamp - start)
            start = stamp
        unit_ok = [math.isfinite(r.final_gbest) and r.final_gbest >= FUNCTIONS[r.function].bias
                   for r in log]

        model = ctx["workdir"] / "actor.bin"
        ddpg.save_model(agent.actor, model, mode="absolute", variant="pso",
                        pool=ddpg.DEFAULT_POOL, episodes=episodes, seed=ctx["seed"])
        digest = hashlib.sha256()
        for rec in validation_runs:
            digest.update(curve_csv_bytes(rec))
        for r in log:
            digest.update(f"{r.episode},{r.function},{r.fn_seed},{r.final_gbest!r},"
                          f"{r.mean_critic_loss!r}\n".encode())
        digest.update(model.read_bytes())

        threshold = max(agent.warmup, agent.batch_size)
        params = agent.actor.weights + agent.actor.biases
        checks = {
            "one_record_per_episode": [r.episode for r in log] == list(range(episodes)),
            "actor_weights_finite": all(bool(np.isfinite(p).all()) for p in params),
            "validation_runs_ok": all(run_ok(rec) for rec in validation_runs),
            "replay_below_capacity": len(agent.buffer) < agent.buffer.capacity,
        }
        return Outcome(
            wall_s=wall, unit_s=unit_s, unit_kind=[episode_kind(r) for r in log],
            unit_ok=unit_ok,
            evals=len(log) * BUDGET + sum(rec.curve[-1][0] for rec in validation_runs),
            train_steps=max(0, len(agent.buffer) - threshold + 1),
            digest=digest.hexdigest(), checks=checks,
            info={"episodes": episodes, "validations": len(scores),
                  "snapshots_kept": replaced_count(scores), "validation_scores": scores,
                  "transitions": len(agent.buffer)},
        )


class Compare:
    """``harness.run_experiment`` over sphere, rastrigin and griewank at 10-D
    with pso, clpso and rlam-absolute driven by an untrained seeded actor."""

    name = "compare"
    FUNCTIONS = ("sphere", "rastrigin", "griewank")
    ALGORITHMS = ("pso", "clpso", "rlam-absolute")
    ROUND_S = 3.7  # one run of each (function, algorithm) pair

    @staticmethod
    def size(seconds: float) -> dict:
        # five pairs is the least for which the per-function Wilcoxon test runs
        return {"runs": max(5, round(seconds / Compare.ROUND_S))}

    @staticmethod
    def setup(seed: int, size: dict, workdir: Path) -> dict:
        model = workdir / "actor.bin"
        actor = DdpgAgent(action_width("pso"), seed).actor
        ddpg.save_model(actor, model, mode="absolute", variant="pso",
                        pool=ddpg.DEFAULT_POOL, episodes=0, seed=seed)
        config_path = workdir / "compare.cfg"
        config_path.write_text(
            f"functions = {', '.join(Compare.FUNCTIONS)}\n"
            f"algorithms = {', '.join(Compare.ALGORITHMS)}\n"
            f"dim = 10\nruns = {size['runs']}\nbudget = {BUDGET}\nseed = {seed}\n"
            f"particles = {PARTICLES}\nout_dir = {workdir / 'results'}\nmodel = {model}\n",
            encoding="utf-8",
        )
        return {"config": harness.load_config(config_path), **size}

    @staticmethod
    def run(ctx: dict) -> Outcome:
        config = ctx["config"]
        unit_s = []

        def time_run(original):
            def hooked(*args, **kwargs):
                t = time.perf_counter()
                rec = original(*args, **kwargs)
                unit_s.append(time.perf_counter() - t)
                return rec
            return hooked

        with Patches() as patches:
            hook(patches, "rlapso.harness", "run_single", time_run)
            t0 = time.perf_counter()
            records, summary = harness.run_experiment(config)
            wall = time.perf_counter() - t0

        out = Path(config.out_dir)
        paths = [out / harness.curve_filename(fn, alg, k)
                 for fn in config.functions for alg in config.algorithms
                 for k in range(config.runs)]
        digest = hashlib.sha256()
        unit_ok = []
        for rec, path in zip(records, paths):
            digest.update(path.read_bytes())
            unit_ok.append(run_ok(rec) and harness.read_curve_csv(path) == rec.curve)
        pso_sphere = [rec.final_fit for rec in records
                      if rec.function == "sphere" and rec.adapter == "none"]
        error = statistics.median(pso_sphere) - FUNCTIONS["sphere"].bias
        summary_lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        n_fn, n_alg = len(config.functions), len(config.algorithms)
        checks = {
            "one_record_per_run": len(records) == len(paths),
            "criterion5_pso_sphere_median_within_1": error <= 1.0,
            "summary_rows": len(summary_lines) == 1 + n_fn * n_alg + n_alg - 1
            and len(summary.rows) == n_fn * n_alg + n_alg - 1,
        }
        return Outcome(
            wall_s=wall, unit_s=unit_s, unit_ok=unit_ok,
            unit_kind=[f"{rec.function}/{rec.adapter}" for rec in records],
            evals=sum(rec.curve[-1][0] for rec in records), train_steps=0,
            digest=digest.hexdigest(), checks=checks,
            info={"runs_per_pair": config.runs, "pso_sphere_median_error": error},
        )


class Solo30d:
    """Sequential ``harness.run_single`` at 30-D, as ``rlapso run`` does."""

    name = "solo-30d"
    FUNCTIONS = ("composition", "weierstrass")
    ALGORITHMS = ("pso", "clpso", "rlpso")
    ROUND_S = 5.7  # one run of each (function, algorithm) pair

    @staticmethod
    def size(seconds: float) -> dict:
        return {"rounds": max(1, round(seconds / Solo30d.ROUND_S))}

    @staticmethod
    def setup(seed: int, size: dict, workdir: Path) -> dict:
        policy = (ActorPolicy(DdpgAgent(action_width("rlpso"), seed).actor), {})
        rng = np.random.default_rng(seed)
        plan = []
        for _ in range(size["rounds"]):
            for fn in Solo30d.FUNCTIONS:
                fn_seed, run_seed = (int(s) for s in rng.integers(2**31, size=2))
                plan += [(alg, fn, fn_seed, run_seed) for alg in Solo30d.ALGORITHMS]
        return {"policy": policy, "plan": plan, **size}

    @staticmethod
    def run(ctx: dict) -> Outcome:
        records, unit_s = [], []
        t0 = time.perf_counter()
        for alg, fn, fn_seed, run_seed in ctx["plan"]:
            t = time.perf_counter()
            model = ctx["policy"] if alg == "rlpso" else None
            records.append(harness.run_single(alg, fn, 30, fn_seed, BUDGET, run_seed,
                                              PARTICLES, model))
            unit_s.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        digest = hashlib.sha256()
        for rec in records:
            digest.update(curve_csv_bytes(rec))
        return Outcome(
            wall_s=wall, unit_s=unit_s, unit_ok=[run_ok(rec) for rec in records],
            unit_kind=[f"{fn}/{alg}" for alg, fn, _, _ in ctx["plan"]],
            evals=sum(rec.curve[-1][0] for rec in records), train_steps=0,
            digest=digest.hexdigest(), checks={}, info={"rounds": ctx["rounds"]},
        )


WORKLOADS = {w.name: w for w in (Train, Compare, Solo30d)}
