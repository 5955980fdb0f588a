"""The benchmark's hooks still reach the code they time and count.

``perfbench`` wraps package attributes from outside the package: its tracer
wraps every ``TARGETS`` entry, and its workloads wrap ``ddpg.EpisodeRecord``,
``ddpg._validation_score``, ``ddpg.adapted_run`` and ``harness.run_single``.
A wrapper only sees calls that look the name up where it was patched, so
code that captures a function object at import time (a dispatch table, a
default argument) silently hides its calls from the benchmark.  These tests
fail first when that happens.
"""

import importlib.util
from pathlib import Path

import pytest

from rlapso import ddpg, harness  # loads every module the tracer looks up by name
from rlapso.benchmarks import make_objective
from rlapso.ddpg import DdpgAgent, action_width
from rlapso.swarm import Schedule, Swarm, drive

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

WORKLOAD_HOOKS = (
    ("rlapso.ddpg", "EpisodeRecord"),
    ("rlapso.ddpg", "_validation_score"),
    ("rlapso.ddpg", "adapted_run"),
    ("rlapso.harness", "run_single"),
)


def _passthrough(original):
    return original


@pytest.mark.parametrize("module_name,path",
                         [(m, p) for _, m, p in tracer.TARGETS] + list(WORKLOAD_HOOKS))
def test_hook_target_resolves(module_name, path):
    with tracer.Patches() as patches:
        assert patches.wrap(module_name, path, _passthrough), f"{module_name}.{path}"


def _recording(events, label):
    def make_wrapper(original):
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            events.append(label)
            return result
        return hooked
    return make_wrapper


def test_training_calls_reach_the_workload_hooks():
    """Each episode's steps, then its record, then its validation, which makes
    three hooked adapted runs per pool function; every iteration maps one
    action through the hooked ``coefficient_sets``."""
    pool, episodes = ["sphere", "rastrigin"], 2
    iterations = 3  # budget 40 with 10 particles: 10 for init, then 3 x 10
    events = []
    with tracer.Patches() as patches:
        for module_name, path, label in (
            ("rlapso.swarm", "Swarm.pso_step", "step"),
            ("rlapso.ddpg", "coefficient_sets", "map"),
            ("rlapso.ddpg", "EpisodeRecord", "episode"),
            ("rlapso.ddpg", "adapted_run", "run"),
            ("rlapso.ddpg", "_validation_score", "validated"),
        ):
            assert patches.wrap(module_name, path, _recording(events, label))
        agent = DdpgAgent(action_width("pso"), seed=3, warmup=4, batch_size=4)
        log = ddpg.train(agent, pool, episodes, "absolute", "pso", 2,
                         n_particles=10, budget=40, seed=4, validate_every=1)

    run = ["map", "step"] * iterations + ["run"]
    validation = run * (len(pool) * 3) + ["validated"]
    episode = ["map", "step"] * iterations + ["episode"]
    assert events == validation + (episode + validation) * episodes
    assert [rec.episode for rec in log] == list(range(episodes))


@pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
def test_every_step_reaches_the_tracer_through_step(variant):
    """``Swarm.step`` looks its variant's step up on every call, so a
    wrapper put on the class after import sees each iteration of ``drive``."""
    events = []
    with tracer.Patches() as patches:
        assert patches.wrap("rlapso.swarm", f"Swarm.{variant}_step",
                            _recording(events, "step"))
        swarm = Swarm(make_objective("sphere", 2, 1), 10, 40, 2, variant=variant)
        record = drive(swarm, Schedule("linear_dec_w", "none"))
    assert len(events) == len(record.curve) - 1 == 3


def test_comparison_runs_reach_the_run_single_hook(tmp_path):
    events = []
    config = harness.ExperimentConfig(functions=["sphere"], algorithms=["pso", "clpso"],
                                      dim=2, runs=2, budget=40, particles=10,
                                      out_dir=str(tmp_path))
    with tracer.Patches() as patches:
        assert patches.wrap("rlapso.harness", "run_single", _recording(events, "run"))
        records, _ = harness.run_experiment(config)
    assert events == ["run"] * len(records) == ["run"] * 4
