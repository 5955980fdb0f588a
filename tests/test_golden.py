"""Golden digests: SHA-256 of fixed short runs, pinned to exact bytes.

The digests cover the trained networks of three short trainings (absolute
and relative ``pso``, absolute ``rlpso``), every algorithm's curve CSV, the
learner's parameter trajectory step by step, and every function's instances
and values.  A change that is meant to be a pure speed-up or refactor must
leave all of them unchanged; a change that moves any of them by one ulp
shows here.  ``golden_digests`` is also run in fresh interpreters under
different BLAS thread counts, which must agree, and under a pinned CPU class
that every x86-64 machine offers, which must give ``GOLDEN_PINNED``.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import rlapso
from rlapso import ddpg, harness
from rlapso.benchmarks import FUNCTIONS, make_objective
from rlapso.ddpg import ActorPolicy, DdpgAgent, action_width

GOLDEN = {
    "training": "a79d63cdbb3854587ef83c83731cc61705f9d6a67dd43df87e26259578ac56f5",
    "training_relative": "7b3229ea993cc0014a6278fcba768709a45cd40237c6bff231ab802a4f724f41",
    "training_rlpso": "ca208be5252b0a2fc839b0e5c38fa16ead9b81b75d6b23401ba52b35a3c2ec14",
    "curves": "2c5635fbded2d7f127dbe6fac246dc2e6745125697c0c0ba0b616973bb67260a",
    "learner_steps": "10cacafc4941ab7d801d2fed16ff9027a052221f2687beb048da8c4513b74bee",
    "objectives": "a6f7a65fcb4cd32578a78ab2e55d7d6876141b2be774c09fd68ffbeea5a6fe13",
}

# OpenBLAS's Haswell kernels and numpy without its AVX512 ones: both pins are
# needed, since ``objectives`` differs between the first alone and the two
PINNED_CPU_CLASS = {"OPENBLAS_CORETYPE": "Haswell",
                    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
GOLDEN_PINNED = {
    "training": "549f333932da04825bd6b2e3e0a8b12fe0d3b982068291bed72aa6e85a8d2366",
    "training_relative": "8873a2b0794e464b2b98178340c9f97c441c1d6a658b4524a2c1604675473a4a",
    "training_rlpso": "58d1f678ac95f8ff9c7757ebb117780293032f24b38c511b254e20c398a9e8e4",
    "curves": "2c5635fbded2d7f127dbe6fac246dc2e6745125697c0c0ba0b616973bb67260a",
    "learner_steps": "e7cb963656f71e4b4689fab9a7c0294f718eebc68e7e5efbf1e76f28f4cf0f0c",
    "objectives": "64d3baf8e7735e02299c6e21b0e00a12e238c4fb74bf59f20c5f984629ed379e",
}


def _param_bytes(net) -> bytes:
    """Every weight matrix row-major, then every bias: the weight-file payload."""
    parts = [np.ravel(w) for w in net.weights] + [np.ravel(b) for b in net.biases]
    return np.concatenate(parts).astype("<f8").tobytes()


def _networks(agent):
    return (agent.actor, agent.critic, agent.actor_target, agent.critic_target)


def _training_digest(mode="absolute", variant="pso", pool=("sphere", "rastrigin"),
                     agent_seed=5, seed=9) -> str:
    """Networks and episode log after a short training run whose replay ring
    wraps (capacity 100, ~40 transitions per episode) and whose validation
    picks a snapshot every second episode."""
    agent = DdpgAgent(action_width(variant), seed=agent_seed, buffer_capacity=100, warmup=64)
    log = ddpg.train(agent, list(pool), 8, mode, variant, 4,
                     n_particles=10, budget=400, seed=seed, validate_every=2)
    h = hashlib.sha256()
    for net in _networks(agent):
        h.update(_param_bytes(net))
    for rec in log:
        h.update(f"{rec.episode},{rec.function},{rec.fn_seed},"
                 f"{float(rec.final_gbest).hex()},{float(rec.mean_critic_loss).hex()}\n"
                 .encode())
    return h.hexdigest()


def _curves_digest(out_dir: Path) -> str:
    """Curve-CSV bytes of one short run of every algorithm."""
    def model(variant, mode, seed):
        actor = DdpgAgent(action_width(variant), seed=seed).actor
        meta = {"mode": mode, "variant": variant, "subgroups": "5",
                "state_width": "15", "action_width": str(action_width(variant))}
        return ActorPolicy(actor), meta

    models = {
        "rlam-absolute": model("pso", "absolute", 31),
        "rlam-relative": model("pso", "relative", 32),
        "rlpso": model("rlpso", "absolute", 33),
    }
    h = hashlib.sha256()
    for algorithm in harness.ALGORITHMS:
        rec = harness.run_single(algorithm, "rastrigin", 4, 1234, 600, 7, 10,
                                 models.get(algorithm))
        path = out_dir / f"{algorithm}.csv"
        harness.write_curve_csv(rec, path)
        h.update(path.read_bytes())
    return h.hexdigest()


def _learner_steps_digest() -> str:
    """All four networks' parameters and the step's return values after each
    of 60 learner steps, so a reordered Adam or soft update shows at once."""
    agent = DdpgAgent(action_width("pso"), seed=41)
    rng = np.random.default_rng(42)
    for _ in range(200):
        agent.buffer.push(rng.uniform(-1, 1, 15), rng.uniform(-1, 1, 20),
                          float(rng.choice([-1.0, 1.0])), rng.uniform(-1, 1, 15))
    h = hashlib.sha256()
    for _ in range(60):
        loss, objective = agent.train_step()
        h.update(float(loss).hex().encode() + float(objective).hex().encode())
        for net in _networks(agent):
            h.update(_param_bytes(net))
    return h.hexdigest()


def _objectives_digest() -> str:
    """Every function's instance arrays at 2, 10 and 30-D for seeds 0-2, the
    composition's further parts included, and ``float.hex`` of its value at
    the shift and at 20 seeded points in the box."""
    rng = np.random.default_rng(43)
    h = hashlib.sha256()
    for function_id in FUNCTIONS:
        for dim in (2, 10, 30):
            for seed in range(3):
                obj = make_objective(function_id, dim, seed)
                for arr in (obj.shift, obj.rotation, *obj.extra_shifts, *obj.extra_rotations):
                    h.update(arr.astype("<f8").tobytes())
                for x in (obj.shift, *rng.uniform(obj.lower, obj.upper, (20, dim))):
                    h.update(float(obj.evaluate(x)).hex().encode())
    return h.hexdigest()


def golden_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        curves = _curves_digest(Path(tmp))
    return {
        "training": _training_digest(),
        "training_relative": _training_digest("relative", agent_seed=6, seed=10),
        "training_rlpso": _training_digest("absolute", "rlpso", ("rastrigin", "griewank"),
                                           agent_seed=7, seed=11),
        "curves": curves,
        "learner_steps": _learner_steps_digest(),
        "objectives": _objectives_digest(),
    }


def test_digests_match_golden_values():
    assert golden_digests() == GOLDEN


def _blas_threads(count: int) -> dict:
    return {var: str(count) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")}


def _digests_in_subprocess(variables: dict) -> dict:
    """``golden_digests()`` in a fresh interpreter whose environment is this
    one's with ``variables`` set."""
    env = dict(os.environ, **variables)
    src = str(Path(rlapso.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join([src, tests])
    code = "import json, test_golden; print(json.dumps(test_golden.golden_digests()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_digests_independent_of_blas_thread_count():
    one = _digests_in_subprocess(_blas_threads(1))
    two = _digests_in_subprocess(_blas_threads(2))
    assert one == two
    assert one == GOLDEN


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the pinned CPU class is an x86-64 one")
def test_digests_match_pinned_cpu_class():
    assert _digests_in_subprocess({**PINNED_CPU_CLASS, **_blas_threads(1)}) == GOLDEN_PINNED
