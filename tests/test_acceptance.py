"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criteria 6 and 7 train agents from scratch (several minutes each); everything
else runs in seconds.  Run with ``pytest tests/test_acceptance.py -v -s`` to
watch the per-criterion lines.

Criterion 6's significance clause is a known red: the magnitude-blind
improvement reward trains toward policies that never beat the constant
baseline per-seed at this scale (every training configuration tried degrades
the greedy policy relative to its own initialization), so the pooled
Wilcoxon cannot reach p < 0.05 in the adapted side's favor even though the
median-win clause holds.  The criterion is asserted as stated anyway.
"""

import contextlib
import sys
import time
import zlib

import numpy as np
import pytest

from rlapso import ddpg
from rlapso.benchmarks import FUNCTIONS, make_objective
from rlapso.cli import main as cli_main
from rlapso.ddpg import (
    DdpgAgent,
    RawState,
    action_width,
    adapted_run,
    coefficient_sets,
    encode,
    reward,
)
from rlapso.harness import normalized_pairs, run_single, wilcoxon_signed_rank
from rlapso.neural import (
    GradientTape,
    Mlp,
    WeightsFormatError,
    WeightsTruncatedError,
    load_weights,
    save_weights,
    soft_update,
)
from rlapso.swarm import learning_probability

PSO_TRAIN_SEED = 0
RLPSO_TRAIN_SEED = 1
EVAL_SEEDS = 20
BUDGET = 10_000
DIM = 10


@contextlib.contextmanager
def criterion(number, label):
    import conftest

    start = time.time()
    try:
        yield
    except BaseException:
        verdict = f"CRITERION {number} ({label}): FAIL [{time.time() - start:.1f}s]"
        print(verdict, file=sys.stderr)
        conftest.ACCEPTANCE_VERDICTS.append(verdict)
        raise
    verdict = f"CRITERION {number} ({label}): PASS [{time.time() - start:.1f}s]"
    print(verdict)
    conftest.ACCEPTANCE_VERDICTS.append(verdict)


def fn_instance_seed(fn):
    # process-stable (str.__hash__ is randomized per interpreter run)
    return 1000 + zlib.crc32(fn.encode()) % 1000


@pytest.fixture(scope="module")
def trained_pso_agent():
    agent = DdpgAgent(action_width("pso"), seed=PSO_TRAIN_SEED)
    t0 = time.time()
    ddpg.train(agent, ddpg.DEFAULT_POOL, 300, "absolute", "pso", DIM,
               budget=BUDGET, seed=PSO_TRAIN_SEED)
    agent.train_minutes = (time.time() - t0) / 60
    return agent


@pytest.fixture(scope="module")
def trained_rlpso_agent():
    # trained directly on the target function family: fresh rastrigin
    # instances every episode (the shifts differ from the evaluation one)
    agent = DdpgAgent(action_width("rlpso"), seed=RLPSO_TRAIN_SEED)
    t0 = time.time()
    ddpg.train(agent, ["rastrigin"], 150, "absolute", "rlpso", DIM,
               budget=BUDGET, seed=RLPSO_TRAIN_SEED)
    agent.train_minutes = (time.time() - t0) / 60
    return agent


def test_criterion_1_gradient_suite(rng):
    """Analytic gradients match central finite differences on actor- and
    critic-shaped networks, 100 probes each, relative error < 1e-5."""
    with criterion(1, "gradient suite"):
        start = time.time()
        shapes = [
            ([15, 64, 64, 20], "tanh"),
            ([15 + 20, 128, 128, 64, 64, 1], "identity"),
        ]
        for dims, act in shapes:
            net = Mlp.init(dims, act, rng)
            x = rng.uniform(-1.0, 1.0, dims[0])
            out_grad = rng.uniform(-1.0, 1.0, dims[-1])
            tape = GradientTape()
            net.forward(x, tape)
            grads, _ = net.backward(tape, out_grad)
            eps = 1e-5
            for _ in range(100):
                layer = int(rng.integers(net.n_layers))
                param = net.weights[layer] if rng.random() < 0.8 else net.biases[layer]
                analytic = grads.weights[layer] if param.ndim == 2 else grads.biases[layer]
                index = tuple(int(rng.integers(s)) for s in param.shape)
                orig = param[index]
                param[index] = orig + eps
                f_plus = float(out_grad @ net.forward(x))
                param[index] = orig - eps
                f_minus = float(out_grad @ net.forward(x))
                param[index] = orig
                numeric = (f_plus - f_minus) / (2 * eps)
                denom = max(abs(analytic[index]), abs(numeric), 1e-6)
                assert abs(analytic[index] - numeric) / denom < 1e-5
        assert time.time() - start < 10.0


def test_criterion_2_equation_units(rng):
    """Reward branches, target-update tau cases, both action mappings,
    exemplar-probability endpoints, and the zero sine encoding."""
    with criterion(2, "equation unit suite"):
        # reward is exactly +-1
        assert reward(10.0, 9.0) == 1.0
        assert reward(10.0, 10.0) == -1.0
        assert reward(-1400.0, -1400.0) == -1.0

        # target update at tau in {0, 0.5, 1}
        src = Mlp.init([4, 6, 2], "tanh", rng)
        for tau in (0.0, 0.5, 1.0):
            tgt = Mlp.init([4, 6, 2], "tanh", rng)
            before = [w.copy() for w in tgt.weights + tgt.biases]
            soft_update(tgt, src, tau)
            for b, t_arr, s_arr in zip(before, tgt.weights + tgt.biases,
                                       src.weights + src.biases):
                expected = tau * s_arr + (1.0 - tau) * b
                assert np.max(np.abs(t_arr - expected)) <= 1e-12

        # absolute mapping: w range and the c1+c2 budget identity, per subgroup row
        for _ in range(400):
            action = rng.uniform(-1, 1, 20)
            table = coefficient_sets(action, "absolute", "pso")
            for a, (w, c1, c2, _, _) in zip(action.reshape(5, 4), table):
                assert 0.1 - 1e-12 <= w <= 0.9 + 1e-12
                ah = (a + 1.0) / 2.0
                if ah[1] + ah[2] >= 0.1:
                    assert abs((c1 + c2) - 8.0 * ah[3]) < 1e-3

        # relative mapping: zero perturbation is the identity on the constant schedule
        table = coefficient_sets(np.zeros(20), "relative", "pso")
        assert table.tolist() == [[0.729, 1.494, 1.494, 0.0, 0.0]] * 5

        # exemplar learning probability endpoints, exactly
        assert learning_probability(0, 40) == 0.05
        assert learning_probability(39, 40) == 0.5

        # sine encoding of the zero state
        assert np.array_equal(encode(RawState(0.0, 0.0, 0.0)), np.zeros(15))


def test_criterion_3_benchmark_sanity():
    """evaluate(shift) == bias within 1e-9 and orthogonal rotations at
    dims {2, 10, 30}."""
    with criterion(3, "benchmark sanity"):
        for fn in FUNCTIONS:
            for dim in (2, 10, 30):
                obj = make_objective(fn, dim, seed=31_000 + dim * 101 + zlib.crc32(fn.encode()) % 997)
                assert np.abs(obj.rotation.T @ obj.rotation - np.eye(dim)).max() < 1e-9
                if fn != "composition":
                    assert abs(obj.evaluate(obj.shift) - obj.bias) < 1e-9


def test_criterion_4_step_and_wilcoxon_oracles(rng):
    """Step rules replay the scripted hand-simulation oracles bit-exactly;
    Wilcoxon matches exact enumeration for n <= 12."""
    with criterion(4, "oracle equivalence"):
        from test_harness import _oracle_exact_p
        from test_swarm import TestClpsoStep, TestPsoStep

        TestPsoStep().test_matches_hand_simulated_oracle()
        TestClpsoStep().test_matches_hand_simulated_oracle()

        checked = 0
        while checked < 100:
            n = int(rng.integers(5, 13))
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n), 1)
            diffs = x - y
            if np.count_nonzero(diffs) < 5:
                continue
            _, p = wilcoxon_signed_rank(x, y)
            assert p == pytest.approx(
                _oracle_exact_p([d for d in diffs if d != 0.0]), rel=1e-12)
            checked += 1


def test_criterion_5_pso_competence():
    """Constant-coefficient PSO solves the 10-D sphere: median final fitness
    over 20 seeds within 1.0 of the optimum."""
    with criterion(5, "baseline optimizer competence"):
        start = time.time()
        fn_seed = fn_instance_seed("sphere")
        finals = [run_single("pso", "sphere", DIM, fn_seed, BUDGET, s).final_fit
                  for s in range(EVAL_SEEDS)]
        median = float(np.median(finals))
        assert median <= -1400.0 + 1.0
        assert time.time() - start < 30.0


@pytest.mark.slow
def test_criterion_6_rlam_directional_benefit(trained_pso_agent):
    """The paper's central claim at desk scale: greedy adapted PSO beats
    constant-coefficient PSO on >= 2 of 3 functions with pooled Wilcoxon
    p < 0.05 in its favor (20 paired seeds per function)."""
    with criterion(6, "adaptation beats the baseline"):
        start = time.time()
        wins = 0
        pooled_base, pooled_rlam = [], []
        for fn in ("sphere", "rastrigin", "griewank"):
            fn_seed = fn_instance_seed(fn)
            obj = make_objective(fn, DIM, fn_seed)
            base = [run_single("pso", fn, DIM, fn_seed, BUDGET, s).final_fit
                    for s in range(EVAL_SEEDS)]
            rlam = [adapted_run(trained_pso_agent, obj, "pso", "absolute",
                                BUDGET, s).final_fit for s in range(EVAL_SEEDS)]
            if np.median(rlam) < np.median(base):
                wins += 1
            nb, nr = normalized_pairs(base, rlam)
            pooled_base.extend(nb)
            pooled_rlam.extend(nr)
            print(f"  {fn}: pso median {np.median(base):.8g}, "
                  f"adapted median {np.median(rlam):.8g}")
        _, p = wilcoxon_signed_rank(pooled_base, pooled_rlam)
        favor = float(np.mean(np.array(pooled_base) - np.array(pooled_rlam)))
        print(f"  wins={wins}/3 pooled p={p:.4g} mean normalized margin={favor:+.4f} "
              f"(training took {trained_pso_agent.train_minutes:.1f} min)")
        assert wins >= 2
        assert p < 0.05
        assert favor > 0.0  # the significance must point the right way
        assert trained_pso_agent.train_minutes * 60 + (time.time() - start) < 900


@pytest.mark.slow
def test_criterion_7_rlpso_sanity(trained_rlpso_agent):
    """Trained RLPSO beats baseline PSO's median on 10-D rastrigin, and the
    mutation rule passes its forced-threshold unit checks."""
    with criterion(7, "rlpso beats baseline on rastrigin"):
        start = time.time()
        from test_swarm import TestRlpsoStep

        checks = TestRlpsoStep()
        checks.test_zero_gate_never_mutates()
        checks.test_zero_stall_never_mutates()
        checks.test_saturated_gate_always_mutates()

        fn_seed = fn_instance_seed("rastrigin")
        obj = make_objective("rastrigin", DIM, fn_seed)
        base = [run_single("pso", "rastrigin", DIM, fn_seed, BUDGET, s).final_fit
                for s in range(EVAL_SEEDS)]
        rl = [adapted_run(trained_rlpso_agent, obj, "rlpso", "absolute",
                          BUDGET, s).final_fit for s in range(EVAL_SEEDS)]
        print(f"  rastrigin: pso median {np.median(base):.8g}, "
              f"rlpso median {np.median(rl):.8g} "
              f"(training took {trained_rlpso_agent.train_minutes:.1f} min)")
        assert float(np.median(rl)) < float(np.median(base))
        assert trained_rlpso_agent.train_minutes * 60 + (time.time() - start) < 900


def test_criterion_8_run_determinism(tmp_path):
    """Identical `run` invocations produce byte-identical CSV files."""
    with criterion(8, "run determinism"):
        for algo in ("pso", "pso-tvac", "clpso"):
            blobs = []
            for name in ("a.csv", "b.csv"):
                out = tmp_path / f"{algo}_{name}"
                code = cli_main(["run", "--function", "rastrigin", "--dim", "10",
                                 "--fn-seed", "77", "--algo", algo,
                                 "--budget", "2000", "--seed", "5",
                                 "--out", str(out)])
                assert code == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]


def test_criterion_9_serialization(tmp_path, rng):
    """Weight files round-trip bit-exactly; corrupted headers are rejected
    with the dedicated error classes."""
    with criterion(9, "weight-file round trip"):
        net = Mlp.init([15, 64, 64, 25], "tanh", rng)
        path = tmp_path / "actor.bin"
        save_weights(net, path)
        loaded = load_weights(path)
        for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
            assert np.array_equal(a, b)
        assert loaded.layer_dims == net.layer_dims

        corrupted = bytearray(path.read_bytes())
        corrupted[:6] = b"XXXXXX"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(WeightsFormatError):
            load_weights(bad)

        data = path.read_bytes()
        short = tmp_path / "short.bin"
        short.write_bytes(data[: len(data) - 64])
        with pytest.raises(WeightsTruncatedError):
            load_weights(short)
