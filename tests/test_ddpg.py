"""State encoding, action mapping, reward, replay, and the training loop."""

import math
import sys

import numpy as np
import pytest

from conftest import flat_objective
from rlapso.benchmarks import FUNCTIONS
from rlapso.ddpg import (
    DdpgAgent,
    PolicyController,
    RawState,
    ReplayBuffer,
    action_width,
    adapted_run,
    coefficient_sets,
    encode,
    key_value_lines,
    load_model,
    observe,
    reward,
    save_model,
    train,
)
from rlapso.neural import soft_update
from rlapso.swarm import Swarm, drive


class TestObserve:
    def test_collapsed_swarm_has_zero_diversity(self):
        swarm = Swarm(flat_objective(3), 6, 1000, seed=1)
        swarm.positions[:] = np.array([1.0, -2.0, 3.0])
        assert observe(swarm).diversity_norm == 0.0

    def test_five_particles_one_dimension_hand_value(self):
        # particles at 0, 0, 1, 2, 2: centroid 1, mean distance 4/5, diagonal 200
        swarm = Swarm(flat_objective(1), 5, 1000, seed=2)
        swarm.positions[:] = np.array([[0.0], [0.0], [1.0], [2.0], [2.0]])
        assert observe(swarm).diversity_norm == 0.8 / 200.0

    def test_iteration_fraction_after_init(self):
        swarm = Swarm(flat_objective(2), 10, 500, seed=3)
        assert observe(swarm).iteration_frac == 10 / 500

    def test_stagnation_zero_after_improving_iteration(self):
        swarm = Swarm(flat_objective(2), 10, 500, seed=4)
        improved = swarm.step([(0.7, 1.5, 1.5, 0.0, 0.0)] * 5)
        assert improved
        assert observe(swarm).stagnation_frac == 0.0

    def test_stagnation_grows_when_frozen(self):
        swarm = Swarm(flat_objective(2), 10, 500, seed=5)
        for _ in range(3):
            swarm.step([(0.0, 0.0, 0.0, 0.0, 0.0)] * 5)  # frozen: never improves
        assert observe(swarm).stagnation_frac == 30 / 500


class TestEncode:
    def test_zero_state_encodes_to_zeros(self):
        assert np.array_equal(encode(RawState(0.0, 0.0, 0.0)), np.zeros(15))

    def test_quarter_block_values(self):
        enc = encode(RawState(0.25, 0.0, 0.0))
        expected = [math.sin(0.25 * 2.0**i) for i in range(5)]
        assert np.allclose(enc[:5], expected, rtol=0, atol=1e-15)
        # independently evaluated transcendentals
        assert enc[:5] == pytest.approx([0.2474, 0.4794, 0.8415, 0.9093, -0.7568], abs=1e-4)
        assert np.array_equal(enc[5:], np.zeros(10))

    def test_block_order_is_iteration_diversity_stagnation(self):
        enc = encode(RawState(0.1, 0.2, 0.3))
        assert enc[0] == math.sin(0.1)
        assert enc[5] == math.sin(0.2)
        assert enc[10] == math.sin(0.3)

    def test_range_bounded_for_random_states(self, rng):
        for _ in range(1000):
            raw = RawState(rng.uniform(0, 1), rng.uniform(0, 5), rng.uniform(0, 1))
            enc = encode(raw)
            assert np.all(enc >= -1.0) and np.all(enc <= 1.0)


def mapped_rows(action, mode="absolute", variant="pso"):
    """``coefficient_sets``' table as one (w, c1, c2, c3, c4) tuple per subgroup."""
    table = coefficient_sets(action, mode, variant)
    assert table.shape == (5, 5) and table.dtype == np.float64
    return [tuple(row) for row in table.tolist()]


def map_slice(piece, mode="absolute", variant="pso"):
    """Map one subgroup's slice, given to all five subgroups alike."""
    rows = mapped_rows(np.tile(piece, 5), mode, variant)
    assert rows == [rows[0]] * 5
    return rows[0]


class TestAbsoluteMapper:
    def test_all_low_action_gives_minimum_inertia_and_zero_pull(self):
        w, c1, c2, _, _ = map_slice([-1.0, -1.0, -1.0, -1.0])
        assert w == pytest.approx(0.1, abs=1e-15)
        assert c1 == 0.0 and c2 == 0.0

    def test_symmetric_shares_split_budget_evenly(self):
        w, c1, c2, _, _ = map_slice([1.0, 0.2, 0.2, 1.0])
        assert w == pytest.approx(0.9, abs=1e-15)
        assert c1 == pytest.approx(c2, rel=1e-12)
        assert c1 + c2 == pytest.approx(8.0, abs=1e-3)

    def test_hand_evaluated_mapping(self):
        # unit-interval targets (0.5, 0.3, 0.1, 0.5) fed as raw tanh outputs
        w, c1, c2, _, _ = map_slice([0.0, -0.4, -0.8, 0.0])
        scale = 1.0 / (0.3 + 0.1 + 1e-5) * 0.5 * 8.0
        assert w == pytest.approx(0.5, abs=1e-12)
        assert c1 == pytest.approx(scale * 0.3, rel=1e-9)
        assert c2 == pytest.approx(scale * 0.1, rel=1e-9)
        assert c1 == pytest.approx(2.99993, abs=1e-4)
        assert c2 == pytest.approx(0.99998, abs=1e-4)

    def test_range_invariants_for_random_actions(self, rng):
        for _ in range(200):
            for w, c1, c2, c3, c4 in mapped_rows(rng.uniform(-1, 1, 20)):
                assert 0.1 - 1e-12 <= w <= 0.9 + 1e-12
                assert c1 >= 0.0 and c2 >= 0.0
                assert c1 + c2 <= 8.0 + 1e-3
                assert c3 == 0.0 and c4 == 0.0

    def test_budget_tracks_fourth_component(self, rng):
        for _ in range(40):
            action = rng.uniform(-1, 1, 20)
            for a, (_, c1, c2, _, _) in zip(action.reshape(5, 4), mapped_rows(action)):
                ah = (a + 1.0) / 2.0
                if ah[1] + ah[2] < 0.1:
                    continue
                assert c1 + c2 == pytest.approx(8.0 * ah[3], abs=1e-3)


class TestRlpsoMapper:
    def test_gate_taken_directly_from_last_component(self):
        c4 = map_slice([0.0, 0.0, 0.0, 0.0, 0.5], variant="rlpso")[4]
        assert c4 == 0.75  # (0.5 + 1) / 2

    def test_budget_tracks_gate_component(self, rng):
        for _ in range(40):
            action = rng.uniform(-1, 1, 25)
            rows = mapped_rows(action, variant="rlpso")
            for a, (_, c1, c2, c3, _) in zip(action.reshape(5, 5), rows):
                ah = (a + 1.0) / 2.0
                if ah[1] + ah[2] + ah[3] < 0.1:
                    continue
                assert c1 + c2 + c3 == pytest.approx(8.0 * ah[4], abs=1e-3)

    def test_three_shares_fill_budget(self, rng):
        for _ in range(100):
            for w, c1, c2, c3, c4 in mapped_rows(rng.uniform(-1, 1, 25), variant="rlpso"):
                assert 0.1 - 1e-12 <= w <= 0.9 + 1e-12
                assert min(c1, c2, c3) >= 0.0
                assert c1 + c2 + c3 <= 8.0 + 1e-3
                assert 0.0 <= c4 <= 1.0


class TestRelativeMapper:
    """Relative mode perturbs the constant schedule (0.729, 1.494, 1.494)."""

    def test_zero_action_is_identity(self):
        c = map_slice(np.zeros(4), "relative")
        assert c == (0.729, 1.494, 1.494, 0.0, 0.0)

    def test_full_positive_inertia_shift(self):
        # 0.729 + 0.5 passes the 1.2 ceiling; the attraction terms shift freely
        w, c1, _, _, _ = map_slice([1.0, 1.0, 1.0, 0.0], "relative")
        assert w == pytest.approx(1.2, abs=1e-15)
        assert c1 == pytest.approx(1.994, abs=1e-15)

    def test_inertia_clamped_low(self):
        # w drops below the 0.05 floor only for a component below -1.358
        w = map_slice([-1.4, 0.0, 0.0, 0.0], "relative")[0]
        assert w == 0.05

    def test_pso_row_keeps_c4_at_zero(self):
        c3, c4 = map_slice([0.2, 0.2, 0.2, 0.2], "relative")[3:]
        assert c3 == 0.2 * 0.5 and c4 == 0.0


def _reference_absolute(a):
    ah = (np.asarray(a, dtype=float) + 1.0) / 2.0
    w = ah[0] * 0.8 + 0.1
    scale = 1.0 / (ah[1] + ah[2] + 1e-5) * ah[3] * 8.0
    return float(w), float(scale * ah[1]), float(scale * ah[2]), 0.0, 0.0


def _reference_rlpso(a):
    ah = (np.asarray(a, dtype=float) + 1.0) / 2.0
    w = ah[0] * 0.8 + 0.1
    scale = 1.0 / (ah[1] + ah[2] + ah[3] + 1e-5) * ah[4] * 8.0
    return float(w), float(scale * ah[1]), float(scale * ah[2]), float(scale * ah[3]), float(ah[4])


def _reference_relative(a, origin=(0.729, 1.494, 1.494, 0.0, 0.0)):
    a = np.asarray(a, dtype=float)
    w = min(max(a[0] * 0.5 + origin[0], 0.05), 1.2)
    c1 = a[1] * 0.5 + origin[1]
    c2 = a[2] * 0.5 + origin[2]
    c3 = a[3] * 0.5 + origin[3] if a.size > 3 else origin[3]
    c4 = a[4] * 0.5 + origin[4] if a.size > 4 else origin[4]
    return float(w), float(c1), float(c2), float(c3), float(c4)


class TestMappingReference:
    """The coefficient table equals the per-slice scalar mapping, bit for bit."""

    @pytest.mark.parametrize("mode,variant,reference", [
        ("absolute", "pso", _reference_absolute),
        ("absolute", "rlpso", _reference_rlpso),
        ("relative", "pso", _reference_relative),
    ])
    def test_table_matches_scalar_reference(self, mode, variant, reference, rng):
        width = action_width(variant) // 5
        for _ in range(500):
            action = rng.uniform(-1, 1, 5 * width)
            edges = rng.random(action.size) < 0.2  # actor outputs clipped to exactly +-1
            action[edges] = rng.choice([-1.0, 1.0], int(edges.sum()))
            expected = np.array([reference(action[g * width:(g + 1) * width]) for g in range(5)])
            table = coefficient_sets(action, mode, variant)
            assert table.dtype == np.float64
            assert table.tobytes() == expected.tobytes()


class TestReward:
    def test_improvement_is_plus_one(self):
        assert reward(10.0, 9.0) == 1.0

    def test_stagnation_is_minus_one(self):
        assert reward(10.0, 10.0) == -1.0

    def test_equality_at_optimum_is_minus_one(self):
        assert reward(-1400.0, -1400.0) == -1.0

    def test_only_two_values_ever(self, rng):
        for _ in range(200):
            prev = rng.normal()
            new = prev - abs(rng.normal())
            assert reward(prev, new) in (1.0, -1.0)


class TestReplayBuffer:
    @staticmethod
    def _t(i):
        return (np.full(2, float(i)), np.full(1, float(i)), float(i), np.full(2, float(i)))

    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(2, 2, 1, seed=0)
        for i in range(5):
            buf.push(*self._t(i))
        assert len(buf) == 2
        _, rewards, _ = buf.sample(len(buf))
        stored = sorted(rewards.tolist())
        assert stored == [3.0, 4.0]

    def test_sample_without_replacement_within_batch(self):
        buf = ReplayBuffer(10, 2, 1, seed=1)
        for i in range(10):
            buf.push(*self._t(i))
        _, rewards, _ = buf.sample(10)
        assert sorted(rewards.tolist()) == [float(i) for i in range(10)]

    def test_oversized_batch_rejected(self):
        buf = ReplayBuffer(10, 2, 1, seed=2)
        buf.push(*self._t(0))
        with pytest.raises(ValueError, match="buffer holds"):
            buf.sample(2)

    def test_sampling_is_uniform_over_slots(self):
        buf = ReplayBuffer(50, 2, 1, seed=3)
        for i in range(50):
            buf.push(*self._t(i))
        counts = np.zeros(50)
        for _ in range(10_000):
            _, rewards, _ = buf.sample(10)
            for r in rewards:
                counts[int(r)] += 1
        expected = 10_000 * 10 / 50
        sigma = math.sqrt(10_000 * 0.2 * 0.8)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_each_row_holds_one_transition_in_its_columns(self):
        def parts(i):  # a distinct value in every column of transition i
            return (np.array([10.0 * i, 10.0 * i + 1]), np.array([10.0 * i + 2]),
                    10.0 * i + 3, np.array([10.0 * i + 4, 10.0 * i + 5]))

        buf = ReplayBuffer(3, 2, 1, seed=4)
        for i in range(5):
            buf.push(*parts(i))
        state_actions, rewards, next_states = buf.sample(3)
        assert state_actions.shape == (3, 3) and next_states.shape == (3, 2)
        seen = []
        for sa, r, ns in zip(state_actions, rewards, next_states):
            i = int(r) // 10
            state, action, rew, next_state = parts(i)
            assert sa.tolist() == state.tolist() + action.tolist()
            assert r == rew and ns.tolist() == next_state.tolist()
            seen.append(i)
        assert sorted(seen) == [2, 3, 4]


class TestAgent:
    def test_zero_actor_acts_as_zero_vector(self):
        agent = DdpgAgent(20, seed=0)
        for w in agent.actor.weights:
            w[:] = 0.0
        for b in agent.actor.biases:
            b[:] = 0.0
        assert np.array_equal(agent.act(np.ones(15), explore=False), np.zeros(20))

    def test_greedy_action_is_deterministic(self):
        agent = DdpgAgent(20, seed=1)
        s = np.linspace(-1, 1, 15)
        assert np.array_equal(agent.act(s, False), agent.act(s, False))

    def test_exploration_noise_replays_from_seed(self):
        agent = DdpgAgent(20, seed=5)
        s = np.linspace(-1, 1, 15)
        base = agent.actor.forward(s)
        expected = np.clip(base + np.random.default_rng(6).normal(0.0, 0.5, 20), -1, 1)
        assert np.array_equal(agent.act(s, explore=True), expected)

    def test_exploring_action_stays_clipped(self):
        agent = DdpgAgent(20, seed=2)
        s = np.zeros(15)
        for _ in range(50):
            a = agent.act(s, explore=True)
            assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_tau_one_copies_targets_from_sources(self):
        agent = DdpgAgent(20, seed=3, tau=1.0)
        agent.actor.weights[0][0, 0] += 1.0
        agent.soft_update_targets()
        assert np.array_equal(agent.actor_target.weights[0], agent.actor.weights[0])

    def test_target_drift_bounded_geometrically(self):
        agent = DdpgAgent(8, seed=6, tau=0.05)
        # perturb the target away from the frozen source
        for t_arr in agent.actor_target.weights + agent.actor_target.biases:
            t_arr += 0.5
        gap0 = max(
            np.abs(t - s).max()
            for t, s in zip(agent.actor_target.weights, agent.actor.weights)
        )
        for k in range(1, 30):
            soft_update(agent.actor_target, agent.actor, 0.05)
            gap = max(
                np.abs(t - s).max()
                for t, s in zip(agent.actor_target.weights, agent.actor.weights)
            )
            assert gap <= (1 - 0.05) ** k * gap0 * (1 + 1e-9) + 1e-15

    def test_train_step_requires_batch(self):
        agent = DdpgAgent(20, seed=7)
        with pytest.raises(ValueError, match="need"):
            agent.train_step()

    def test_critic_regression_on_fixed_batch(self):
        # gamma = 0 makes y = r: a pure supervised target for the critic
        agent = DdpgAgent(1, seed=8, gamma=0.0, batch_size=16,
                          warmup=16, actor_hidden=(), critic_hidden=(),
                          critic_lr=0.02)
        rng = np.random.default_rng(9)
        for _ in range(16):
            s = rng.uniform(-1, 1, 15)
            a = rng.uniform(-1, 1, 1)
            r = float(2.0 * s[0] + 0.5 * a[0])
            agent.buffer.push(s, a, r, s)
        first_loss, _ = agent.train_step()
        losses = [agent.train_step()[0] for _ in range(200)]
        assert losses[-1] < 0.1 * first_loss

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage on Linux")
    def test_train_step_does_not_page_fault(self):
        # each network's passes keep their arrays on its tape; the rest of a
        # step's arrays (the sampled batch, the hstacked critic inputs, y, err)
        # are small and alike in size every step, so the heap neither shrinks
        # nor regrows between steps
        import resource

        agent = DdpgAgent(20, seed=10, warmup=64)
        rng = np.random.default_rng(11)
        for _ in range(256):
            agent.buffer.push(rng.uniform(-1, 1, 15), rng.uniform(-1, 1, 20), 1.0,
                              rng.uniform(-1, 1, 15))
        for _ in range(20):  # warm-up: the tapes allocate their arrays
            agent.train_step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(200):
            agent.train_step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 200 < 10

    def test_train_step_keeps_its_arrays_on_the_tapes(self):
        # the faults bound above also holds when numpy reallocates a step's
        # arrays, so this pins the arrays themselves: each pass writes every
        # layer's z and, where the layer has one, its activation into its
        # tape's buffers, and backward writes the parameter gradients into the
        # tape's vector
        agent = DdpgAgent(20, seed=10, warmup=64)
        rng = np.random.default_rng(11)
        for _ in range(256):
            agent.buffer.push(rng.uniform(-1, 1, 15), rng.uniform(-1, 1, 20), 1.0,
                              rng.uniform(-1, 1, 15))
        for _ in range(5):  # warm-up: the tapes allocate their arrays
            agent.train_step()

        def held(tape):
            # the last pass's z per layer, then each hidden activation (the next
            # layer's input) and the output, the tanh activation or the last z
            return [*tape.pre_acts, *tape.inputs[1:], tape.output, tape.grads.params]

        before = {name: held(tape) for name, tape in agent._tapes.items()}
        for _ in range(50):
            agent.train_step()
        for name, tape in agent._tapes.items():
            assert all(a is b for a, b in zip(held(tape), before[name], strict=True)), name

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            DdpgAgent(4, seed=0, tau=0.0)
        with pytest.raises(ValueError, match="gamma"):
            DdpgAgent(4, seed=0, gamma=1.0)


class TestCoefficientPlumbing:
    def test_action_widths(self):
        assert action_width("pso") == 20
        assert action_width("rlpso") == 25
        with pytest.raises(ValueError, match="clpso"):
            action_width("clpso")

    def test_slices_map_per_group(self):
        action = np.concatenate([np.full(4, -1.0), np.full(4, 1.0),
                                 np.zeros(4), np.zeros(4), np.zeros(4)])
        action[12:16] = [1.0, 0.2, 0.2, 1.0]
        rows = mapped_rows(action)
        assert len(rows) == 5
        assert rows[0][0] == pytest.approx(0.1, abs=1e-15)
        assert rows[1][0] == pytest.approx(0.9, abs=1e-15)
        assert rows[3][1] + rows[3][2] == pytest.approx(8.0, abs=1e-3)

    def test_relative_rejects_rlpso(self):
        with pytest.raises(ValueError, match="relative"):
            coefficient_sets(np.zeros(25), "relative", "rlpso")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            coefficient_sets(np.zeros(19), "absolute", "pso")

    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    def test_unadapted_variant_rejected_by_name(self, mode):
        message = "^no policy adapts variant 'clpso'$"
        with pytest.raises(ValueError, match=message):
            coefficient_sets(np.zeros(20), mode, "clpso")
        controller = PolicyController(DdpgAgent(action_width("pso"), seed=1), mode, "clpso")
        with pytest.raises(ValueError, match=message):
            controller(Swarm(flat_objective(2), 10, 1000, seed=1, variant="clpso"))

    def test_baseline_origin_for_pso_is_constant_schedule(self):
        class ZeroPolicy:
            def act(self, state, explore):
                return np.zeros(20)

        # a zero action leaves relative mode at its origin
        controller = PolicyController(ZeroPolicy(), "relative", "pso")
        sets = controller(Swarm(flat_objective(2), 10, 1000, seed=1))
        assert sets[:, :3].tolist() == [[0.729, 1.494, 1.494]] * 5


class TestTrainingLoop:
    def test_transition_accounting(self):
        # budget 4N: init consumes N, leaving 3 iterations -> 3 transitions
        agent = DdpgAgent(20, seed=10, warmup=10_000)
        train(agent, ["sphere"], 1, "absolute", "pso", 2,
              n_particles=10, budget=40, seed=0)
        assert len(agent.buffer) == 3

    def test_episode_log_and_pool_rotation(self):
        agent = DdpgAgent(20, seed=11, warmup=10_000)
        log = train(agent, ["sphere", "rastrigin"], 4, "absolute", "pso", 2,
                    n_particles=10, budget=50, seed=1)
        assert len(log) == 4
        assert {rec.function for rec in log} <= {"sphere", "rastrigin"}
        assert all(math.isnan(rec.mean_critic_loss) for rec in log)  # warmup never reached

    def test_log_line_gives_each_episode_error_to_the_optimum(self, capsys):
        agent = DdpgAgent(20, seed=14, warmup=10_000)
        log = train(agent, ["sphere"], 3, "absolute", "pso", 2,
                    n_particles=8, budget=400, seed=2, validate_every=0, log_every=1)
        lines = capsys.readouterr().out.splitlines()
        bias = FUNCTIONS["sphere"].bias
        assert lines == [f"episode {rec.episode + 1}/3: sphere error={rec.final_gbest - bias!r}"
                         for rec in log]

    def test_empty_pool_rejected(self):
        agent = DdpgAgent(20, seed=12)
        with pytest.raises(ValueError, match="pool"):
            train(agent, [], 1, "absolute", "pso", 2)

    @pytest.mark.parametrize("name", ["validate_every", "log_every"])
    def test_negative_cadence_rejected_before_any_episode(self, name, capsys):
        agent = DdpgAgent(20, seed=13, warmup=10_000)
        with pytest.raises(ValueError, match=name):
            train(agent, ["sphere"], 3, "absolute", "pso", 2,
                  n_particles=10, budget=40, seed=0, **{name: -1})
        assert len(agent.buffer) == 0
        assert capsys.readouterr().out == ""

    def test_action_width_mismatch_rejected(self):
        agent = DdpgAgent(20, seed=13)
        with pytest.raises(ValueError, match="emits"):
            train(agent, ["sphere"], 1, "absolute", "rlpso", 2)

    @pytest.mark.parametrize("validate_every", [25, 0])
    def test_relative_rlpso_refused(self, validate_every):
        agent = DdpgAgent(action_width("rlpso"), seed=13)
        with pytest.raises(ValueError, match="relative mode is undefined for rlpso"):
            train(agent, ["sphere"], 1, "relative", "rlpso", 2,
                  n_particles=8, budget=40, seed=0, validate_every=validate_every)

    def test_unknown_pool_name_rejected_before_any_episode(self):
        agent = DdpgAgent(20, seed=13, warmup=10_000)
        with pytest.raises(ValueError, match="unknown function 'nope' in training pool"):
            train(agent, ["sphere"] * 20 + ["nope"], 6, "absolute", "pso", 2,
                  n_particles=10, budget=40, seed=0, validate_every=0)
        assert len(agent.buffer) == 0

    @pytest.mark.parametrize("episodes, every, validations",
                             [(3, 2, 3), (3, 25, 2), (4, 2, 3)])
    def test_final_policy_is_validated(self, monkeypatch, episodes, every, validations):
        """Validation runs before the first episode, after every ``every``
        episodes and after the last, once each."""
        import rlapso.ddpg

        calls = []
        score = rlapso.ddpg._validation_score

        def counted(*args, **kwargs):
            calls.append(args)
            return score(*args, **kwargs)

        monkeypatch.setattr(rlapso.ddpg, "_validation_score", counted)
        agent = DdpgAgent(20, seed=16, warmup=10_000)
        train(agent, ["sphere"], episodes, "absolute", "pso", 2,
              n_particles=10, budget=40, seed=0, validate_every=every)
        assert len(calls) == validations

    def test_training_actually_updates_networks(self):
        agent = DdpgAgent(20, seed=14, warmup=20, batch_size=8)
        before = agent.actor.weights[0].copy()
        train(agent, ["sphere"], 2, "absolute", "pso", 2,
              n_particles=8, budget=200, seed=2, validate_every=0)
        assert not np.array_equal(agent.actor.weights[0], before)

    def test_snapshot_selection_never_validates_worse(self):
        from rlapso.ddpg import _validation_score

        kwargs = dict(n_particles=8, budget=200, seed=3)
        selected = DdpgAgent(20, seed=15, warmup=20, batch_size=8)
        train(selected, ["sphere"], 3, "absolute", "pso", 2,
              validate_every=1, **kwargs)
        plain = DdpgAgent(20, seed=15, warmup=20, batch_size=8)
        train(plain, ["sphere"], 3, "absolute", "pso", 2,
              validate_every=0, **kwargs)
        args = (["sphere"], "absolute", "pso", 2, 8, 200)
        assert _validation_score(selected, *args) <= _validation_score(plain, *args) + 1e-12


class TestAdaptedRun:
    def test_deterministic_repeat(self):
        from rlapso.benchmarks import make_objective

        agent = DdpgAgent(20, seed=15)
        obj = make_objective("sphere", 4, 77)
        a = adapted_run(agent, obj, "pso", "absolute", 1000, seed=3, n_particles=10)
        b = adapted_run(agent, obj, "pso", "absolute", 1000, seed=3, n_particles=10)
        assert a.curve == b.curve
        assert a.final_fit == b.final_fit

    def test_curve_accounting_at_full_budget(self):
        from rlapso.benchmarks import make_objective

        agent = DdpgAgent(20, seed=16)
        obj = make_objective("sphere", 4, 78)
        rec = adapted_run(agent, obj, "pso", "absolute", 10_000, seed=4, n_particles=40)
        assert len(rec.curve) == 250
        assert rec.curve[0][0] == 40
        assert rec.curve[-1][0] == 10_000
        gbests = [fit for _, fit in rec.curve]
        assert all(b2 <= b1 for b1, b2 in zip(gbests, gbests[1:]))

    def test_zero_actor_reproduces_midpoint_mapping(self):
        """With a zero actor every group maps to the same coefficients as the
        all-zero action; trace the first iteration by hand."""
        from rlapso.benchmarks import make_objective

        agent = DdpgAgent(20, seed=17)
        for w in agent.actor.weights:
            w[:] = 0.0
        for b in agent.actor.biases:
            b[:] = 0.0
        expected = map_slice(np.zeros(4))
        assert expected[0] == 0.5
        assert expected[1] == pytest.approx(2.0, abs=1e-4)

        obj = make_objective("sphere", 3, 79)
        seed = 5
        mirror = Swarm(obj, 10, 200, seed, variant="pso")
        mirror.step([expected] * 5)
        rec = adapted_run(agent, obj, "pso", "absolute", 80, seed, n_particles=10)
        assert rec.curve[1][1] == mirror.gbest_fit

    def test_controller_reused_for_a_second_run_observes_afresh(self):
        from rlapso.benchmarks import make_objective

        agent = DdpgAgent(20, seed=21)
        obj = make_objective("rastrigin", 3, 80)
        controller = PolicyController(agent, "absolute", "pso")
        drive(Swarm(obj, 10, 25, seed=1), controller)  # last observes at 20 evaluations
        second = drive(Swarm(obj, 20, 45, seed=2), controller)  # starts at 20
        assert second.curve == adapted_run(agent, obj, "pso", "absolute", 45, 2,
                                           n_particles=20).curve

    def test_controller_acts_on_the_swarm_as_it_is_at_each_call(self):
        from rlapso.benchmarks import make_objective

        controller = PolicyController(DdpgAgent(20, seed=22), "absolute", "pso")
        swarm = Swarm(make_objective("rastrigin", 3, 81), 10, 200, seed=3)
        controller(swarm)
        first = controller.state.copy()
        swarm.positions *= 0.5  # moved without an evaluation
        controller(swarm)
        assert not np.array_equal(first, controller.state)
        assert np.array_equal(controller.state, encode(observe(swarm)))


class TestKeyValueLines:
    def test_comments_blanks_and_the_first_equals(self):
        text = "# header\n\n  a = 1  # note\nb\r\nc=x=y\n   # indented\nd ="
        assert list(key_value_lines(text)) == [
            (3, "a = 1", "a", "1"),
            (4, "b", "b", None),
            (5, "c=x=y", "c", "x=y"),
            (7, "d =", "d", ""),
        ]

    def test_sidecar_splits_lines_as_a_config_does(self, tmp_path):
        from rlapso.harness import parse_config

        text = "mode=absolute\x0cvariant=pso\n"  # a form feed ends a line for str.splitlines
        path = tmp_path / "model.bin"
        save_model(DdpgAgent(20, seed=19).actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        (tmp_path / "model.bin.meta").write_text(text, encoding="utf-8")
        _, meta = load_model(path)
        assert meta == {"mode": "absolute", "variant": "pso"}
        config = parse_config("functions = sphere\x0calgorithms = pso\n")
        assert (config.functions, config.algorithms) == (["sphere"], ["pso"])


class TestModelFiles:
    def test_save_load_round_trip(self, tmp_path):
        agent = DdpgAgent(20, seed=18)
        path = tmp_path / "model.bin"
        save_model(agent.actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=3, seed=18)
        policy, meta = load_model(path)
        assert meta["mode"] == "absolute"
        assert meta["variant"] == "pso"
        assert meta["action_width"] == "20"
        assert meta["state_width"] == "15"
        s = np.linspace(-0.5, 0.5, 15)
        assert np.array_equal(policy.act(s), agent.act(s, explore=False))

    def test_sidecar_line_without_equals_rejected(self, tmp_path):
        agent = DdpgAgent(20, seed=19)
        path = tmp_path / "model.bin"
        save_model(agent.actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        with open(tmp_path / "model.bin.meta", "a", encoding="utf-8") as f:
            f.write("mode\n")  # the sidecar holds 8 lines before this one
        with pytest.raises(ValueError, match="line 9: expected key=value"):
            load_model(path)

    def test_sidecar_repeated_key_rejected(self, tmp_path):
        agent = DdpgAgent(20, seed=19)
        path = tmp_path / "model.bin"
        save_model(agent.actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        with open(tmp_path / "model.bin.meta", "a", encoding="utf-8") as f:
            f.write("mode=relative\n")
        with pytest.raises(ValueError, match="line 9: duplicate key 'mode'"):
            load_model(path)

    def test_sidecar_inline_comment_ignored(self, tmp_path):
        from rlapso.harness import run_single

        path = tmp_path / "model.bin"
        save_model(DdpgAgent(20, seed=19).actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        sidecar = tmp_path / "model.bin.meta"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(text.replace("mode=absolute\n",
                                        "mode=absolute   # trained on sphere only\n"),
                           encoding="utf-8")
        assert "# trained" in sidecar.read_text(encoding="utf-8")
        rec = run_single("rlam-absolute", "sphere", 2, 1, 100, 1, particles=8, model=path)
        assert rec.adapter == "rlam-absolute"

    @pytest.mark.parametrize("dropped", [("mode",), ("variant",), ("mode", "variant")])
    def test_sidecar_without_mode_or_variant_rejected(self, tmp_path, dropped):
        path = tmp_path / "model.bin"
        save_model(DdpgAgent(20, seed=19).actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        sidecar = tmp_path / "model.bin.meta"
        lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if line.partition("=")[0] not in dropped]
        assert len(kept) == len(lines) - len(dropped)
        sidecar.write_text("".join(kept), encoding="utf-8")
        with pytest.raises(ValueError, match=f"model.bin.meta declares no {' or '.join(dropped)}$"):
            load_model(path)

    def test_sidecar_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(DdpgAgent(20, seed=19).actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        _, plain = load_model(path)
        sidecar = tmp_path / "model.bin.meta"
        sidecar.write_text(sidecar.read_text(encoding="utf-8"), encoding="utf-8-sig")
        assert sidecar.read_bytes().startswith(b"\xef\xbb\xbf")
        _, marked = load_model(path)
        assert marked == plain

    def test_missing_sidecar_rejected(self, tmp_path):
        agent = DdpgAgent(20, seed=19)
        path = tmp_path / "model.bin"
        save_model(agent.actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=19)
        (tmp_path / "model.bin.meta").unlink()
        with pytest.raises(FileNotFoundError, match="sidecar"):
            load_model(path)

    def test_missing_model_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="model"):
            load_model(tmp_path / "nope.bin")

    def test_policy_refuses_exploration(self, tmp_path):
        agent = DdpgAgent(20, seed=20)
        path = tmp_path / "model.bin"
        save_model(agent.actor, path, mode="absolute", variant="pso",
                   pool=["sphere"], episodes=1, seed=20)
        policy, _ = load_model(path)
        with pytest.raises(ValueError, match="explore"):
            policy.act(np.zeros(15), explore=True)
