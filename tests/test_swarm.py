"""Swarm mechanics: init, the three step rules, schedules, and invariants.

The oracle tests replay the generator transcript documented in the swarm
module and hand-simulate the update equations, demanding bit-exact equality.
"""

import numpy as np
import pytest

from conftest import CountingObjective, ScriptedRng, flat_objective
from rlapso.benchmarks import make_objective
from rlapso.swarm import (
    CONSTANT_TABLE,
    SUBGROUPS,
    BudgetExhaustedError,
    Schedule,
    Swarm,
    drive,
    learning_probability,
)


def const_coeffs(w, c1, c2, c3=0.0, c4=0.0, groups=SUBGROUPS):
    return [(w, c1, c2, c3, c4)] * groups


def schedule_table(kind, t, t_max):
    return Schedule(kind, "tag")(None, t, t_max)


class TestInit:
    def test_one_evaluation_per_particle(self):
        obj = CountingObjective(make_objective("sphere", 4, 1))
        swarm = Swarm(obj, 40, 10_000, seed=1)
        assert swarm.eval_count == 40
        assert obj.calls == 40

    def test_gbest_is_min_pbest(self):
        swarm = Swarm(make_objective("rastrigin", 6, 2), 12, 1000, seed=3)
        assert swarm.gbest_fit == swarm.pbest_fit.min()

    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    def test_initial_records_keep_the_first_of_tied_minima(self, variant):
        script = [5.0, 3.0, 7.0, 3.0, 9.0, 3.0]

        class Scripted(CountingObjective):
            def evaluate(self, x):
                self.calls += 1
                return script[self.calls - 1]

        swarm = Swarm(Scripted(flat_objective(3)), 6, 100, seed=4, variant=variant)
        assert np.array_equal(swarm.gbest_pos, swarm.positions[1])
        assert not np.array_equal(swarm.gbest_pos, swarm.positions[3])
        assert not np.shares_memory(swarm.gbest_pos, swarm.positions)
        assert np.array_equal(swarm.pbest_pos, swarm.positions)
        assert not np.shares_memory(swarm.pbest_pos, swarm.positions)
        assert swarm.pbest_fit.tolist() == script
        assert swarm.gbest_fit == 3.0
        assert swarm.eval_count == swarm.last_improve_eval == 6
        assert not swarm.stall.any()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    def test_no_finite_initial_value_rejected(self, variant, value):
        class NonFinite(CountingObjective):
            def evaluate(self, x):
                self.calls += 1
                return value

        obj = NonFinite(flat_objective(3))
        with pytest.raises(ValueError, match="no finite value at any of the 6 initial"):
            Swarm(obj, 6, 100, seed=4, variant=variant)
        assert obj.calls == 6

    def test_seed_determinism(self):
        obj = make_objective("griewank", 5, 4)
        a = Swarm(obj, 10, 500, seed=9)
        b = Swarm(obj, 10, 500, seed=9)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)

    def test_too_few_particles_rejected(self):
        for variant in ("pso", "clpso", "rlpso"):
            with pytest.raises(ValueError, match="need at least 5 particles, got 4"):
                Swarm(make_objective("sphere", 4, 1), 4, 100, seed=0, variant=variant)
            Swarm(make_objective("sphere", 4, 1), 5, 100, seed=0, variant=variant)

    def test_budget_below_population_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            Swarm(make_objective("sphere", 4, 1), 10, 5, seed=0)

    def test_velocities_within_limits(self):
        swarm = Swarm(make_objective("sphere", 4, 1), 20, 1000, seed=5)
        assert np.all(np.abs(swarm.velocities) <= swarm.v_max)


class TestPsoStep:
    def test_pure_inertia_moves_by_velocity(self):
        swarm = Swarm(flat_objective(3), 5, 1000, seed=8)
        swarm.velocities[:] = 0.5  # small, so no clamping triggers
        before = swarm.positions.copy()
        swarm.step(const_coeffs(1.0, 0.0, 0.0))
        assert np.array_equal(swarm.positions, before + 0.5)

    def test_particle_at_gbest_gets_zero_velocity(self):
        swarm = Swarm(flat_objective(2), 5, 1000, seed=2)
        # particle 0 is stepped first, before anything can move gbest
        swarm.positions[0] = swarm.gbest_pos.copy()
        swarm.step(const_coeffs(0.0, 0.0, 2.0))
        assert np.array_equal(swarm.velocities[0], np.zeros(2))

    def test_wrong_group_count_rejected(self):
        swarm = Swarm(flat_objective(2), 10, 1000, seed=2)
        with pytest.raises(ValueError, match="coefficient sets"):
            swarm.step(const_coeffs(0.5, 1.0, 1.0, groups=3))

    def test_budget_exhausted_raises(self):
        swarm = Swarm(flat_objective(2), 5, 5, seed=2)
        with pytest.raises(BudgetExhaustedError):
            swarm.step(const_coeffs(0.5, 1.0, 1.0))

    def test_partial_iteration_stops_at_budget(self):
        swarm = Swarm(flat_objective(2), 5, 8, seed=2)
        before = swarm.positions.copy()
        swarm.step(const_coeffs(0.5, 1.0, 1.0))
        assert swarm.eval_count == 8
        # particles beyond the budget were not moved
        assert np.array_equal(swarm.positions[3:], before[3:])

    def test_matches_hand_simulated_oracle(self):
        """5 particles on a 1-D centered sphere, 3 iterations, bit-exact."""
        obj = flat_objective(1)
        seed, w, c1, c2 = 123, 0.9, 2.0, 2.0
        n = 5
        swarm = Swarm(obj, n, 1000, seed=seed)

        rng = np.random.default_rng(seed)
        pos = rng.uniform(obj.lower, obj.upper, (n, 1))
        vel = rng.uniform(-swarm.v_max, swarm.v_max, (n, 1))
        fits = np.array([obj.evaluate(p) for p in pos])
        pbest_pos = pos.copy()
        pbest_fit = fits.copy()
        g = int(np.argmin(fits))
        gbest_pos = pos[g].copy()
        gbest_fit = float(fits[g])

        assert np.array_equal(swarm.positions, pos)
        assert np.array_equal(swarm.velocities, vel)

        for _ in range(3):
            for i in range(n):
                x = pos[i]
                r1 = rng.random(1)
                r2 = rng.random(1)
                v = w * vel[i] + c1 * r1 * (pbest_pos[i] - x) + c2 * r2 * (gbest_pos - x)
                v = np.clip(v, -swarm.v_max, swarm.v_max)
                x = x + v
                low, high = x < obj.lower, x > obj.upper
                x[low] = obj.lower
                x[high] = obj.upper
                v[low | high] = 0.0
                pos[i], vel[i] = x, v
                fit = obj.evaluate(x)
                if fit < pbest_fit[i]:
                    pbest_fit[i] = fit
                    pbest_pos[i] = x
                if fit < gbest_fit:
                    gbest_fit = fit
                    gbest_pos = x.copy()
            swarm.step(const_coeffs(w, c1, c2))
            assert np.array_equal(swarm.positions, pos)
            assert np.array_equal(swarm.velocities, vel)
            assert np.array_equal(swarm.pbest_fit, pbest_fit)
            assert swarm.gbest_fit == gbest_fit


def _exemplar_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _oracle_assign(rng, n, dim, i, pbest_fit):
    """Particle i's exemplar row from one ``rng.random((3, dim))`` block,
    dimension by dimension: learn when u0 < Pc (the smallest u0 learns if
    none does), taking the better of the u1-th particle other than i and the
    u2-th particle other than i and that first rival."""
    pc = 0.05 + 0.45 * (np.expm1(10.0 * i / (n - 1)) / np.expm1(10.0))
    u = rng.random((3, dim))
    learn = [u[0, d] < pc for d in range(dim)]
    if not any(learn):
        learn[int(np.argmin(u[0]))] = True
    row = np.full(dim, i)
    for d in range(dim):
        if learn[d]:
            others = [p for p in range(n) if p != i]
            j1 = others[int(u[1, d] * (n - 1))]
            rest = [p for p in others if p != j1]
            j2 = rest[int(u[2, d] * (n - 2))]
            row[d] = j1 if pbest_fit[j1] < pbest_fit[j2] else j2
    return row


class TestClpsoStep:
    def test_all_own_exemplar_and_matching_pbest_gives_pure_inertia(self):
        swarm = Swarm(flat_objective(2), 5, 1000, seed=4,
                      variant="clpso")
        swarm.exemplar[:] = np.arange(5)[:, None]
        # keep everything interior so the bound clamp cannot zero velocities
        swarm.positions[:] = np.clip(swarm.positions, -90.0, 90.0)
        swarm.pbest_pos[:] = swarm.positions
        swarm.velocities[:] = 0.5
        swarm.step(const_coeffs(0.5, 2.0, 0.0))
        assert np.array_equal(swarm.velocities, np.full((5, 2), 0.25))

    def test_zero_learning_coefficient_is_pure_inertia(self):
        swarm = Swarm(flat_objective(3), 5, 1000, seed=6,
                      variant="clpso")
        swarm.positions[:] = np.clip(swarm.positions, -90.0, 90.0)
        swarm.velocities[:] = -0.5
        swarm.step(const_coeffs(0.7, 0.0, 0.0))
        assert np.array_equal(swarm.velocities, np.full((5, 3), 0.7 * -0.5))

    def test_matches_hand_simulated_oracle(self):
        """5 particles, 2-D centered sphere, 2 iterations.  No stall count
        passes 2, so no reassignment happens with any refreshing gap >= 2."""
        obj = flat_objective(2)
        seed, w, c, m = 321, 0.6, 1.5, 7
        n, dim = 5, 2
        swarm = Swarm(obj, n, 1000, seed=seed, variant="clpso")

        rng, exemplar_rng = np.random.default_rng(seed), _exemplar_rng(seed)
        pos = rng.uniform(obj.lower, obj.upper, (n, dim))
        vel = rng.uniform(-swarm.v_max, swarm.v_max, (n, dim))
        pbest_fit = np.array([obj.evaluate(p) for p in pos])
        pbest_pos = pos.copy()
        g = int(np.argmin(pbest_fit))
        gbest_fit = float(pbest_fit[g])
        stall = np.zeros(n, dtype=int)
        exemplar = np.empty((n, dim), dtype=int)
        for i in range(n):
            exemplar[i] = _oracle_assign(exemplar_rng, n, dim, i, pbest_fit)

        assert np.array_equal(swarm.exemplar, exemplar)

        for _ in range(2):
            for i in range(n):
                x = pos[i]
                r = rng.random(dim)
                target = pbest_pos[exemplar[i], np.arange(dim)]
                v = w * vel[i] + c * r * (target - x)
                v = np.clip(v, -swarm.v_max, swarm.v_max)
                x = x + v
                low, high = x < obj.lower, x > obj.upper
                x[low] = obj.lower
                x[high] = obj.upper
                v[low | high] = 0.0
                pos[i], vel[i] = x, v
                fit = obj.evaluate(x)
                if fit < pbest_fit[i]:
                    pbest_fit[i] = fit
                    pbest_pos[i] = x
                    if fit < gbest_fit:
                        gbest_fit = fit
                else:
                    if fit < gbest_fit:
                        gbest_fit = fit
                    stall[i] += 1
                    if stall[i] > m:
                        exemplar[i] = _oracle_assign(exemplar_rng, n, dim, i, pbest_fit)
                        stall[i] = 0
            swarm.step(const_coeffs(w, c, 0.0))
            assert np.array_equal(swarm.positions, pos)
            assert np.array_equal(swarm.velocities, vel)
            assert np.array_equal(swarm.exemplar, exemplar)
            assert np.array_equal(swarm.stall, stall)
            assert swarm.gbest_fit == gbest_fit


class TestRlpsoStep:
    def _frozen_swarm(self, stall_value, seed=11):
        swarm = Swarm(flat_objective(2), 5, 1000, seed=seed,
                      variant="rlpso")
        swarm.velocities[:] = 0.0
        swarm.stall[:] = stall_value
        return swarm

    def test_zero_gate_never_mutates(self):
        swarm = self._frozen_swarm(stall_value=100)
        before = swarm.positions.copy()
        swarm.step(const_coeffs(0.0, 0.0, 0.0, c3=0.0, c4=0.0))
        assert np.array_equal(swarm.positions, before)

    def test_zero_stall_never_mutates(self):
        swarm = self._frozen_swarm(stall_value=0)
        before = swarm.positions.copy()
        swarm.step(const_coeffs(0.0, 0.0, 0.0, c3=0.0, c4=1.0))
        assert np.array_equal(swarm.positions, before)

    def test_saturated_gate_always_mutates(self):
        # threshold = 1.0 * 0.01 * 100 = 1.0 > any uniform draw
        swarm = self._frozen_swarm(stall_value=100)
        before = swarm.positions.copy()
        swarm.step(const_coeffs(0.0, 0.0, 0.0, c3=0.0, c4=1.0))
        assert np.all(np.any(swarm.positions != before, axis=1))
        assert np.array_equal(swarm.velocities, np.zeros_like(swarm.velocities))

    def test_velocity_combines_all_three_attractors(self):
        swarm = Swarm(flat_objective(2), 5, 1000, seed=13,
                      variant="rlpso")
        swarm.velocities[:] = 0.0
        swarm.stall[:] = 0
        # collapse every attractor onto the same point: velocity must stay zero
        swarm.positions[:] = swarm.gbest_pos
        swarm.pbest_pos[:] = swarm.gbest_pos
        swarm.step(const_coeffs(0.9, 1.0, 1.0, c3=1.0, c4=0.0))
        assert np.array_equal(swarm.velocities, np.zeros_like(swarm.velocities))


class _Oracle:
    """The documented draw order, replayed particle by particle on copies of a
    swarm's state with generators cloned from the swarm's two.  RLPSO draws
    the iteration's rows up front and each mutant, from the same generator,
    at its particle's turn; exemplar rows come from the second generator.
    Counters record which branches fired, so a test can show that its case
    reached them: ``early_gbest`` counts gbest improvements before an
    iteration's last particle, whose later particles must see the new gbest,
    ``most_gbest_moves`` is the most gbest improvements in one iteration,
    ``read_improved`` counts pbest improvements that a later particle's
    exemplar row reads in the same iteration, and ``early_mutations`` counts
    RLPSO mutations before an iteration's last particle."""

    def __init__(self, swarm):
        self.obj = swarm.objective
        self.n, self.dim = swarm.n, swarm.dim
        self.budget, self.v_max = swarm.eval_budget, swarm.v_max
        self.evals = swarm.eval_count
        self.last_improve_eval = swarm.last_improve_eval
        self.pos = swarm.positions.copy()
        self.vel = swarm.velocities.copy()
        self.pbest_pos = swarm.pbest_pos.copy()
        self.pbest_fit = swarm.pbest_fit.copy()
        self.gbest_pos = swarm.gbest_pos.copy()
        self.gbest_fit = swarm.gbest_fit
        self.stall = swarm.stall.copy()
        self.exemplar = swarm.exemplar.copy()
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = swarm.rng.bit_generator.state
        self.exemplar_rng = np.random.default_rng()
        self.exemplar_rng.bit_generator.state = swarm.exemplar_rng.bit_generator.state
        self.clamped_v = self.clamped_x = self.mutations = self.reassigned = 0
        self.early_gbest = self.most_gbest_moves = 0
        self.read_improved = self.early_mutations = 0
        self.cut_short = False

    def _group(self, i):
        return min(i // (self.n // SUBGROUPS), SUBGROUPS - 1)

    def _target(self, i):
        return self.pbest_pos[self.exemplar[i], np.arange(self.dim)]

    def _land(self, i, x, v):
        low, high = x < self.obj.lower, x > self.obj.upper
        self.clamped_x += int(np.any(low | high))
        x[low] = self.obj.lower
        x[high] = self.obj.upper
        v[low | high] = 0.0
        self.pos[i], self.vel[i] = x, v
        self.evals += 1
        return self.obj.evaluate(x)

    def _clip(self, v):
        self.clamped_v += int(np.any(np.abs(v) > self.v_max))
        return np.clip(v, -self.v_max, self.v_max)

    def _record(self, i, fit, m=None):
        improved = fit < self.pbest_fit[i]
        if improved:
            self.pbest_fit[i] = fit
            self.pbest_pos[i] = self.pos[i]
            if m is not None:
                self.read_improved += int(np.any(self.exemplar[i + 1:self._last + 1] == i))
        if fit < self.gbest_fit:
            self.gbest_fit = fit
            self.gbest_pos = self.pos[i].copy()
            self.early_gbest += int(i < self._last)
            self._gbest_moves += 1
        if m is not None and not improved:
            self.stall[i] += 1
            if self.stall[i] > m:
                self.exemplar[i] = _oracle_assign(self.exemplar_rng, self.n, self.dim, i,
                                                  self.pbest_fit)
                self.stall[i] = 0
                self.reassigned += 1

    def step(self, variant, coeffs, m=7):
        start = self.gbest_fit
        self._last = min(self.n, self.budget - self.evals) - 1
        self._gbest_moves = 0
        if variant == "rlpso":
            rows = [self.rng.random(3 * self.dim + 1) for _ in range(self._last + 1)]
        for i in range(self.n):
            if self.evals >= self.budget:
                self.cut_short = True
                break
            x = self.pos[i]
            w, c1, c2, c3, c4 = coeffs[self._group(i)]
            if variant == "clpso":
                r = self.rng.random(self.dim)
                v = self._clip(w * self.vel[i] + c1 * r * (self._target(i) - x))
                self._record(i, self._land(i, x + v, v), m)
                continue
            if variant == "pso":
                r1 = self.rng.random(self.dim)
                r2 = self.rng.random(self.dim)
                v = w * self.vel[i] + c1 * r1 * (self.pbest_pos[i] - x) \
                    + c2 * r2 * (self.gbest_pos - x)
                v = self._clip(v)
                self._record(i, self._land(i, x + v, v))
                continue
            r1, r2, r3 = np.split(rows[i][:-1], 3)
            r4 = rows[i][-1]
            v = w * self.vel[i] + c1 * r1 * (self._target(i) - x) \
                + c2 * r2 * (self.gbest_pos - x) + c3 * r3 * (self.pbest_pos[i] - x)
            v = self._clip(v)
            if r4 < c4 * 0.01 * self.stall[i]:
                self.mutations += 1
                self.early_mutations += int(i < self._last)
                x = self.rng.uniform(self.obj.lower, self.obj.upper, self.dim)
                fit = self._land(i, x, np.zeros(self.dim))
            else:
                fit = self._land(i, x + v, v)
            self._record(i, fit, m)
        self.most_gbest_moves = max(self.most_gbest_moves, self._gbest_moves)
        improved = self.gbest_fit < start
        if improved:
            self.last_improve_eval = self.evals
        return improved


# five subgroups with distinct coefficients; w > 1 and large c's force clamping
STRESS_COEFFS = [
    (1.4, 2.5, 0.5, 0.3, 0.0),
    (0.9, 0.4, 2.8, 1.7, 0.4),
    (1.2, 1.9, 1.9, 0.0, 1.0),
    (0.3, 3.0, 1.1, 2.2, 0.7),
    (1.7, 0.8, 2.2, 0.9, 1.0),
]


class TestDrawOrderOracle:
    """10 particles in 5 subgroups at 4-D: velocities that clamp, positions
    that leave the box, and a budget that ends inside the fourth iteration.
    After every step the state and the generator must match the oracle bit
    for bit, so a step that draws more or fewer numbers fails even when its
    positions happen to agree."""

    N, DIM, STEPS, TAIL = 10, 4, 4, 6

    def _swarm(self, variant, seed, stale_gbest=False, cls=Swarm):
        budget = self.N * self.STEPS + self.TAIL
        swarm = cls(make_objective("rastrigin_rot", self.DIM, seed), self.N, budget,
                    seed=seed, variant=variant)
        # every other particle sits near a wall, flying outwards at full speed
        side = np.where(swarm.positions[::2] < 0.0, -1.0, 1.0)
        swarm.positions[::2] = 97.0 * side
        swarm.velocities[::2] = swarm.v_max * side
        swarm.stall[:] = [100, 0, 100, 40, 100, 7, 100, 3, 100, 60]
        if stale_gbest:
            # gbest starts at the worst pbest, so it moves before an
            # iteration's last particle and the particles after it must see that
            worst = int(np.argmax(swarm.pbest_fit))
            swarm.gbest_fit = float(swarm.pbest_fit[worst])
            swarm.gbest_pos = swarm.pbest_pos[worst].copy()
        return swarm

    def _assert_same(self, swarm, oracle):
        assert np.array_equal(swarm.positions, oracle.pos)
        assert np.array_equal(swarm.velocities, oracle.vel)
        assert np.array_equal(swarm.pbest_pos, oracle.pbest_pos)
        assert np.array_equal(swarm.pbest_fit, oracle.pbest_fit)
        assert np.array_equal(swarm.gbest_pos, oracle.gbest_pos)
        assert swarm.gbest_fit == oracle.gbest_fit
        assert np.array_equal(swarm.stall, oracle.stall)
        assert np.array_equal(swarm.exemplar, oracle.exemplar)
        assert swarm.eval_count == oracle.evals
        assert swarm.last_improve_eval == oracle.last_improve_eval
        assert swarm.rng.bit_generator.state == oracle.rng.bit_generator.state
        assert swarm.exemplar_rng.bit_generator.state == oracle.exemplar_rng.bit_generator.state

    def _run(self, variant, seed, step, coeffs, stale_gbest=False):
        swarm = self._swarm(variant, seed, stale_gbest)
        oracle = _Oracle(swarm)
        for _ in range(self.STEPS):
            expected = oracle.step(variant, coeffs)
            assert step(swarm) == expected
            self._assert_same(swarm, oracle)
        assert swarm.eval_count == swarm.eval_budget
        assert oracle.cut_short and oracle.clamped_v and oracle.clamped_x
        return oracle

    @pytest.mark.parametrize("seed", [31, 32])
    def test_pso(self, seed):
        oracle = self._run("pso", seed, lambda s: s.step(STRESS_COEFFS), STRESS_COEFFS,
                           stale_gbest=True)
        assert oracle.early_gbest >= 1

    def test_pso_gbest_moves_within_iterations(self):
        """40 particles on 10-D sphere for 15 iterations: gbest improves
        before the last particle, and twice within one iteration, so every
        later particle of those iterations must steer by the new gbest."""
        coeffs = CONSTANT_TABLE
        swarm = Swarm(make_objective("sphere", 10, 4), 40, 40 * 16, seed=4)
        oracle = _Oracle(swarm)
        for _ in range(15):
            assert swarm.step(coeffs) == oracle.step("pso", coeffs)
            self._assert_same(swarm, oracle)
        assert oracle.early_gbest >= 1 and oracle.most_gbest_moves >= 2

    @pytest.mark.parametrize("seed", [33, 34])
    def test_clpso(self, seed):
        oracle = self._run("clpso", seed, lambda s: s.step(STRESS_COEFFS),
                           STRESS_COEFFS)
        assert oracle.reassigned

    @pytest.mark.parametrize("seed", [35, 36])
    def test_rlpso(self, seed):
        oracle = self._run("rlpso", seed, lambda s: s.step(STRESS_COEFFS),
                           STRESS_COEFFS)
        assert oracle.mutations and oracle.reassigned

    @pytest.mark.parametrize("variant, seed", [("pso", 31), ("clpso", 33), ("rlpso", 35)])
    def test_landing_a_tail_again_changes_no_bit(self, variant, seed):
        """A particle whose targets did not move lands again from the same
        start position, velocity, draws and targets, so a swarm whose every
        record reports a moved target ends bit-identical to the plain one."""

        class AlwaysStale(Swarm):
            def _record(self, j):
                super()._record(j)
                return True

        plain, stale = (self._swarm(variant, seed, stale_gbest=variant == "pso", cls=cls)
                        for cls in (Swarm, AlwaysStale))
        oracle = _Oracle(plain)
        curves = [], []
        for _ in range(self.STEPS):
            oracle.step(variant, STRESS_COEFFS)
            for swarm, curve in zip((plain, stale), curves):
                curve.append((swarm.step(STRESS_COEFFS), swarm.eval_count, swarm.gbest_fit))
        assert curves[0] == curves[1]
        for name in ("positions", "velocities", "pbest_pos", "pbest_fit", "gbest_pos",
                     "stall", "exemplar"):
            assert np.array_equal(getattr(stale, name), getattr(plain, name)), name
        for name in ("rng", "exemplar_rng"):
            assert getattr(stale, name).bit_generator.state == \
                getattr(plain, name).bit_generator.state
        assert oracle.cut_short and (variant != "rlpso" or oracle.early_mutations)

    @pytest.mark.parametrize("variant, stale_gbest",
                             [("clpso", False), ("rlpso", False), ("rlpso", True)])
    def test_exemplar_steps_at_40_particles(self, variant, stale_gbest):
        """40 particles on 10-D rastrigin for 15 iterations, with stall counts
        that make reassignment candidates from the first iteration on: pbest
        improvements that later exemplar rows read, reassignments, and for
        rlpso mutations before the last particle and early gbest moves."""
        swarm = Swarm(make_objective("rastrigin", 10, 5), 40, 40 * 16, seed=6,
                      variant=variant)
        swarm.stall[:] = np.arange(40) % 9
        if stale_gbest:
            worst = int(np.argmax(swarm.pbest_fit))
            swarm.gbest_fit = float(swarm.pbest_fit[worst])
            swarm.gbest_pos = swarm.pbest_pos[worst].copy()
        coeffs = const_coeffs(0.729, 1.494, 1.494, c3=1.0, c4=1.0)
        oracle = _Oracle(swarm)
        for _ in range(15):
            expected = oracle.step(variant, coeffs)
            assert swarm.step(coeffs) == expected
            self._assert_same(swarm, oracle)
        assert oracle.read_improved >= 1 and oracle.reassigned >= 1
        if variant == "rlpso":
            assert oracle.early_mutations >= 1 and oracle.early_gbest >= 1


class TestRecordContract:
    """``_record(j)`` reports whether particle j's record moved a target a
    later particle reads, which is when the step lands the tail again."""

    @pytest.mark.parametrize("variant, to_gbest, named, moved", [
        ("pso", True, False, True),  # a gbest move, and the gbest is a target
        ("clpso", True, False, False),  # a gbest move, and the gbest is no target
        ("clpso", False, True, True),  # a pbest improvement a later row names
        ("clpso", False, False, False),  # a pbest improvement no row names
    ])
    def test_reports_a_moved_target_a_later_particle_reads(self, variant, to_gbest, named,
                                                            moved):
        swarm = Swarm(flat_objective(3), 6, 100, seed=4, variant=variant)
        swarm.exemplar[:] = np.arange(6)[:, None]  # every row names its own particle
        if named:
            swarm.exemplar[4, 1] = 2
        start_gbest, start_pbest = swarm.gbest_fit, swarm.pbest_fit[2]
        swarm.positions[2] = 0.0 if to_gbest else 0.9 * swarm.pbest_pos[2]
        assert swarm._record(2) is moved
        assert swarm.pbest_fit[2] < start_pbest
        assert (swarm.gbest_fit < start_gbest) == to_gbest


class TestTwoGenerators:
    """Exemplar rows come from ``exemplar_rng`` alone, the velocity terms and
    mutants from ``rng`` alone, so neither stream shifts the other."""

    def test_pso_never_draws_from_the_exemplar_generator(self):
        swarm = Swarm(make_objective("rastrigin", 4, 1), 10, 200, seed=7)
        untouched = _exemplar_rng(7).bit_generator.state
        assert swarm.exemplar_rng.bit_generator.state == untouched
        while swarm.eval_count < swarm.eval_budget:
            swarm.step(STRESS_COEFFS)
            assert swarm.exemplar_rng.bit_generator.state == untouched

    def test_exemplar_draws_leave_the_velocity_stream_alone(self):
        obj = make_objective("rastrigin", 4, 2)
        a, b = (Swarm(obj, 10, 400, seed=8, variant="clpso") for _ in range(2))
        b.exemplar_rng = _exemplar_rng(9)
        for swarm in (a, b):
            swarm.stall[:] = 100  # every record without improvement reassigns
        coeffs = const_coeffs(0.7, 1.5, 0.0, groups=5)
        while a.eval_count < a.eval_budget:
            a.step(coeffs)
            b.step(coeffs)
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert not np.array_equal(a.exemplar, b.exemplar)


class TestSchedules:
    def test_linear_w_endpoints(self):
        assert schedule_table("linear_dec_w", 0, 100)[:, 0] == pytest.approx(0.9)
        assert schedule_table("linear_dec_w", 100, 100)[:, 0] == pytest.approx(0.4)

    def test_tvac_midpoint_crossover(self):
        table = schedule_table("tvac", 50, 100)
        assert table[:, 1] == pytest.approx(1.5)
        assert table[:, 2] == pytest.approx(1.5)

    def test_tvac_endpoints(self):
        start, end = schedule_table("tvac", 0, 200), schedule_table("tvac", 200, 200)
        assert start[:, 1:3].tolist() == [[2.5, 0.5]] * 5
        assert end[:, 1:3].tolist() == [[0.5, 2.5]] * 5

    def test_constant_values(self):
        table = schedule_table("constant", 17, 100)
        assert table[:, :3].tolist() == [[0.729, 1.494, 1.494]] * 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            schedule_table("exponential", 0, 10)

    def test_iteration_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            schedule_table("constant", 11, 10)

    def test_clpso_values(self):
        table = schedule_table("clpso", 25, 100)
        assert table[:, :2].tolist() == \
            [[schedule_table("linear_dec_w", 25, 100)[0, 0], 1.494]] * 5

    @pytest.mark.parametrize("kind", ["linear_dec_w", "clpso", "tvac"])
    def test_every_subgroup_gets_one_fresh_row(self, kind):
        table = schedule_table(kind, 3, 9)
        assert table.shape == (5, 5) and table.dtype == np.float64
        assert table.flags.writeable and table is not schedule_table(kind, 3, 9)
        assert (table == table[0]).all() and (table[:, 3:] == 0.0).all()

    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    def test_constant_table_is_shared_and_read_only(self, variant):
        schedule = Schedule("constant", "none")
        swarm = Swarm(make_objective("sphere", 3, 1), 10, 100, seed=1, variant=variant)
        table = schedule(swarm, 0, 8)
        assert not table.flags.writeable
        assert schedule(swarm, 8, 8) is table
        assert table is CONSTANT_TABLE
        assert np.array_equal(table, np.full((5, 5), (0.729, 1.494, 1.494, 0.0, 0.0)))
        drive(swarm, schedule)  # a step writing into its table would raise
        assert Schedule("constant", "other")(swarm, 0, 8) is table
        with pytest.raises(ValueError, match="outside"):
            schedule(swarm, 9, 8)


class TestStepTable:
    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    @pytest.mark.parametrize("rows", [4, 6])
    def test_wrong_row_count_refused(self, variant, rows):
        swarm = Swarm(make_objective("sphere", 2, 1), 10, 100, seed=1, variant=variant)
        before = swarm.positions.copy()
        with pytest.raises(ValueError, match=r"\(5, 5\) table"):
            swarm.step(np.array(const_coeffs(0.7, 1.5, 1.5, groups=rows)))
        assert swarm.eval_count == 10
        assert np.array_equal(swarm.positions, before)

    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    @pytest.mark.parametrize("column", range(5))
    def test_reads_exactly_its_columns(self, variant, column):
        """pso reads w, c1 and c2; clpso w and c1; rlpso all five.  The changed
        c4 fires the mutation gate for every stalled particle."""
        reads = {"pso": {0, 1, 2}, "clpso": {0, 1}, "rlpso": {0, 1, 2, 3, 4}}[variant]
        base = np.array(const_coeffs(0.729, 1.494, 1.494, c3=1.0, c4=0.0))
        changed = base.copy()
        changed[:, column] = 100.0 if column == 4 else base[:, column] + 0.25
        swarms = [Swarm(make_objective("rastrigin", 10, 3), 40, 10_000, seed=5,
                        variant=variant) for _ in range(2)]
        for _ in range(12):
            for swarm, table in zip(swarms, (base, changed)):
                swarm.step(table)
        same = np.array_equal(swarms[0].positions, swarms[1].positions)
        assert same == (column not in reads)
        if column == 4 and variant != "pso":
            assert swarms[0].stall.max() > 0


class TestDrive:
    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    def test_matches_a_hand_written_step_loop(self, variant):
        """45 evaluations on 10 particles: four iterations, t = 0..t_max, the
        last cut short after five particles."""
        obj = make_objective("rastrigin", 3, 21)
        swarm = Swarm(obj, 10, 45, seed=22, variant=variant)
        record = drive(swarm, Schedule("tvac", "tag"))

        mirror = Swarm(obj, 10, 45, seed=22, variant=variant)
        curve = [(10, mirror.gbest_fit)]
        for t in range(4):
            mirror.step(schedule_table("tvac", t, 3))
            curve.append((mirror.eval_count, mirror.gbest_fit))
        assert record.curve == curve
        assert curve[-1][0] == 45
        assert np.array_equal(swarm.positions, mirror.positions)
        assert (record.function, record.dim, record.seed, record.variant, record.adapter) == \
            ("rastrigin", 3, 22, variant, "tag")
        assert record.final_fit == curve[-1][1]

    def test_controller_and_hook_calls(self):
        calls = []

        class Recorder:
            adapter = "rec"

            def __call__(self, swarm, t, t_max):
                calls.append(("control", t, t_max, swarm.eval_count))
                return const_coeffs(0.7, 1.5, 1.5, groups=5)

        swarm = Swarm(make_objective("sphere", 2, 23), 10, 40, seed=24)
        record = drive(swarm, Recorder(),
                       lambda s, prev: calls.append(("step", s.eval_count, prev)))
        fits = [fit for _, fit in record.curve]
        assert calls == [
            ("control", 0, 3, 10), ("step", 20, fits[0]),
            ("control", 1, 3, 20), ("step", 30, fits[1]),
            ("control", 2, 3, 30), ("step", 40, fits[2]),
        ]


class TestLearningProbability:
    def test_first_particle_exact(self):
        assert learning_probability(0, 40) == 0.05

    def test_last_particle_exact(self):
        assert learning_probability(39, 40) == 0.5

    def test_two_particle_edge(self):
        assert learning_probability(0, 2) == 0.05
        assert learning_probability(1, 2) == 0.5

    def test_forced_high_draw_keeps_own_dimensions(self):
        swarm = Swarm(flat_objective(4), 5, 1000, seed=1,
                      variant="clpso")
        swarm.pbest_fit = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # u0 >= Pc for every dimension: the all-own fallback makes the
        # smallest draw, dimension 2, learn; its rivals are particles 0 and 1
        swarm.exemplar_rng = ScriptedRng(randoms=[0.99, 0.99, 0.97, 0.99]
                                         + [0.5, 0.5, 0.0, 0.5] + [0.5, 0.5, 0.0, 0.5])
        row = swarm.assign_exemplar(2)
        assert list(row) == [2, 2, 0, 2]

    def test_forced_low_draw_always_tournaments(self):
        swarm = Swarm(flat_objective(2), 5, 1000, seed=1,
                      variant="clpso")
        swarm.pbest_fit = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        swarm.exemplar_rng = ScriptedRng(randoms=[0.0, 0.0] + [0.0, 0.9] + [0.0, 0.0])
        row = swarm.assign_exemplar(0)
        # first dim: candidates 1 and 2 -> 2 wins; second dim: candidates 4, 1 -> 4
        assert list(row) == [2, 4]


class TestSwarmInvariants:
    @pytest.mark.parametrize("variant", ["pso", "clpso", "rlpso"])
    def test_monotone_elitism_and_bounds(self, variant, rng):
        obj = make_objective("rastrigin", 4, 10)
        swarm = Swarm(obj, 10, 2000, seed=14, variant=variant)
        best = swarm.gbest_fit
        while swarm.eval_count < swarm.eval_budget:
            w, c1, c2 = rng.uniform(0.1, 0.9), rng.uniform(0, 3), rng.uniform(0, 3)
            extra = (dict(c3=rng.uniform(0, 2), c4=rng.uniform(0, 1)) if variant == "rlpso"
                     else {})
            swarm.step(const_coeffs(w, c1, c2, **extra, groups=5))
            assert swarm.gbest_fit <= best
            best = swarm.gbest_fit
            assert np.all(swarm.positions >= obj.lower)
            assert np.all(swarm.positions <= obj.upper)
            assert np.all(np.abs(swarm.velocities) <= swarm.v_max)
        assert swarm.gbest_fit == swarm.pbest_fit.min()

    def test_budget_honesty_counts_every_evaluation(self):
        coeffs = const_coeffs(0.7, 1.5, 1.5, c3=1.0, c4=1.0)
        for variant in ("pso", "clpso", "rlpso"):
            obj = CountingObjective(make_objective("sphere", 3, 11))
            swarm = Swarm(obj, 8, 100, seed=15, variant=variant)
            while swarm.eval_count < swarm.eval_budget:
                swarm.step(coeffs)
            assert swarm.eval_count == 100
            assert obj.calls == 100
            with pytest.raises(BudgetExhaustedError):
                swarm.step(coeffs)

    def test_pbest_consistent_with_positions(self):
        obj = make_objective("griewank", 3, 12)
        swarm = Swarm(obj, 8, 400, seed=16)
        for _ in range(5):
            swarm.step(const_coeffs(0.7, 1.5, 1.5))
        for i in range(swarm.n):
            assert swarm.pbest_fit[i] == obj.evaluate(swarm.pbest_pos[i])

    def test_fixed_seed_and_coefficients_reproduce_bitwise(self):
        obj = make_objective("ackley", 3, 13)
        runs = []
        for _ in range(2):
            swarm = Swarm(obj, 8, 400, seed=17)
            trace = [swarm.gbest_fit]
            for t in range(10):
                swarm.step(const_coeffs(0.9 - 0.05 * t, 1.2, 1.8))
                trace.append(swarm.gbest_fit)
            runs.append((trace, swarm.positions.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_degenerate_coefficients_freeze_positions(self):
        swarm = Swarm(flat_objective(3), 6, 1000, seed=18)
        swarm.step(const_coeffs(0.0, 0.0, 0.0))
        assert np.array_equal(swarm.velocities, np.zeros_like(swarm.velocities))
        frozen = swarm.positions.copy()
        swarm.step(const_coeffs(0.0, 0.0, 0.0))
        assert np.array_equal(swarm.positions, frozen)

    def test_subgroup_partition_is_contiguous_with_remainder_last(self):
        swarm = Swarm(flat_objective(2), 43, 1000, seed=19)
        groups = swarm._group.tolist()
        assert groups == sorted(groups)
        sizes = [groups.count(g) for g in range(5)]
        assert sizes == [8, 8, 8, 8, 11]
