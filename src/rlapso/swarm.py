"""Particle swarm state, its one velocity rule, and the one loop that runs a swarm.

Three variants share one ``Swarm`` and one step, and differ in what pulls a
particle, ``TARGETS``: the classic update is pulled by the particle's own
pbest and the gbest, the comprehensive-learning update by its per-dimension
exemplar, and the RLPSO update by the exemplar, the gbest and its own pbest,
followed by a stall-gated position mutation.  ``Swarm.step`` runs the
swarm's own variant.

Controller contract: ``drive`` is the one loop that runs a swarm to its
budget.  Per iteration it calls ``controller(swarm, t, t_max)`` once, steps,
appends (eval_count, gbest) to the curve, then calls ``on_step(swarm,
prev_best)`` if given.  The controller returns a float64 coefficient table
of shape ``(SUBGROUPS, 5)``, one row per subgroup with columns ``w, c1,
c2, c3, c4``, never draws from the swarm's generators, and its ``adapter``
attribute tags the run's record; 0 <= t <= t_max = max(1, budget // n - 1).
``Schedule`` runs the offline schedules, ``ddpg.PolicyController`` a
trained policy.  The table is all a step takes, and each particle reads its
own subgroup's row: w, and column m + 1 for its m-th target, so PSO reads
w, c1 and c2, CLPSO w and c1, and RLPSO, whose mutation gate reads c4, all
five.

Determinism contract: all randomness flows through two generators per
swarm, each drawn in a fixed documented order, so a test oracle holding
identically seeded generators can replay a run bit-exactly.  ``self.rng =
default_rng(seed)`` draws the positions and velocities at initialization,
as single ``(n, dim)`` uniform blocks, and then each iteration's draws as
one block ``r = rng.random((k, T * dim + M))``, where k is the number of
particles the budget still covers, T the number of targets and M is 1 for
RLPSO's mutation draw, else 0: particle i's draws for its m-th target are
``r[i, m * dim:(m + 1) * dim]`` and its mutation draw is ``r[i, T * dim]``.
RLPSO follows it with ``rng.uniform(lower, upper, (f, dim))`` for the f
particles whose mutation gate ``r[i, T * dim] < (c4 * 0.01) * stall`` fires,
in index order.  ``self.exemplar_rng = default_rng(SeedSequence(seed,
spawn_key=(0,)))`` draws every exemplar row, one ``random((3, dim))`` block
each (see ``assign_exemplar``): at initialization particle by particle, then
whenever a particle's stall count passes the refreshing gap
(``REFRESH_GAP``, CLPSO's m = 7) after its record.  A variant without an
exemplar target never draws from it.  The stall count a gate reads changes
only at the particle's own record, so every gate is known once the block is
drawn.

The step lands the k particles at once (velocity, speed clamp, position,
bound clamp), then gives each its turn, ``_record``, in index order
(initialization records through it too).  A record that moves a target a
later particle reads makes the tail stale, and the tail lands again, from the
iteration's start positions, before the next turn.  Particle i's velocity
reads its own position, velocity and pbest, which nothing changes before its
turn, and its other targets at its turn: the gbest, and the pbests its
exemplar row names; exemplar rows change only at reassignment, after the
particle's own record.  So a record makes the tail stale exactly when it
moves the gbest where the gbest is a target, or improves a pbest that a later
exemplar row names.  A re-landed particle whose targets did not move gets the
same bits.  A mutated particle reads no target: it lands at its mutant with a
zero velocity whenever it is landed.

Every update performs the per-particle form's operations with its
association: the terms ``(c*r)*(t - x)``, one per target t in ``TARGETS``
order, add onto ``w*v`` from left to right, so PSO computes ``(w*v +
(c1*r1)*(p - x)) + (c2*r2)*(g - x)``.  Results are bit-identical to that
form, which the tests replay.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import Objective

V_MAX_FRACTION = 0.2
SUBGROUPS = 5  # one coefficient row per subgroup; the actor's output width fixes it
REFRESH_GAP = 7  # CLPSO's refreshing gap m
# what pulls each variant's particles, in the order their velocity terms add up
TARGETS = {"pso": ("pbest", "gbest"), "clpso": ("exemplar",),
           "rlpso": ("exemplar", "gbest", "pbest")}


class BudgetExhaustedError(RuntimeError):
    """Raised when a step is requested but no evaluations remain."""


@dataclass
class RunRecord:
    """One optimization run: a convergence curve plus its final best value.

    ``curve`` holds (eval_count, gbest_fit) pairs, the first taken right
    after initialization and then one per iteration; the gbest column is
    non-increasing and ``final_fit`` equals its last entry.
    """

    function: str
    dim: int
    seed: int
    variant: str
    adapter: str
    curve: list = field(default_factory=list)
    final_fit: float = float("inf")


# the constant schedule's table, also the origin that relative-mode policies perturb
CONSTANT_TABLE = np.full((SUBGROUPS, 5), (0.729, 1.494, 1.494, 0.0, 0.0))
CONSTANT_TABLE.flags.writeable = False


@dataclass(frozen=True)
class Schedule:
    """Controller that gives every subgroup one offline schedule's row: constant
    (the shared read-only ``CONSTANT_TABLE``), linearly decreasing w, TVAC, or
    CLPSO's linearly decreasing w with its single acceleration coefficient."""

    kind: str
    adapter: str

    def __call__(self, swarm: Swarm, t: int, t_max: int) -> np.ndarray:
        if not 0 <= t <= max(t_max, 1):
            raise ValueError(f"iteration {t} outside [0, {t_max}]")
        span = max(t_max, 1)
        if self.kind == "constant":
            return CONSTANT_TABLE
        w = (span - t) / span * (0.9 - 0.4) + 0.4
        if self.kind == "linear_dec_w":
            row = (w, 2.0, 2.0)
        elif self.kind == "clpso":
            row = (w, 1.494, 0.0)
        elif self.kind == "tvac":
            c1 = (0.5 - 2.5) * (t / span) + 2.5
            c2 = (2.5 - 0.5) * (t / span) + 0.5
            row = (w, c1, c2)
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        return np.full((SUBGROUPS, 5), (*row, 0.0, 0.0))


def learning_probability(i: int, n: int) -> float:
    """Per-particle exemplar-learning probability, 0.05 for the first particle
    up to 0.5 for the last (i is a 0-based index)."""
    return 0.05 + 0.45 * (np.expm1(10.0 * i / (n - 1)) / np.expm1(10.0))


class Swarm:
    """Mutable single-threaded swarm over one objective.

    Independent swarms may run concurrently; one swarm must never be shared
    mutably across threads.
    """

    def __init__(self, objective: Objective, n: int, budget: int, seed: int, variant: str = "pso"):
        if variant not in TARGETS:
            raise ValueError(f"unknown variant {variant!r}")
        if n < SUBGROUPS:
            raise ValueError(f"need at least {SUBGROUPS} particles, got {n}")
        if budget < n:
            raise ValueError(f"budget {budget} cannot cover initialization of {n} particles")
        self.objective = objective
        self.n = n
        self.dim = objective.dim
        self.eval_budget = budget
        self.variant = variant
        self._targets = TARGETS[variant]
        self._follows_gbest = "gbest" in self._targets
        self._reads_exemplars = "exemplar" in self._targets
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.exemplar_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        self.v_max = V_MAX_FRACTION * (objective.upper - objective.lower)
        # contiguous subgroups of n // SUBGROUPS, the remainder joining the last
        self._group = np.minimum(np.arange(n) // (n // SUBGROUPS), SUBGROUPS - 1)
        self._dims = np.arange(self.dim)

        self.positions = self.rng.uniform(objective.lower, objective.upper, (n, self.dim))
        self.velocities = self.rng.uniform(-self.v_max, self.v_max, (n, self.dim))
        self.pbest_pos = self.positions.copy()
        self.pbest_fit = np.full(n, np.inf)
        self.gbest_fit = np.inf
        self.eval_count = 0
        self.stall = np.zeros(n, dtype=int)
        self.exemplar = np.tile(np.arange(n)[:, None], (1, self.dim))
        for i in range(n):  # every first record improves, so none counts a stall
            self._record(i)
        if not np.isfinite(self.pbest_fit).any():
            raise ValueError(f"the objective returned no finite value at any of the "
                             f"{n} initial positions")
        self.last_improve_eval = n
        if self._reads_exemplars:
            for i in range(n):
                self.assign_exemplar(i)

    # -- exemplar machinery -------------------------------------------------

    def assign_exemplar(self, i: int) -> np.ndarray:
        """Redraw particle i's per-dimension exemplar row and reset its stall count.

        One ``exemplar_rng.random((3, dim))`` block ``u``: dimension d learns
        when ``u[0, d] < Pc(i)`` (if none does, the one with the smallest
        draw does), and a learning dimension takes the better pbest of two
        rivals, ``floor(u[1, d] * (n - 1))`` counting past i and ``floor(u[2, d]
        * (n - 2))`` counting past i and the first."""
        u = self.exemplar_rng.random((3, self.dim))
        learn = u[0] < learning_probability(i, self.n)
        if not learn.any():
            learn[u[0].argmin()] = True
        j1 = (u[1] * (self.n - 1)).astype(int)
        j1 += j1 >= i
        j2 = (u[2] * (self.n - 2)).astype(int)
        lo, hi = np.minimum(j1, i), np.maximum(j1, i)
        j2 += j2 >= lo
        j2 += j2 >= hi
        fit = self.pbest_fit
        row = np.where(learn, np.where(fit[j1] < fit[j2], j1, j2), i)
        self.exemplar[i] = row
        self.stall[i] = 0
        return row

    # -- the step -------------------------------------------------------------

    def _record(self, j: int) -> bool:
        """Particle j's turn: evaluate it, update its pbest and, independently,
        the gbest, and where the exemplar is a target count a stall if the
        pbest did not improve, redrawing the exemplar row past the refreshing
        gap.  Returns whether it moved a target a later particle reads: the
        gbest where the gbest is a target, or j's pbest where a later exemplar
        row names j."""
        x = self.positions[j]
        fit = self.objective.evaluate(x)
        self.eval_count += 1
        improved = fit < self.pbest_fit[j]
        if improved:
            self.pbest_fit[j] = fit
            self.pbest_pos[j] = x
        moved = False
        if fit < self.gbest_fit:
            self.gbest_fit = fit
            self.gbest_pos = x.copy()
            moved = self._follows_gbest
        if not self._reads_exemplars:
            return moved
        if improved:
            return moved or bool((self.exemplar[j + 1:] == j).any())
        self.stall[j] += 1
        if self.stall[j] > REFRESH_GAP:
            self.assign_exemplar(j)
        return moved

    def step(self, coeffs) -> bool:
        """One iteration of this swarm's variant; returns whether gbest improved.

        ``pso_step``, ``clpso_step`` and ``rlpso_step`` are all ``_step``, but
        the variant's name is looked up on every call, so a wrapper put on one
        of them (as the tracer does) counts that variant's steps apart."""
        return getattr(self, f"{self.variant}_step")(coeffs)

    def _step(self, coeffs) -> bool:
        """One iteration of the swarm's velocity rule (see the module
        docstring) with ``coeffs``, a float64 table of one row per subgroup;
        returns whether the global best improved.

        ``land(s)`` lands particles ``s`` and reads each target where they
        land: the pbest as ``pbest_pos[s]``, the gbest as ``gbest_pos`` and
        the exemplar as the pbests ``exemplar[s]`` names; the tail ``j..k-1``
        lands first and after every stale record.  Evaluation stops
        mid-iteration if the budget runs out (remaining particles are left
        untouched).
        """
        table = np.asarray(coeffs, dtype=float)
        if table.shape != (SUBGROUPS, 5):
            raise ValueError(f"expected {SUBGROUPS} coefficient sets as a "
                             f"({SUBGROUPS}, 5) table, got shape {table.shape}")
        if self.eval_count >= self.eval_budget:
            raise BudgetExhaustedError(f"evaluation budget {self.eval_budget} exhausted "
                                       f"(eval_count={self.eval_count})")
        k = min(self.n, self.eval_budget - self.eval_count)
        rows, x0 = table[self._group[:k]], self.positions[:k].copy()
        wv = rows[:, 0:1] * self.velocities[:k]
        d, targets = self.dim, self._targets
        lower, upper = self.objective.lower, self.objective.upper
        mutates = self.variant == "rlpso"
        r = self.rng.random((k, len(targets) * d + mutates))
        if mutates:
            fired = r[:, -1] < (rows[:, 4] * 0.01) * self.stall[:k]
            if fired.any():
                x0[fired] = self.rng.uniform(lower, upper, (int(fired.sum()), d))
        crs = r[:, :len(targets) * d].reshape(k, -1, d) * rows[:, 1:len(targets) + 1, None]

        def land(s):
            x, v, cr = x0[s], wv[s], crs[s]
            for m, target in enumerate(targets):
                if target == "pbest":
                    t = self.pbest_pos[s]
                elif target == "gbest":
                    t = self.gbest_pos
                else:
                    t = self.pbest_pos[self.exemplar[s], self._dims]
                v = v + cr[:, m] * (t - x)
            if mutates:
                v[fired[s]] = 0.0  # a zero velocity lands the in-box mutant exactly where drawn
            np.maximum(v, -self.v_max, out=v)
            np.minimum(v, self.v_max, out=v)
            x = x + v
            out = (x < lower) | (x > upper)
            if out.any():
                np.maximum(x, lower, out=x)
                np.minimum(x, upper, out=x)
                v[out] = 0.0
            self.positions[s] = x
            self.velocities[s] = v

        start_best = self.gbest_fit
        stale = True
        for j in range(k):
            if stale:
                land(slice(j, k))
            stale = self._record(j)
        if self.gbest_fit < start_best:
            self.last_improve_eval = self.eval_count
            return True
        return False

    pso_step = clpso_step = rlpso_step = _step


def drive(swarm: Swarm, controller, on_step=None) -> RunRecord:
    """Step ``swarm`` until its budget is spent, asking ``controller`` for each
    iteration's coefficients, and return the run's record (see the module
    docstring for the contract)."""
    record = RunRecord(swarm.objective.id, swarm.dim, swarm.seed, swarm.variant,
                       controller.adapter)
    record.curve.append((swarm.eval_count, swarm.gbest_fit))
    t_max = max(1, swarm.eval_budget // swarm.n - 1)
    t = 0
    while swarm.eval_count < swarm.eval_budget:
        prev_best = swarm.gbest_fit
        swarm.step(controller(swarm, t, t_max))
        record.curve.append((swarm.eval_count, swarm.gbest_fit))
        if on_step is not None:
            on_step(swarm, prev_best)
        t += 1
    record.final_fit = swarm.gbest_fit
    return record
