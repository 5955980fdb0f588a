"""Particle swarm state, update rules, and the one loop that runs a swarm.

Three step kinds share one ``Swarm``: the classic inertia/pbest/gbest update,
the comprehensive-learning update with per-dimension exemplars, and the
RLPSO update (exemplar + gbest + own-pbest terms with a stall-gated position
mutation).  ``Swarm.step`` runs the swarm's own kind.

Controller contract: ``drive`` is the one loop that runs a swarm to its
budget.  Per iteration it calls ``controller(swarm, t, t_max)`` once, steps,
appends (eval_count, gbest) to the curve, then calls ``on_step(swarm,
prev_best)`` if given.  The controller returns a float64 coefficient table
of shape ``(subgroup_count, 5)``, one row per subgroup with columns ``w, c1,
c2, c3, c4``, never draws from ``swarm.rng``, and its ``adapter`` attribute
tags the run's record; 0 <= t <= t_max = max(1, budget // n - 1).
``Schedule`` runs the offline schedules, ``ddpg.PolicyController`` a
trained policy.  The table is all that ``pso_step``, ``clpso_step`` and
``rlpso_step`` take: RLPSO alone reads c3 and c4, and CLPSO reads w and c1
from row 0 of the table it is given.

Determinism contract: all randomness flows through ``self.rng`` and is drawn
in a fixed documented order, so a test oracle holding an identically seeded
generator can replay a run bit-exactly.  Draw order per step, per particle in
index order: the uniform r-vectors for the velocity terms (r1[, r2[, r3]],
each ``rng.random(dim)``), then for RLPSO one scalar mutation draw and, when
it fires, one ``rng.uniform`` position redraw; exemplar reassignment draws
follow evaluation.  Initialization draws positions then velocities as single
``(n, dim)`` uniform blocks, then assigns exemplars particle by particle.

The steps take these numbers in fewer, larger draws that yield the same
stream, because ``rng.random`` fills its output in C order from one
sequence of doubles:

- PSO draws nothing between particles, so one ``rng.random((k, 2, dim))``
  per iteration, where k is the number of particles the budget still
  covers, gives particle i its r1 in ``[i, 0]`` and its r2 in ``[i, 1]``.
- CLPSO and RLPSO draw between particles: a particle whose stall count is
  at least the refreshing gap (``REFRESH_GAP``, CLPSO's m = 7) when the
  iteration starts may draw a new exemplar row right after its evaluation,
  and only its own record changes its stall count.  So their iterations
  split into segments that end at such a particle, and each segment draws
  its rows as one block, CLPSO ``rng.random((end - i, dim))`` and RLPSO
  ``rng.random((end - i, 3 * dim + 1))`` (r1, r2, r3 and the mutation draw
  per row).  Reassignment draws then follow the segment's block as they
  follow the particle's row.
- RLPSO's mutation gate ``r[3 * dim] < (c4 * 0.01) * stall`` is known once
  a block is drawn.  When it fires at particle f before the block's last
  row, the step restores the generator state saved before the block and
  draws rows i..f only, so that f's ``rng.uniform`` position draw follows
  its row.  The next segment starts at f + 1.

All three steps then run one loop, ``_land_in_order``: land a block of
particles at once (velocity, speed clamp, position, bound clamp), evaluate
and record them in index order, and land the rest of the block again,
from the iteration's start positions, after a record that made it stale.
Particle i's velocity reads its own position, velocity and pbest, which
nothing changes before its turn, and its targets at its turn: the gbest,
and the pbests its exemplar row names.  Exemplar rows change only at
reassignment, after the particle's own record.  So a record makes later
landings stale exactly when it moves one of their targets: a gbest move
(PSO, RLPSO), or a pbest improvement of particle j that a later particle's
exemplar row names (CLPSO, RLPSO).  A mutated particle reads no target and
is landed once.  In 10-D runs fewer than 2 % of updates move gbest and 5
to 25 % improve a pbest, and a segment lands about 1.1 times on average.

Every update performs the per-particle form's operations with its
association, ``(w*v + (c1*r1)*(p - x)) + (c2*r2)*(g - x)`` for PSO,
``w*v + (c*r)*(t - x)`` for CLPSO's exemplar target t and ``((w*v +
(c1*r1)*(t - x)) + (c2*r2)*(g - x)) + (c3*r3)*(p - x)`` for RLPSO, so
results are bit-identical to that form, which the tests replay.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .benchmarks import Objective

V_MAX_FRACTION = 0.2
DEFAULT_SUBGROUPS = 5
REFRESH_GAP = 7  # CLPSO's refreshing gap m


class BudgetExhaustedError(RuntimeError):
    """Raised when a step is requested but no evaluations remain."""


class CoefficientSet(NamedTuple):
    """One subgroup's row of a coefficient table (c3/c4 used by RLPSO only)."""

    w: float
    c1: float
    c2: float
    c3: float = 0.0
    c4: float = 0.0


# the constant schedule, also the origin that relative-mode policies perturb
CONSTANT_COEFFS = CoefficientSet(0.729, 1.494, 1.494)


def schedule_coeffs(kind: str, t: int, t_max: int) -> CoefficientSet:
    """Offline schedules: constant, linearly decreasing w, TVAC, or CLPSO's
    linearly decreasing w with its single acceleration coefficient."""
    if not 0 <= t <= max(t_max, 1):
        raise ValueError(f"iteration {t} outside [0, {t_max}]")
    span = max(t_max, 1)
    if kind == "constant":
        return CONSTANT_COEFFS
    w = (span - t) / span * (0.9 - 0.4) + 0.4
    if kind == "linear_dec_w":
        return CoefficientSet(w, 2.0, 2.0)
    if kind == "clpso":
        return CoefficientSet(w, 1.494, 0.0)
    if kind == "tvac":
        c1 = (0.5 - 2.5) * (t / span) + 2.5
        c2 = (2.5 - 0.5) * (t / span) + 0.5
        return CoefficientSet(w, c1, c2)
    raise ValueError(f"unknown schedule kind {kind!r}")


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


@dataclass(frozen=True)
class Schedule:
    """Controller that gives every subgroup one offline schedule's coefficients.

    The constant schedule returns one read-only table per subgroup count."""

    kind: str
    adapter: str
    _constant_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, swarm: Swarm, t: int, t_max: int) -> np.ndarray:
        coeffs = schedule_coeffs(self.kind, t, t_max)
        if self.kind != "constant":
            return np.full((swarm.subgroup_count, 5), coeffs)
        table = self._constant_tables.get(swarm.subgroup_count)
        if table is None:
            table = np.full((swarm.subgroup_count, 5), coeffs)
            table.flags.writeable = False
            self._constant_tables[swarm.subgroup_count] = table
        return table


def learning_probability(i: int, n: int) -> float:
    """Per-particle exemplar-learning probability, 0.05 for the first particle
    up to 0.5 for the last (i is a 0-based index)."""
    if n <= 1:
        return 0.05
    return 0.05 + 0.45 * (np.expm1(10.0 * i / (n - 1)) / np.expm1(10.0))


class Swarm:
    """Mutable single-threaded swarm over one objective.

    Independent swarms may run concurrently; one swarm must never be shared
    mutably across threads.
    """

    def __init__(self, objective: Objective, n: int, budget: int, seed: int,
                 variant: str = "pso", subgroup_count: int = DEFAULT_SUBGROUPS):
        if variant not in ("pso", "clpso", "rlpso"):
            raise ValueError(f"unknown variant {variant!r}")
        if n < subgroup_count:
            raise ValueError(f"need at least {subgroup_count} particles, got {n}")
        if variant != "pso" and n < 3:
            raise ValueError(f"the {variant} exemplar tournament needs at least 3 particles, "
                             f"got {n}")
        if budget < n:
            raise ValueError(f"budget {budget} cannot cover initialization of {n} particles")
        self.objective = objective
        self.n = n
        self.dim = objective.dim
        self.eval_budget = budget
        self.variant = variant
        self.seed = seed
        self.subgroup_count = subgroup_count
        self.rng = np.random.default_rng(seed)
        self.v_max = V_MAX_FRACTION * (objective.upper - objective.lower)
        # contiguous subgroups of n // subgroup_count, the remainder joining the last
        self._group = np.minimum(np.arange(n) // (n // subgroup_count), subgroup_count - 1)
        self._dims = np.arange(self.dim)

        self.positions = self.rng.uniform(objective.lower, objective.upper, (n, self.dim))
        self.velocities = self.rng.uniform(-self.v_max, self.v_max, (n, self.dim))
        fits = np.array([objective.evaluate(p) for p in self.positions])
        self.pbest_pos = self.positions.copy()
        self.pbest_fit = fits
        g = int(np.argmin(fits))
        self.gbest_pos = self.positions[g].copy()
        self.gbest_fit = float(fits[g])
        self.eval_count = n
        self.last_improve_eval = n
        self.stall = np.zeros(n, dtype=int)
        self.exemplar = np.tile(np.arange(n)[:, None], (1, self.dim))
        if variant in ("clpso", "rlpso"):
            for i in range(n):
                self.assign_exemplar(i)

    # -- exemplar machinery -------------------------------------------------

    def _tournament_winner(self, i: int) -> int:
        # two distinct random particles != i; better pbest wins
        a = int(self.rng.integers(self.n - 1))
        j1 = a + (a >= i)
        b = int(self.rng.integers(self.n - 2))
        lo, hi = (i, j1) if i < j1 else (j1, i)
        j2 = b + (b >= lo)
        j2 = j2 + (j2 >= hi)
        return j1 if self.pbest_fit[j1] < self.pbest_fit[j2] else j2

    def assign_exemplar(self, i: int) -> np.ndarray:
        """Redraw particle i's per-dimension exemplar row and reset its stall count."""
        pc = learning_probability(i, self.n)
        row = np.empty(self.dim, dtype=int)
        for d in range(self.dim):
            if self.rng.random() >= pc:
                row[d] = i
            else:
                row[d] = self._tournament_winner(i)
        if np.all(row == i):
            # force at least one foreign dimension
            d0 = int(self.rng.integers(self.dim))
            a = int(self.rng.integers(self.n - 1))
            row[d0] = a + (a >= i)
        self.exemplar[i] = row
        self.stall[i] = 0
        return row

    def _exemplar_target(self, rows: slice) -> np.ndarray:
        return self.pbest_pos[self.exemplar[rows], self._dims]

    # -- shared step plumbing -----------------------------------------------

    def _begin(self, coeffs) -> tuple[np.ndarray, int, np.ndarray]:
        """Check an iteration's start: ``coeffs`` as a float64 table of one
        row per subgroup, then the budget.  Returns the table, the number k
        of particles the budget still covers and a copy of their positions."""
        table = np.asarray(coeffs, dtype=float)
        if table.shape != (self.subgroup_count, 5):
            raise ValueError(f"expected {self.subgroup_count} coefficient sets as a "
                             f"({self.subgroup_count}, 5) table, got shape {table.shape}")
        if self.eval_count >= self.eval_budget:
            raise BudgetExhaustedError(
                f"evaluation budget {self.eval_budget} exhausted (eval_count={self.eval_count})"
            )
        k = min(self.n, self.eval_budget - self.eval_count)
        return table, k, self.positions[:k].copy()

    def _fly(self, rows, x: np.ndarray, v: np.ndarray) -> None:
        """Clamp velocities ``v`` to the speed limit in place, then land the
        particles ``rows`` (an index or a slice) at positions ``x + v``,
        clamped to bounds with the clamped velocity components zeroed."""
        np.maximum(v, -self.v_max, out=v)
        np.minimum(v, self.v_max, out=v)
        x = x + v
        lower, upper = self.objective.lower, self.objective.upper
        out = (x < lower) | (x > upper)
        if out.any():
            np.maximum(x, lower, out=x)
            np.minimum(x, upper, out=x)
            v[out] = 0.0
        self.positions[rows] = x
        self.velocities[rows] = v

    def _record(self, i: int) -> bool:
        """Evaluate particle i where it landed and update its pbest and the
        gbest; returns whether its pbest improved."""
        x = self.positions[i]
        fit = self.objective.evaluate(x)
        self.eval_count += 1
        improved = fit < self.pbest_fit[i]
        if improved:
            self.pbest_fit[i] = fit
            self.pbest_pos[i] = x
        if fit < self.gbest_fit:
            self.gbest_fit = fit
            self.gbest_pos = x.copy()
        return improved

    def _finish_iteration(self, start_best: float) -> bool:
        improved = self.gbest_fit < start_best
        if improved:
            self.last_improve_eval = self.eval_count
        return improved

    def _land_in_order(self, lo: int, hi: int, land, stale) -> None:
        """Land particles lo..hi-1 as one block with ``land(lo, hi)``, then
        evaluate and record them in index order.  After particle j's record,
        ``stale(j, improved, moved)`` (``improved``: j's pbest improved;
        ``moved``: gbest fell since the last landing) says whether it made the
        landings of j+1..hi-1 stale; those are landed again with
        ``land(j + 1, hi)`` before recording goes on."""
        i = lo
        while i < hi:
            best_at_landing = self.gbest_fit
            land(i, hi)
            while i < hi:
                improved = self._record(i)
                i += 1
                if stale(i - 1, improved, self.gbest_fit < best_at_landing):
                    break

    def _refresh(self, j: int, improved: bool, hi: int) -> bool:
        """Exemplar bookkeeping after particle j's record: a stalled particle
        counts the stall and, past the refreshing gap, draws a new exemplar
        row; an improved one returns whether the exemplar row of any of
        particles j+1..hi-1 names j."""
        if improved:
            return bool((self.exemplar[j + 1:hi] == j).any())
        self.stall[j] += 1
        if self.stall[j] > REFRESH_GAP:
            self.assign_exemplar(j)
        return False

    def _stops(self, k: int) -> list:
        """Segment ends for an iteration over k particles: one past each
        particle that may draw a new exemplar row after its record (its stall
        count is at least the refreshing gap now, and only its own record
        changes it), then k."""
        return (np.flatnonzero(self.stall[:k - 1] >= REFRESH_GAP) + 1).tolist() + [k]

    # -- step variants ------------------------------------------------------

    def step(self, coeffs) -> bool:
        """One iteration of this swarm's variant; returns whether gbest improved."""
        if self.variant == "pso":
            return self.pso_step(coeffs)
        if self.variant == "clpso":
            return self.clpso_step(coeffs)
        return self.rlpso_step(coeffs)

    def pso_step(self, coeffs) -> bool:
        """One classic iteration; returns whether the global best improved.

        Evaluation stops mid-iteration if the budget runs out (remaining
        particles are left untouched).
        """
        table, k, x0 = self._begin(coeffs)
        start_best = self.gbest_fit
        rows = table[self._group[:k]]  # each particle's subgroup row
        r = self.rng.random((k, 2, self.dim))
        own = rows[:, 0:1] * self.velocities[:k] \
            + (rows[:, 1:2] * r[:, 0]) * (self.pbest_pos[:k] - x0)
        social = rows[:, 2:3] * r[:, 1]

        def land(a, b):
            x = x0[a:b]
            self._fly(slice(a, b), x, own[a:b] + social[a:b] * (self.gbest_pos - x))

        self._land_in_order(0, k, land, lambda j, improved, moved: moved)
        return self._finish_iteration(start_best)

    def clpso_step(self, coeffs) -> bool:
        """One comprehensive-learning iteration with the inertia w and the
        learning coefficient c1 of the table's row 0."""
        table, k, x0 = self._begin(coeffs)
        start_best = self.gbest_fit
        w, c = table[0, :2].tolist()
        wv = w * self.velocities[:k]
        cr = np.empty((k, self.dim))  # c * r, drawn segment by segment

        def land(a, b):
            s = slice(a, b)
            self._fly(s, x0[s], wv[s] + cr[s] * (self._exemplar_target(s) - x0[s]))

        i = 0
        for end in self._stops(k):
            self.rng.random(out=cr[i:end])
            cr[i:end] *= c
            self._land_in_order(i, end, land,
                                lambda j, improved, moved: self._refresh(j, improved, end))
            i = end
        return self._finish_iteration(start_best)

    def rlpso_step(self, coeffs) -> bool:
        """One RLPSO iteration: exemplar + gbest + own-pbest velocity terms,
        then a stall-gated mutation that may reinitialize the position."""
        table, k, x0 = self._begin(coeffs)
        start_best = self.gbest_fit
        d = self.dim
        rows = table[self._group[:k]]
        wv = rows[:, 0:1] * self.velocities[:k]
        coeff = np.repeat(rows[:, 1:4], d, axis=1)  # c1 | c2 | c3, one column per draw
        gate = (rows[:, 4] * 0.01) * self.stall[:k]
        r = np.empty((k, 3 * d + 1))  # c1*r1 | c2*r2 | c3*r3 | mutation draw

        def land(a, b):
            s = slice(a, b)
            x, q = x0[s], r[s]
            v = ((wv[s] + q[:, :d] * (self._exemplar_target(s) - x))
                 + q[:, d:2 * d] * (self.gbest_pos - x)) \
                + q[:, 2 * d:3 * d] * (self.pbest_pos[s] - x)
            self._fly(s, x, v)

        i = 0
        for stop in self._stops(k):
            while i < stop:
                end = stop
                state = self.rng.bit_generator.state
                self.rng.random(out=r[i:end])
                fires = r[i:end, 3 * d] < gate[i:end]
                f = i + int(fires.argmax())
                if fires[f - i]:
                    # f's position draw follows its row: draw no rows past it
                    end = f + 1
                    if end < stop:
                        self.rng.bit_generator.state = state
                        self.rng.random(out=r[i:end])
                    mutant = self.rng.uniform(self.objective.lower, self.objective.upper, d)
                else:
                    f = end
                r[i:end, :3 * d] *= coeff[i:end]
                self._land_in_order(i, f, land, lambda j, improved, moved:
                                    self._refresh(j, improved, f) or moved)
                if f < end:
                    # a zero velocity lands the in-box mutant exactly where drawn
                    self._fly(f, mutant, np.zeros(d))
                    self._refresh(f, self._record(f), end)
                i = end
        return self._finish_iteration(start_best)


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
