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
c2, c3, c4`` (RLPSO alone reads c3 and c4; CLPSO takes w and c1 from row 0),
never draws from ``swarm.rng``, and its ``adapter`` attribute tags the run's
record; 0 <= t <= t_max = max(1, budget // n - 1).  ``Schedule`` runs the
offline schedules, ``ddpg.PolicyController`` a trained policy.

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
- Particle i's velocity reads only its own position, velocity and pbest,
  which nothing changes before its turn, and the gbest at its turn; only an
  evaluation that lowers gbest changes gbest.  So ``pso_step`` lands all k
  particles as one block against the current gbest (velocity, speed clamp,
  position, bound clamp), then evaluates and records them in index order.
  When particle j lowers gbest, particles j+1..k-1 are landed again from
  the iteration's start positions against the new gbest, and recording
  goes on from j+1.  Fewer than 2 % of particle updates move gbest in a
  10-D run, so the redo is rare.
- RLPSO draws ``rng.random(3 * dim + 1)`` per particle: r1, r2, r3 and the
  mutation draw, in that order.  RLPSO and CLPSO still step particle by
  particle, because exemplar reassignment draws follow each evaluation and
  an earlier particle's pbest improvement moves later exemplar targets.

Every update performs the per-particle form's operations with its
association, e.g. ``(w*v + (c1*r1)*(p - x)) + (c2*r2)*(g - x)``, so results
are bit-identical to that form, which the tests replay.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .benchmarks import Objective

V_MAX_FRACTION = 0.2
DEFAULT_SUBGROUPS = 5
DEFAULT_REFRESH_GAP = 7


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

    def _exemplar_target(self, i: int) -> np.ndarray:
        return self.pbest_pos[self.exemplar[i], self._dims]

    # -- shared step plumbing -----------------------------------------------

    def _require_budget(self):
        if self.eval_count >= self.eval_budget:
            raise BudgetExhaustedError(
                f"evaluation budget {self.eval_budget} exhausted (eval_count={self.eval_count})"
            )

    def _fly(self, rows, x: np.ndarray, v: np.ndarray) -> None:
        """Clamp velocities ``v`` to the speed limit in place, then land the
        particles ``rows`` (an index or a slice) at positions ``x + v``."""
        np.maximum(v, -self.v_max, out=v)
        np.minimum(v, self.v_max, out=v)
        self._land(rows, x + v, v)

    def _land(self, rows, x: np.ndarray, v: np.ndarray) -> None:
        """Clamp ``x`` to bounds (zeroing clamped velocity components) and
        store it as the particles ``rows``."""
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

    # -- step variants ------------------------------------------------------

    def _table(self, coeffs) -> np.ndarray:
        """``coeffs`` as a float64 coefficient table, one row per subgroup."""
        table = np.asarray(coeffs, dtype=float)
        if table.shape != (self.subgroup_count, 5):
            raise ValueError(f"expected {self.subgroup_count} coefficient sets as a "
                             f"({self.subgroup_count}, 5) table, got shape {table.shape}")
        return table

    def step(self, coeffs) -> bool:
        """One iteration of this swarm's variant; returns whether gbest improved."""
        if self.variant == "pso":
            return self.pso_step(coeffs)
        if self.variant == "clpso":
            w, c1 = self._table(coeffs)[0, :2].tolist()
            return self.clpso_step(w, c1)
        return self.rlpso_step(coeffs)

    def pso_step(self, coeffs) -> bool:
        """One classic iteration; returns whether the global best improved.

        Evaluation stops mid-iteration if the budget runs out (remaining
        particles are left untouched).
        """
        table = self._table(coeffs)
        self._require_budget()
        start_best = self.gbest_fit
        k = min(self.n, self.eval_budget - self.eval_count)
        rows = table[self._group[:k]]  # each particle's subgroup row
        r = self.rng.random((k, 2, self.dim))
        x0 = self.positions[:k].copy()
        own = rows[:, 0:1] * self.velocities[:k] \
            + (rows[:, 1:2] * r[:, 0]) * (self.pbest_pos[:k] - x0)
        social = rows[:, 2:3] * r[:, 1]
        i = 0
        while i < k:
            # land particles i..k-1 against the current gbest, then record them
            # in order; a gbest move invalidates the landings after it
            best_at_landing = self.gbest_fit
            self._fly(slice(i, k), x0[i:], own[i:] + social[i:] * (self.gbest_pos - x0[i:]))
            while i < k:
                self._record(i)
                i += 1
                if self.gbest_fit < best_at_landing:
                    break
        return self._finish_iteration(start_best)

    def clpso_step(self, w: float, c: float, m: int = DEFAULT_REFRESH_GAP) -> bool:
        """One comprehensive-learning iteration with refreshing gap ``m``."""
        if m < 1:
            raise ValueError("refreshing gap must be >= 1")
        self._require_budget()
        start_best = self.gbest_fit
        for i in range(min(self.n, self.eval_budget - self.eval_count)):
            r = self.rng.random(self.dim)
            v = w * self.velocities[i] + c * r * (self._exemplar_target(i) - self.positions[i])
            self._fly(i, self.positions[i], v)
            if not self._record(i):
                self.stall[i] += 1
                if self.stall[i] > m:
                    self.assign_exemplar(i)
        return self._finish_iteration(start_best)

    def rlpso_step(self, coeffs, m: int = DEFAULT_REFRESH_GAP) -> bool:
        """One RLPSO iteration: exemplar + gbest + own-pbest velocity terms,
        then a stall-gated mutation that may reinitialize the position."""
        rows = self._table(coeffs).tolist()
        if m < 1:
            raise ValueError("refreshing gap must be >= 1")
        self._require_budget()
        start_best = self.gbest_fit
        d = self.dim
        for i in range(min(self.n, self.eval_budget - self.eval_count)):
            w, c1, c2, c3, c4 = rows[self._group[i]]
            x = self.positions[i]
            r = self.rng.random(3 * d + 1)
            v = w * self.velocities[i] + c1 * r[:d] * (self._exemplar_target(i) - x) \
                + c2 * r[d:2 * d] * (self.gbest_pos - x) \
                + c3 * r[2 * d:3 * d] * (self.pbest_pos[i] - x)
            if r[3 * d] < c4 * 0.01 * self.stall[i]:
                x = self.rng.uniform(self.objective.lower, self.objective.upper, d)
                self._land(i, x, np.zeros(d))
            else:
                self._fly(i, x, v)
            if not self._record(i):
                self.stall[i] += 1
                if self.stall[i] > m:
                    self.assign_exemplar(i)
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
