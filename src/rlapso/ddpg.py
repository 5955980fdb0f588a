"""The coefficient-adaptation engine: a deterministic-policy actor/critic pair
trained online against swarm runs.

Per iteration the swarm is observed as three scalars (progress, diversity,
stagnation), sine-encoded into 15 inputs; the actor emits one action slice
per subgroup, and ``coefficient_sets`` maps them all at once to the swarm's
coefficient table.  Absolute mode moves each slice to [0, 1] and reads w in
[0.1, 0.9] from its first value and attraction shares c1, c2[, c3] under a
budget of 8 times its last, which is also rlpso's mutation gate c4; relative
mode adds half the slice to the constant schedule, w clamped to [0.05, 1.2].
The reward is +1 when the global best improved that iteration, otherwise -1.
Training follows the standard off-policy loop: replay buffer, critic
regression against the target networks' bootstrap value, actor ascending the
critic, and soft target tracking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .benchmarks import FUNCTIONS, make_objective
from .neural import (AdamState, GradientTape, Mlp, adam_update, load_weights, save_weights,
                     soft_update)
from .swarm import CONSTANT_TABLE, SUBGROUPS, RunRecord, Swarm, drive

STATE_WIDTH = 15
SIN_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0)  # 2**i for i = 0..4
GROUP_WIDTH = {"pso": 4, "rlpso": 5}
ACTOR_HIDDEN = (64, 64)
CRITIC_HIDDEN = (128, 128, 64, 64)

DEFAULT_POOL = ("sphere", "rastrigin", "griewank", "ackley")

MODEL_META_SUFFIX = ".meta"


@dataclass(frozen=True)
class RawState:
    iteration_frac: float
    diversity_norm: float
    stagnation_frac: float


def observe(swarm: Swarm) -> RawState:
    """Summarize a swarm as (progress, normalized dispersion, stagnation)."""
    n = swarm.n
    d = swarm.positions - np.add.reduce(swarm.positions) / n
    dispersion = float(np.add.reduce(np.sqrt(np.sum(d * d, axis=1))) / n)
    diagonal = math.sqrt(swarm.dim) * (swarm.objective.upper - swarm.objective.lower)
    return RawState(
        iteration_frac=swarm.eval_count / swarm.eval_budget,
        diversity_norm=dispersion / diagonal,
        stagnation_frac=(swarm.eval_count - swarm.last_improve_eval) / swarm.eval_budget,
    )


def encode(raw: RawState) -> np.ndarray:
    """Sine-encode each raw input at five octaves: sin(x * 2**i), i = 0..4."""
    out = np.empty(STATE_WIDTH)
    for block, x in enumerate((raw.iteration_frac, raw.diversity_norm, raw.stagnation_frac)):
        for j, scale in enumerate(SIN_SCALES):
            out[block * len(SIN_SCALES) + j] = math.sin(x * scale)
    return out


def reward(prev_gbest: float, new_gbest: float) -> float:
    return 1.0 if new_gbest < prev_gbest else -1.0


class ReplayBuffer:
    """Fixed-capacity ring of transitions with seeded uniform batch sampling.

    Each transition part (state, action, reward, next state) has its own
    preallocated float64 array, one row per transition, shaped on the first
    push.  Rows fill from the front and are only written when reached, so
    the unused capacity stays out of resident memory.
    """

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._parts = None  # state, action, reward and next-state arrays
        self._size = 0
        self._cursor = 0
        self.rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    def push(self, state, action, rew, next_state) -> None:
        parts = (state, action, rew, next_state)
        if self._parts is None:
            self._parts = tuple(np.empty((self.capacity, *np.shape(p))) for p in parts)
        for store, value in zip(self._parts, parts):
            store[self._cursor] = value
        self._size = min(self._size + 1, self.capacity)
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int):
        """Uniform without replacement within the batch; returns stacked arrays."""
        if batch_size > self._size:
            raise ValueError(f"buffer holds {self._size} transitions, need {batch_size}")
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        return tuple(store[idx] for store in self._parts)


class DdpgAgent:
    """Actor/critic pair with target copies, replay buffer, and Adam states.

    The actor maps the 15-wide encoded state to ``action_dim`` tanh outputs;
    the critic scores state and action concatenated at its input.  Each
    network has its own ``GradientTape``, which owns the arrays of the
    learner's passes through it.
    """

    def __init__(self, action_dim: int, seed: int, *, gamma: float = 0.99, tau: float = 0.005,
                 noise_sigma: float = 0.5, batch_size: int = 64,
                 buffer_capacity: int = 100_000, warmup: int = 500,
                 actor_lr: float = 1e-4, critic_lr: float = 1e-3,
                 actor_hidden=ACTOR_HIDDEN, critic_hidden=CRITIC_HIDDEN):
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        self.action_dim = action_dim
        self.gamma = gamma
        self.tau = tau
        self.noise_sigma = noise_sigma
        self.batch_size = batch_size
        self.warmup = warmup
        self.actor_lr = actor_lr
        self.critic_lr = critic_lr
        init_rng = np.random.default_rng(seed)
        self.noise_rng = np.random.default_rng(seed + 1)
        self.actor = Mlp.init([STATE_WIDTH, *actor_hidden, action_dim], "tanh", init_rng)
        self.critic = Mlp.init([STATE_WIDTH + action_dim, *critic_hidden, 1], "identity", init_rng)
        self.actor_target = self.actor.clone()
        self.critic_target = self.critic.clone()
        self.actor_opt = AdamState(self.actor)
        self.critic_opt = AdamState(self.critic)
        self.buffer = ReplayBuffer(buffer_capacity, seed + 2)
        self._tapes = {"actor": GradientTape(), "critic": GradientTape()}
        self._scratch = np.empty(max(self.actor.params.size, self.critic.params.size))

    def act(self, encoded_state, explore: bool) -> np.ndarray:
        a = self.actor.forward(encoded_state)
        if explore:
            a = a + self.noise_rng.normal(0.0, self.noise_sigma, self.action_dim)
        return np.clip(a, -1.0, 1.0)

    def soft_update_targets(self) -> None:
        for target, source in ((self.actor_target, self.actor), (self.critic_target, self.critic)):
            soft_update(target, source, self.tau, self._scratch[: source.params.size])

    def train_step(self) -> tuple[float, float]:
        """One critic regression step, one actor ascent step, one soft update.

        Returns (batch critic loss, batch mean critic value) for diagnostics.
        """
        states, actions, rewards, next_states = self.buffer.sample(self.batch_size)
        b = self.batch_size
        tapes = self._tapes

        # bootstrap target: y = r + gamma * Q'(s', mu'(s')), treated as constant.
        # The target passes borrow the online networks' tapes (same layer
        # shapes): hstack and y consume their outputs before the online passes.
        next_actions = self.actor_target.forward(next_states, tapes["actor"])
        q_next = self.critic_target.forward(np.hstack([next_states, next_actions]),
                                            tapes["critic"])
        y = rewards[:, None] + self.gamma * q_next

        # the critic's regression pass is consumed before its second pass reuses the tape
        q = self.critic.forward(np.hstack([states, actions]), tapes["critic"])
        err = q - y
        critic_loss = float(np.mean(err**2))
        grads, _ = self.critic.backward(tapes["critic"], 2.0 * err / b, input_grad=False)
        adam_update(self.critic, grads, self.critic_opt, self.critic_lr)

        # actor ascends mean Q(s, mu(s)); chain the critic's action gradient
        pred_actions = self.actor.forward(states, tapes["actor"])
        q_pred = self.critic.forward(np.hstack([states, pred_actions]), tapes["critic"])
        actor_objective = float(np.mean(q_pred))
        _, input_grad = self.critic.backward(tapes["critic"], np.full((b, 1), 1.0 / b),
                                             param_grads=False)
        action_grad = input_grad[:, STATE_WIDTH:]
        actor_grads, _ = self.actor.backward(tapes["actor"], action_grad, input_grad=False)
        np.negative(actor_grads.params, out=actor_grads.params)  # ascend the critic's value
        adam_update(self.actor, actor_grads, self.actor_opt, self.actor_lr)

        self.soft_update_targets()
        return critic_loss, actor_objective


def coefficient_sets(action, mode: str, variant: str) -> np.ndarray:
    """Map a full action vector to the (subgroups, 5) coefficient table, one
    row per subgroup's slice (see the module docstring)."""
    action = np.asarray(action, dtype=float)
    expected = action_width(variant)
    if action.shape != (expected,):
        raise ValueError(f"expected action of length {expected}, got {action.shape}")
    width = expected // SUBGROUPS
    slices = action.reshape(SUBGROUPS, width)
    table = np.zeros((SUBGROUPS, 5))
    if mode == "absolute":
        ah = (slices + 1.0) / 2.0  # each slice moved to [0, 1]
        # add the shares left to right, (s1 + s2) + s3: the order fixes the last bits
        total = ah[:, 1] + ah[:, 2]
        if variant == "rlpso":
            total += ah[:, 3]
            table[:, 4] = ah[:, 4]
        scale = 1.0 / (total + 1e-5) * ah[:, -1] * 8.0
        table[:, 0] = ah[:, 0] * 0.8 + 0.1
        table[:, 1:width - 1] = scale[:, None] * ah[:, 1:-1]
    elif mode == "relative":
        if variant == "rlpso":
            raise ValueError("relative mode is undefined for rlpso (no baseline coefficients)")
        table[:, :width] = slices * 0.5 + CONSTANT_TABLE[0, :width]
        np.clip(table[:, 0], 0.05, 1.2, out=table[:, 0])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return table


def action_width(variant: str) -> int:
    if variant not in GROUP_WIDTH:
        raise ValueError(f"no policy adapts variant {variant!r}")
    return GROUP_WIDTH[variant] * SUBGROUPS


class PolicyController:
    """Swarm controller: observe -> encode -> act -> map once per iteration,
    relative mode perturbing the constant schedule.  ``state`` and ``action``
    are what the current call saw and chose."""

    def __init__(self, policy, mode: str, variant: str, explore: bool = False):
        self.policy = policy
        self.mode = mode
        self.variant = variant
        self.explore = explore
        self.adapter = f"rlam-{mode}"
        self.state = self.action = None

    def __call__(self, swarm: Swarm) -> np.ndarray:
        self.state = encode(observe(swarm))
        self.action = self.policy.act(self.state, explore=self.explore)
        return coefficient_sets(self.action, self.mode, self.variant)


@dataclass
class EpisodeRecord:
    episode: int
    function: str
    fn_seed: int
    final_gbest: float
    mean_critic_loss: float


_VALIDATION_SEED_BASE = 50_000
_VALIDATION_SEEDS = 3  # greedy runs per pool function


def _validation_score(agent, pool, mode, variant, dim, n_particles, budget) -> float:
    """Greedy performance of the current actor on fresh pool instances.

    Mean log-error to the known optimum, so functions with different scales
    weigh equally.  Lower is better.
    """
    total = 0.0
    for fi, fn_id in enumerate(pool):
        for v in range(_VALIDATION_SEEDS):
            objective = make_objective(fn_id, dim, _VALIDATION_SEED_BASE + 977 * fi + v)
            rec = adapted_run(agent, objective, variant, mode, budget,
                              _VALIDATION_SEED_BASE + v, n_particles=n_particles)
            total += math.log10(max(rec.final_fit - objective.bias, 1e-12))
    return total / (len(pool) * _VALIDATION_SEEDS)


def _training_episode(agent: DdpgAgent, swarm: Swarm, mode: str, variant: str) -> list[float]:
    """Drive one exploring episode, learning from each transition; returns the losses."""
    controller = PolicyController(agent, mode, variant, explore=True)
    threshold = max(agent.warmup, agent.batch_size)
    losses = []

    def learn(swarm, prev_best):
        r = reward(prev_best, swarm.gbest_fit)
        agent.buffer.push(controller.state, controller.action, r, encode(observe(swarm)))
        if len(agent.buffer) >= threshold:
            losses.append(agent.train_step()[0])

    drive(swarm, controller, learn)
    return losses


def train(agent: DdpgAgent, pool, episodes: int, mode: str, variant: str, dim: int, *,
          n_particles: int = 40, budget: int = 10_000, seed: int = 0,
          validate_every: int = 25, log_every: int = 0) -> list[EpisodeRecord]:
    """Train the agent by looping swarm episodes over a pool of functions.

    Every episode draws a fresh function instance (new shift/rotation) and a
    fresh swarm, then alternates observe -> act(explore) -> map -> one swarm
    iteration -> reward -> store, with one gradient step per iteration once
    the buffer passes the warm-up size.

    Every ``validate_every`` episodes the current actor is scored with greedy
    runs on held-out pool instances, and the best-scoring snapshot is what
    the agent keeps at the end.  The untrained policy and the final policy
    are candidates too: the first is scored before the first episode, the
    last after the last episode, also when ``episodes`` is not a multiple of
    ``validate_every``.  The improvement reward is magnitude-blind, so the
    final policy of a long run can drift toward micro-improvement churning
    that never converges well; selecting on validation gbest keeps the
    policy that actually optimizes.  Pass ``validate_every=0`` to keep the
    final-episode policy unconditionally.

    Every pool name and the actor's widths are checked before the first episode.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    for name, every in (("validate_every", validate_every), ("log_every", log_every)):
        if every < 0:
            raise ValueError(f"{name} must be >= 0, got {every}")
    pool = list(pool)
    if not pool:
        raise ValueError("training pool is empty")
    for fn_id in pool:
        if fn_id not in FUNCTIONS:
            raise ValueError(f"unknown function {fn_id!r} in training pool")
    check_model(agent, {}, mode, variant, f"variant {variant!r}")
    ep_rng = np.random.default_rng(seed)
    log: list[EpisodeRecord] = []
    best_score = math.inf
    best_actor = None
    for done in range(episodes + 1):  # episodes done so far
        if validate_every and (done % validate_every == 0 or done == episodes):
            score = _validation_score(agent, pool, mode, variant, dim, n_particles, budget)
            if score < best_score:
                best_score, best_actor = score, agent.actor.clone()
        if done == episodes:
            break
        fn_id = pool[int(ep_rng.integers(len(pool)))]
        fn_seed = int(ep_rng.integers(2**63))
        swarm_seed = int(ep_rng.integers(2**63))
        objective = make_objective(fn_id, dim, fn_seed)
        swarm = Swarm(objective, n_particles, budget, swarm_seed, variant=variant)
        losses = _training_episode(agent, swarm, mode, variant)
        log.append(EpisodeRecord(done, fn_id, fn_seed, swarm.gbest_fit,
                                 float(np.mean(losses)) if losses else float("nan")))
        if log_every and (done + 1) % log_every == 0:
            print(f"episode {done + 1}/{episodes}: {fn_id} gbest={swarm.gbest_fit:.6g}")
    if validate_every and best_actor is not None:
        agent.actor = best_actor
        agent.actor_target = best_actor.clone()
    return log


def adapted_run(agent, objective, variant: str, mode: str, budget: int, seed: int, *,
                n_particles: int = 40) -> RunRecord:
    """Run one greedy (noise-free, no-learning) adapted optimization."""
    swarm = Swarm(objective, n_particles, budget, seed, variant=variant)
    return drive(swarm, PolicyController(agent, mode, variant))


class ActorPolicy:
    """Adapter for running a saved actor without the training machinery."""

    def __init__(self, actor: Mlp):
        self.actor = actor

    def act(self, encoded_state, explore: bool = False) -> np.ndarray:
        if explore:
            raise ValueError("a bare actor policy cannot explore")
        return np.clip(self.actor.forward(encoded_state), -1.0, 1.0)


def key_value_lines(text: str):
    """Read the ``key = value`` lines of a model sidecar or an experiment
    config: one leading byte-order mark (U+FEFF) is dropped, ``text`` splits
    into lines by ``str.splitlines``, ``#`` starts a comment, blank lines are
    skipped, and each other line yields ``(line number, line, key, value)``,
    split at its first ``=`` and stripped, with value None where it has no
    ``=``.  Refusals are the caller's."""
    text = text.removeprefix("\ufeff")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        yield lineno, line, key.strip(), value.strip() if sep else None


def save_model(actor: Mlp, path, *, mode: str, variant: str, pool, episodes: int,
               seed: int) -> None:
    """Persist a trained actor: binary weights plus a key=value sidecar."""
    path = Path(path)
    save_weights(actor, path)
    meta = {
        "mode": mode,
        "variant": variant,
        "subgroups": SUBGROUPS,
        "action_width": actor.layer_dims[-1],
        "state_width": actor.layer_dims[0],
        "pool": ",".join(pool),
        "episodes": episodes,
        "seed": seed,
    }
    sidecar = path.with_name(path.name + MODEL_META_SUFFIX)
    with open(sidecar, "w", encoding="utf-8", newline="\n") as f:
        for key, value in meta.items():
            f.write(f"{key}={value}\n")


def check_model(policy, meta: dict, mode: str, variant: str, user: str) -> None:
    """Refuse a model that cannot drive ``variant`` in ``mode``: its actor's
    input and output widths, then the sidecar keys ``save_model`` writes.
    Keys that ``meta`` lacks (an in-memory model) are not checked; ``user``
    names what needs the model in the error."""
    expected = action_width(variant)
    reads, emits = policy.actor.layer_dims[0], policy.actor.layer_dims[-1]
    if reads != STATE_WIDTH:
        raise ValueError(f"model reads {reads} state values, {user} needs {STATE_WIDTH}")
    if emits != expected:
        raise ValueError(f"model emits {emits} action values, {user} needs {expected}")
    for key, wanted in (("mode", mode), ("variant", variant), ("subgroups", SUBGROUPS),
                        ("state_width", STATE_WIDTH), ("action_width", expected)):
        declared = meta.get(key)
        if declared is not None and str(declared) != str(wanted):
            raise ValueError(f"model sidecar has {key}={declared}, {user} needs {wanted}")


def load_model(path) -> tuple[ActorPolicy, dict]:
    """Load actor weights and sidecar metadata saved by ``save_model``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    sidecar = path.with_name(path.name + MODEL_META_SUFFIX)
    if not sidecar.exists():
        raise FileNotFoundError(f"model sidecar not found: {sidecar}")
    actor = load_weights(path)
    meta = {}
    for lineno, line, key, value in key_value_lines(sidecar.read_text(encoding="utf-8")):
        if value is None:
            raise ValueError(f"{sidecar} line {lineno}: expected key=value, got {line!r}")
        if key in meta:
            raise ValueError(f"{sidecar} line {lineno}: duplicate key {key!r}")
        meta[key] = value
    missing = [key for key in ("mode", "variant") if key not in meta]
    if missing:
        raise ValueError(f"{sidecar} declares no {' or '.join(missing)}")
    return ActorPolicy(actor), meta
