"""Lockstep A/B timer for the per-layer units of two trees of this repository.

Usage, from anywhere inside the repository:

    python3 tools/lockstep.py PARENT_REF

The script extracts ``src/rlapso`` of PARENT_REF with ``git archive`` into
a temporary directory and imports it as ``rlapso_ref``, next to this working
tree's ``rlapso``.  Each case runs 40 blocks.  A block builds a fresh
instance of the unit per tree from seed ``SEED + block`` and drives both on
identical inputs: per tree, the build, one untimed warm-up batch and one
timed batch of the case's calls run back to back, and the tree that goes
first alternates from block to block.  A batch is sized to last a few
milliseconds, so a short host hiccup moves few blocks.  After each block the
two sides' states must be equal, or the script stops with an error.  A cost
that belongs to one instance, such as where its arrays landed in memory,
shows in one block only.  The blocks are not independent pairs, though:
the host changes speed in phases that span several blocks.  The cases:

* ``pso_step``, ``clpso_step`` and ``rlpso_step``, 40 particles at 10-D on
  rastrigin and on sphere, each stepped with one coefficient table through
  ``Swarm.step``, the call ``drive`` makes, so the variant dispatch is
  timed too; the swarms' positions must agree.  10 steps per batch.
* The ``PolicyController`` call of an untrained pso actor, absolute and
  relative mode, on a 40 x 10-D rastrigin swarm that each side steps with
  the table its controller returned.  Only the controller calls are timed,
  50 per batch; the tables and the positions must agree.
* ``DdpgAgent.train_step`` of two agents seeded alike, whose buffers hold
  the same 2000 transitions; every network's ``params`` must agree.  10
  calls per batch.

It prints, per case, each side's median time per unit over the blocks, the
median over the blocks of this tree's time relative to the ref's in the same
block with a 95 % moving-block bootstrap interval of that median, and the
number of blocks each side was faster in.  Each of the interval's 2000
resamples joins 8 runs of ``RUN`` = 5 consecutive block ratios, each run
starting anywhere in the 40, so a host phase that spans several blocks
stays together in a resample; the starts come from a generator seeded with
``BOOTSTRAP_SEED`` and used for nothing else.  Both
trees run in one process on one trajectory, so a change in host speed that
lasts longer than a block slows both sides alike.  Run against the working
tree's own commit, the split and the interval show the tool's spread on
identical code.  End-to-end claims belong to ``perfbench``; this covers the
per-layer ones it cannot resolve.
"""
import os

# pinned before numpy loads, so both trees see single-threaded BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
N, DIM, SEED = 40, 10, 6
BLOCKS = 40
# calls per batch, each batch a few milliseconds
STEP_CALLS, POLICY_CALLS, TRAIN_CALLS = 10, 50, 10
TRANSITIONS = 2000
# w, c1, c2, c3, c4 for every subgroup; c4 > 0 lets RLPSO mutate
ROW = (0.729, 1.494, 1.494, 1.0, 1.0)
# a fresh unit's warm-up batch, then its timed batch, of the largest size
T_MAX = 2 * max(STEP_CALLS, POLICY_CALLS, TRAIN_CALLS)
BUDGET = N * (1 + T_MAX)
RESAMPLES, BOOTSTRAP_SEED = 2000, 0
RUN = 5  # consecutive blocks per bootstrap draw


def import_ref(ref: str, into: str):
    """Import ``src/rlapso`` of git ref ``ref``, extracted under ``into``,
    as the package ``rlapso_ref``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src/rlapso"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    (Path(into) / "src" / "rlapso").rename(Path(into) / "rlapso_ref")
    sys.path.insert(0, into)
    return importlib.import_module("rlapso_ref")


# Each case builder takes one tree's package, its case arguments and a seed,
# and returns (block, state) for a fresh unit: ``block()`` makes one batch of
# calls of the unit and returns the seconds they took; ``state()`` is what
# must agree between the trees afterwards.

def swarm_step(pkg, variant: str, function: str, seed: int):
    swarm = pkg.Swarm(pkg.make_objective(function, DIM, seed), N, BUDGET, seed,
                      variant=variant)
    table = np.array([ROW] * 5)

    def block():
        start = time.perf_counter()
        for _ in range(STEP_CALLS):
            swarm.step(table)
        return time.perf_counter() - start

    return block, lambda: [swarm.positions]


def policy_call(pkg, mode: str, seed: int):
    ddpg = importlib.import_module(f"{pkg.__name__}.ddpg")
    swarm = pkg.Swarm(pkg.make_objective("rastrigin", DIM, seed), N, BUDGET, seed)
    agent = ddpg.DdpgAgent(ddpg.action_width("pso"), seed=seed)
    controller = ddpg.PolicyController(agent, mode, "pso")
    last = [None]

    def block():
        spent = 0.0
        for _ in range(POLICY_CALLS):
            start = time.perf_counter()
            last[0] = controller(swarm)
            spent += time.perf_counter() - start
            swarm.step(last[0])
        return spent

    return block, lambda: [last[0], swarm.positions]


def train_step(pkg, seed: int):
    ddpg = importlib.import_module(f"{pkg.__name__}.ddpg")
    agent = ddpg.DdpgAgent(ddpg.action_width("pso"), seed=seed)
    rng, width = np.random.default_rng(seed), ddpg.STATE_WIDTH
    for _ in range(TRANSITIONS):
        agent.buffer.push(rng.uniform(-1, 1, width), rng.uniform(-1, 1, agent.action_dim),
                          float(rng.choice((-1.0, 1.0))), rng.uniform(-1, 1, width))

    def block():
        start = time.perf_counter()
        for _ in range(TRAIN_CALLS):
            agent.train_step()
        return time.perf_counter() - start

    nets = (agent.actor, agent.critic, agent.actor_target, agent.critic_target)
    return block, lambda: [net.params for net in nets]


# (label, builder, arguments, calls per batch, per-call scale, unit)
CASES = [(f"{variant}_step {function}", swarm_step, (variant, function), STEP_CALLS,
          1e6 / N, "us/particle")
         for variant in ("pso", "clpso", "rlpso") for function in ("rastrigin", "sphere")]
CASES += [(f"policy call {mode}", policy_call, (mode,), POLICY_CALLS, 1e6, "us/call")
          for mode in ("absolute", "relative")]
CASES += [("train_step", train_step, (), TRAIN_CALLS, 1e3, "ms/call")]


def run_case(packages, builder, args, calls):
    """Drive a fresh unit per package in lockstep for every block; returns
    each side's timed batches in seconds per call."""
    times, states = [[], []], [None, None]
    for n in range(BLOCKS):
        # each side is built, warmed up and timed back to back, so neither
        # times its batch straight after the other side's warm-up
        for side in ((0, 1) if n % 2 == 0 else (1, 0)):
            block, states[side] = builder(packages[side], *args, SEED + n)
            block()  # the untimed warm-up batch
            times[side].append(block() / calls)
        for a, b in zip(states[0](), states[1]()):
            if not np.array_equal(a, b):
                raise AssertionError(f"{builder.__name__}{args}: the trees differ after "
                                     f"block {n}")
    return times


def paired_interval(ratios) -> tuple:
    """The 95 % moving-block bootstrap interval of the median of the block
    ratios, in runs of ``RUN`` consecutive blocks."""
    ratios = np.asarray(ratios)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    starts = rng.integers(0, ratios.size - RUN + 1, (RESAMPLES, ratios.size // RUN))
    medians = np.median(ratios[(starts[..., None] + np.arange(RUN)).reshape(RESAMPLES, -1)],
                        axis=1)
    return tuple(np.percentile(medians, (2.5, 97.5)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF", help="git ref to compare against")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import rlapso

    with tempfile.TemporaryDirectory() as tmp:
        ref = import_ref(args.parent_ref, tmp)
        print(f"lockstep: {args.parent_ref} (ref) against the working tree (this); "
              f"{BLOCKS} alternating blocks of fresh units, each one warm-up and one "
              f"timed batch; median time per unit")
        for label, builder, case_args, calls, scale, unit in CASES:
            ref_t, this_t = run_case((ref, rlapso), builder, case_args, calls)
            ref_med = statistics.median(ref_t) * scale
            this_med = statistics.median(this_t) * scale
            this_won = sum(b < a for a, b in zip(ref_t, this_t))
            ratios = [b / a for a, b in zip(ref_t, this_t)]
            paired, (low, high) = statistics.median(ratios), paired_interval(ratios)
            print(f"{label:<20} ref {ref_med:7.2f}  this {this_med:7.2f} {unit:<11} "
                  f"(paired {(paired - 1) * 100:+5.1f} % "
                  f"[{(low - 1) * 100:+5.1f}, {(high - 1) * 100:+5.1f}])  "
                  f"faster blocks: ref {BLOCKS - this_won}, this {this_won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
