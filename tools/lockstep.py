"""Lockstep A/B timer for the swarm steps of two trees of this repository.

Usage, from anywhere inside the repository:

    python3 tools/lockstep.py PARENT_REF

The script extracts ``src/rlapso`` of PARENT_REF with ``git archive`` into
a temporary directory and imports it as ``rlapso_ref``, next to this working
tree's ``rlapso``.  For each case (``pso_step``, ``clpso_step`` and
``rlpso_step``; 40 particles at 10-D on rastrigin and on sphere) it builds
one swarm per tree from the same seed and steps both with the same
coefficient table: 20 warm-up steps, then 40 blocks of 10 steps, with the
tree that goes first alternating from block to block.  After each block the
two swarms' positions must be equal, or the script stops with an error.

It prints, per case, each side's median microseconds per particle over the
blocks (evaluation included) and the number of blocks each side was faster
in.  Both trees run in one process on one trajectory, so a change in host
speed that lasts longer than a block slows both sides alike.  End-to-end
claims belong to ``perfbench``; this covers the per-layer ones it cannot
resolve.
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
WARMUP, BLOCKS, BLOCK_STEPS = 20, 40, 10
VARIANTS = ("pso", "clpso", "rlpso")
FUNCTIONS = ("rastrigin", "sphere")
# w, c1, c2, c3, c4 for every subgroup; c4 > 0 lets RLPSO mutate
ROW = (0.729, 1.494, 1.494, 1.0, 1.0)


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


def run_case(packages, variant: str, function: str):
    """Step one swarm per package in lockstep; returns each side's block
    times in microseconds per particle step."""
    budget = N * (1 + WARMUP + BLOCKS * BLOCK_STEPS)
    table = np.array([ROW] * 5)
    swarms = [pkg.Swarm(pkg.make_objective(function, DIM, SEED), N, budget, SEED,
                        variant=variant) for pkg in packages]
    steps = [getattr(swarm, f"{variant}_step") for swarm in swarms]
    for _ in range(WARMUP):
        for step in steps:
            step(table)
    times = [[], []]
    for block in range(BLOCKS):
        order = (0, 1) if block % 2 == 0 else (1, 0)
        for side in order:
            step = steps[side]
            start = time.perf_counter()
            for _ in range(BLOCK_STEPS):
                step(table)
            times[side].append((time.perf_counter() - start) / (BLOCK_STEPS * N) * 1e6)
        if not np.array_equal(swarms[0].positions, swarms[1].positions):
            raise AssertionError(f"{variant}_step on {function}: positions differ after "
                                 f"block {block}")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF", help="git ref to compare against")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import rlapso

    with tempfile.TemporaryDirectory() as tmp:
        ref = import_ref(args.parent_ref, tmp)
        print(f"lockstep: {args.parent_ref} (ref) against the working tree (this); "
              f"{N} particles x {DIM}-D, {WARMUP} warm-up steps, {BLOCKS} alternating "
              f"blocks of {BLOCK_STEPS} steps; median us per particle step")
        for variant in VARIANTS:
            for function in FUNCTIONS:
                ref_t, this_t = run_case((ref, rlapso), variant, function)
                ref_med, this_med = statistics.median(ref_t), statistics.median(this_t)
                this_won = sum(b < a for a, b in zip(ref_t, this_t))
                print(f"{variant + '_step':<11} {function:<9}  ref {ref_med:7.2f}  "
                      f"this {this_med:7.2f}  ({(this_med / ref_med - 1) * 100:+5.1f} %)  "
                      f"faster blocks: ref {BLOCKS - this_won}, this {this_won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
