"""``tools/lockstep.py`` runs every case against the current package.

The tool drives each unit through the package's public calls, so a change
to one of them (a controller's arguments, say) breaks the tool; this test
makes that break show here rather than when the tool is next needed.
"""

import importlib.util
import os
from pathlib import Path

import pytest

import rlapso

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lockstep.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def lockstep():
    """The tool as a module; its import pins the BLAS thread variables, which
    are put back as they were."""
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    try:
        spec = importlib.util.spec_from_file_location("lockstep", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return module


def test_every_case_runs_one_block_on_both_sides(lockstep, monkeypatch):
    monkeypatch.setattr(lockstep, "BLOCKS", 1)
    assert len(lockstep.CASES) == 9
    for label, builder, args, calls, _, _ in lockstep.CASES:
        times = lockstep.run_case((rlapso, rlapso), builder, args, calls)
        assert [len(side) for side in times] == [1, 1], label
        assert all(t > 0.0 for side in times for t in side), label
