"""Shared test fixtures and small deterministic helpers."""

import rlapso  # noqa: F401  (first: it pins the BLAS thread count before numpy loads)

import numpy as np
import pytest

from rlapso.benchmarks import Objective


def flat_objective(dim: int, bias: float = 0.0) -> Objective:
    """A centered sphere with identity rotation, handy for tiny hand oracles."""
    return Objective("sphere", dim, -100.0, 100.0, np.zeros(dim), np.eye(dim), bias, 0)


class CountingObjective:
    """Wraps an objective and counts evaluate() calls."""

    def __init__(self, inner: Objective):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, x):
        self.calls += 1
        return self.inner.evaluate(x)


class ScriptedRng:
    """Replays pre-chosen draws so threshold branches can be forced."""

    def __init__(self, randoms):
        self._randoms = list(randoms)

    def random(self, size):
        values = [self._randoms.pop(0) for _ in range(int(np.prod(size)))]
        return np.array(values).reshape(size)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# one PASS/FAIL line per acceptance criterion, echoed after the test summary
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
