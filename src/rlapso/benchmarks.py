"""Shifted/rotated black-box benchmark functions on the [-100, 100]^D box.

Each objective is a classic test function composed with a seeded shift and
(for most functions) a seeded rotation, plus a fixed additive bias, so the
known optimum sits at an interior point with value == bias.  All transforms
are generated deterministically from a 64-bit seed; no data files needed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

LOWER = -100.0
UPPER = 100.0
SHIFT_MARGIN = 5.0  # keep the optimum strictly interior

_TWO_PI = 2.0 * math.pi

# Schwefel anchor: g(z) = z*sin(sqrt|z|) peaks at z = _SCHWEFEL_A inside [-500, 500].
_SCHWEFEL_A = 4.209687462275036e2
_SCHWEFEL_PEAK = _SCHWEFEL_A * np.sin(np.sqrt(np.abs(_SCHWEFEL_A)))

_COMPOSITION_SIGMA = 20.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Weierstrass with a = 0.5, b = 3 and k = 0..20: the terms a**k and
# 2*pi * b**k, and the value of the sum at the centre
_WEIERSTRASS_AK = _frozen(0.5 ** np.arange(21))
_WEIERSTRASS_FREQ = _frozen(_TWO_PI * 3.0 ** np.arange(21))
_WEIERSTRASS_CENTER = (_WEIERSTRASS_AK * np.cos(_WEIERSTRASS_FREQ * 0.5)).sum()


# per-dimension constants, shared read-only by every call at dimension d
@functools.cache
def _griewank_roots(d: int) -> np.ndarray:
    return _frozen(np.sqrt(1.0 + np.arange(d)))


@functools.cache
def _elliptic_weights(d: int) -> np.ndarray:
    return _frozen(10.0 ** (6.0 * np.arange(d) / (d - 1)))


@functools.cache
def _diff_powers_exponents(d: int) -> np.ndarray:
    return _frozen(2.0 + 4.0 * np.arange(d) / (d - 1))


def _sphere(z: np.ndarray) -> float:
    return float(z @ z)


def _elliptic(z: np.ndarray) -> float:
    return float(_elliptic_weights(z.size) @ (z * z))


def _bent_cigar(z: np.ndarray) -> float:
    return float(z[0] * z[0] + 1e6 * (z[1:] * z[1:]).sum())


def _discus(z: np.ndarray) -> float:
    return float(1e6 * z[0] * z[0] + (z[1:] * z[1:]).sum())


def _diff_powers(z: np.ndarray) -> float:
    return float(np.sqrt((np.abs(z) ** _diff_powers_exponents(z.size)).sum()))


def _rosenbrock(z: np.ndarray) -> float:
    # classic domain is ~[-2, 2]; pre-scale, then move the optimum to z = 0
    y = (2.048 / 100.0) * z + 1.0
    return float((100.0 * (y[:-1] ** 2 - y[1:]) ** 2 + (y[:-1] - 1.0) ** 2).sum())


def _ackley(z: np.ndarray) -> float:
    d = z.size
    rms = math.sqrt(float(z @ z) / d)
    mean_cos = float(np.cos(_TWO_PI * z).sum()) / d
    return -20.0 * math.exp(-0.2 * rms) - math.exp(mean_cos) + 20.0 + math.e


def _weierstrass(z: np.ndarray) -> float:
    y = (0.5 / 100.0) * z
    inner = (_WEIERSTRASS_AK * np.cos(_WEIERSTRASS_FREQ * (y[:, None] + 0.5))).sum(axis=1)
    return float((inner - _WEIERSTRASS_CENTER).sum())


def _griewank(z: np.ndarray) -> float:
    y = 6.0 * z  # classic domain is [-600, 600]
    s = float(y @ y) / 4000.0
    p = float(np.cos(y / _griewank_roots(y.size)).prod())
    return s - p + 1.0


def _rastrigin(z: np.ndarray) -> float:
    y = (5.12 / 100.0) * z
    return float((y * y - 10.0 * np.cos(_TWO_PI * y) + 10.0).sum())


def _schwefel(z: np.ndarray) -> float:
    y = 10.0 * z + _SCHWEFEL_A
    ay = np.abs(y)
    g_in = y * np.sin(np.sqrt(ay))
    d = z.size
    ym = np.mod(y, 500.0)
    g_hi = (500.0 - ym) * np.sin(np.sqrt(np.abs(500.0 - ym))) - (y - 500.0) ** 2 / (10000.0 * d)
    nm = np.mod(-y, 500.0)
    g_lo = (nm - 500.0) * np.sin(np.sqrt(np.abs(500.0 - nm))) - (y + 500.0) ** 2 / (10000.0 * d)
    g = np.where(ay <= 500.0, g_in, 0.0) + np.where(y > 500.0, g_hi, 0.0) + np.where(y < -500.0, g_lo, 0.0)
    return float((_SCHWEFEL_PEAK - g).sum())


@dataclass(frozen=True)
class FunctionSpec:
    bias: float
    rotated: bool
    raw: object  # callable(z) -> float, None for the composition


FUNCTIONS: dict[str, FunctionSpec] = {
    "sphere": FunctionSpec(-1400.0, False, _sphere),
    "elliptic": FunctionSpec(-1300.0, True, _elliptic),
    "bent_cigar": FunctionSpec(-1200.0, True, _bent_cigar),
    "discus": FunctionSpec(-1100.0, True, _discus),
    "diff_powers": FunctionSpec(-1000.0, False, _diff_powers),
    "rosenbrock": FunctionSpec(-900.0, True, _rosenbrock),
    "ackley": FunctionSpec(-700.0, True, _ackley),
    "weierstrass": FunctionSpec(-600.0, True, _weierstrass),
    "griewank": FunctionSpec(-500.0, True, _griewank),
    "rastrigin": FunctionSpec(-400.0, False, _rastrigin),
    "rastrigin_rot": FunctionSpec(-300.0, True, _rastrigin),
    "schwefel": FunctionSpec(-100.0, False, _schwefel),
    "composition": FunctionSpec(900.0, True, None),
}

_COMPOSITION_PARTS = (_rastrigin, _griewank, _sphere)


def _gram_schmidt_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthonormalize a matrix of standard normal draws (modified Gram-Schmidt)."""
    while True:
        m = rng.normal(size=(dim, dim))
        q = np.empty_like(m)
        ok = True
        for k in range(dim):
            v = m[:, k].copy()
            for j in range(k):
                v -= (q[:, j] @ v) * q[:, j]
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:  # essentially impossible for Gaussian draws
                ok = False
                break
            q[:, k] = v / norm
        if ok:
            return q


@dataclass(frozen=True)
class Objective:
    """An immutable benchmark instance; ``evaluate`` is pure and reentrant."""

    id: str
    dim: int
    lower: float
    upper: float
    shift: np.ndarray
    rotation: np.ndarray
    bias: float
    seed: int
    extra_shifts: tuple = ()
    extra_rotations: tuple = ()
    # False for the identity, whose product (exact up to the sign of a zero,
    # which no raw function tells apart) ``evaluate`` skips
    _rotated: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.shift, self.rotation, *self.extra_shifts, *self.extra_rotations):
            arr.setflags(write=False)
        object.__setattr__(self, "_rotated", not np.array_equal(self.rotation, np.eye(self.dim)))

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}, got shape {x.shape}")
        if self.id == "composition":
            return self._evaluate_composition(x)
        z = x - self.shift
        if self._rotated:
            z = self.rotation @ z
        return FUNCTIONS[self.id].raw(z) + self.bias

    def _evaluate_composition(self, x: np.ndarray) -> float:
        shifts = (self.shift, *self.extra_shifts)
        rotations = (self.rotation, *self.extra_rotations)
        diffs = [x - o for o in shifts]
        sq = np.array([float(d @ d) for d in diffs])
        weights = np.exp(-sq / (2.0 * self.dim * _COMPOSITION_SIGMA**2))
        weights /= weights.sum()
        values = np.array(
            [raw(m @ d) for raw, d, m in zip(_COMPOSITION_PARTS, diffs, rotations)]
        )
        return float(weights @ values) + self.bias


def make_objective(function_id: str, dim: int, seed: int) -> Objective:
    """Build a benchmark instance with seed-deterministic shift and rotation."""
    if function_id not in FUNCTIONS:
        known = ", ".join(sorted(FUNCTIONS))
        raise ValueError(f"unknown function id {function_id!r}; expected one of: {known}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    spec = FUNCTIONS[function_id]
    rng = np.random.default_rng(seed)
    shifts, rotations = [], []
    for _ in range(len(_COMPOSITION_PARTS) if function_id == "composition" else 1):
        shifts.append(rng.uniform(LOWER + SHIFT_MARGIN, UPPER - SHIFT_MARGIN, dim))
        rotations.append(_gram_schmidt_rotation(rng, dim) if spec.rotated else np.eye(dim))
    return Objective(function_id, dim, LOWER, UPPER, shifts[0], rotations[0], spec.bias, seed,
                     tuple(shifts[1:]), tuple(rotations[1:]))
