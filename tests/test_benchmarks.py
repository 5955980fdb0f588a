"""Benchmark objective construction, transforms, and landscape properties."""

import numpy as np
import pytest

from rlapso.benchmarks import FUNCTIONS, Objective, _elliptic_weights, make_objective

NON_COMPOSITION = [fn for fn in FUNCTIONS if fn != "composition"]
ROTATED = [fn for fn, spec in FUNCTIONS.items() if spec.rotated and fn != "composition"]


class TestMakeObjective:
    def test_sphere_at_shift_is_bias(self):
        obj = make_objective("sphere", 10, 12345)
        assert obj.evaluate(obj.shift) == pytest.approx(-1400.0, abs=1e-9)

    def test_rastrigin_at_shift_is_bias(self):
        obj = make_objective("rastrigin", 10, 999)
        assert obj.evaluate(obj.shift) == pytest.approx(-400.0, abs=1e-9)

    def test_sphere_offset_by_unit_diagonal(self):
        # raw sphere of (1, 1) is 2
        obj = make_objective("sphere", 2, 7)
        assert obj.evaluate(obj.shift + np.array([1.0, 1.0])) == pytest.approx(-1398.0)

    def test_rotated_elliptic_first_axis_weight(self):
        # moving one unit along the first rotated axis costs the 10**0 weight
        obj = make_objective("elliptic", 2, 11)
        x = obj.shift + obj.rotation.T @ np.array([1.0, 0.0])
        assert obj.evaluate(x) == pytest.approx(obj.bias + 1.0, abs=1e-9)

    def test_ackley_identity_rotation_at_shift(self):
        obj = make_objective("ackley", 5, 21)
        unrotated = Objective(obj.id, obj.dim, obj.lower, obj.upper, obj.shift.copy(),
                              np.eye(obj.dim), obj.bias, obj.seed)
        assert unrotated.evaluate(unrotated.shift) == pytest.approx(obj.bias, abs=1e-9)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown function"):
            make_objective("nope", 10, 1)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            make_objective("sphere", 1, 1)

    def test_same_seed_bit_identical_transforms(self):
        a = make_objective("griewank", 10, 77)
        b = make_objective("griewank", 10, 77)
        assert np.array_equal(a.shift, b.shift)
        assert np.array_equal(a.rotation, b.rotation)

    def test_shift_strictly_interior(self):
        for fn in FUNCTIONS:
            obj = make_objective(fn, 10, 5)
            assert np.all(obj.shift >= obj.lower + 5.0)
            assert np.all(obj.shift <= obj.upper - 5.0)

    def test_length_mismatch_rejected(self):
        obj = make_objective("sphere", 4, 3)
        with pytest.raises(ValueError, match="length 4"):
            obj.evaluate(np.zeros(5))


class TestInvariants:
    @pytest.mark.parametrize("fn", list(FUNCTIONS))
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_rotation_orthogonal(self, fn, dim):
        obj = make_objective(fn, dim, 2024)
        err = np.abs(obj.rotation.T @ obj.rotation - np.eye(dim)).max()
        assert err < 1e-9

    @pytest.mark.parametrize("fn", NON_COMPOSITION)
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_shift_evaluates_to_bias(self, fn, dim):
        obj = make_objective(fn, dim, 31415)
        assert abs(obj.evaluate(obj.shift) - obj.bias) < 1e-9

    @pytest.mark.parametrize("fn", [fn for fn, spec in FUNCTIONS.items() if not spec.rotated])
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_unrotated_matches_the_identity_product(self, fn, dim):
        """Unrotated objectives skip their identity rotation; the product they
        skip is the reference, on random points, the optimum and the origin."""
        obj = make_objective(fn, dim, 808)
        assert np.array_equal(obj.rotation, np.eye(dim))
        rng = np.random.default_rng(dim)
        for x in [obj.shift, np.zeros(dim), *rng.uniform(-100.0, 100.0, (200, dim))]:
            expected = FUNCTIONS[fn].raw(obj.rotation @ (x - obj.shift)) + obj.bias
            assert obj.evaluate(x) == expected

    @pytest.mark.parametrize("fn", list(FUNCTIONS))
    def test_determinism_on_random_points(self, fn):
        a = make_objective(fn, 10, 4242)
        b = make_objective(fn, 10, 4242)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = rng.uniform(-100.0, 100.0, 10)
            assert a.evaluate(x) == b.evaluate(x)

    @pytest.mark.parametrize("fn", NON_COMPOSITION)
    def test_shift_optimality_under_small_perturbations(self, fn):
        obj = make_objective(fn, 10, 57)
        at_shift = obj.evaluate(obj.shift)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            delta = rng.normal(size=10)
            delta *= rng.uniform(0.0, 10.0) / np.linalg.norm(delta)
            assert at_shift <= obj.evaluate(obj.shift + delta)

    def test_sphere_rotation_invariance(self):
        obj = make_objective("sphere", 10, 3)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        rotated = Objective(obj.id, obj.dim, obj.lower, obj.upper,
                            obj.shift.copy(), q, obj.bias, obj.seed)
        for _ in range(200):
            x = rng.uniform(-100.0, 100.0, 10)
            assert rotated.evaluate(x) == pytest.approx(obj.evaluate(x), rel=1e-12)

    @pytest.mark.parametrize("fn", NON_COMPOSITION)
    def test_bias_additivity(self, fn):
        obj = make_objective(fn, 10, 8)
        rng = np.random.default_rng(4)
        for _ in range(500):
            x = rng.uniform(-100.0, 100.0, 10)
            assert obj.evaluate(x) - obj.bias >= 0.0

    def test_composition_never_below_bias(self):
        obj = make_objective("composition", 10, 8)
        rng = np.random.default_rng(5)
        for _ in range(500):
            x = rng.uniform(-100.0, 100.0, 10)
            assert obj.evaluate(x) >= obj.bias

    def test_objective_arrays_are_frozen(self):
        obj = make_objective("sphere", 4, 9)
        with pytest.raises(ValueError):
            obj.shift[0] = 0.0


class TestStackedKernelsMatchRows:
    """Pins a numpy/BLAS property, not rlapso code: stacked ``np.matmul``
    calls and last-axis reductions over k rows give each row the bits of
    the 1-D call on that row alone.  ROADMAP item 7 relies on it to evaluate
    landed rows in blocks and stay bit-identical to ``evaluate``.  (One gemm,
    ``Z @ R.T``, does not give those bits.)"""

    @staticmethod
    def rows(obj, k):
        rng = np.random.default_rng(obj.dim * 100 + k)
        return rng.uniform(obj.lower, obj.upper, (k, obj.dim)) - obj.shift

    @pytest.mark.parametrize("k", [1, 7, 40])
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_stacked_gemv(self, dim, k):
        for fn in ROTATED:
            obj = make_objective(fn, dim, 606)
            z = self.rows(obj, k)
            stacked = np.matmul(obj.rotation, z[..., None])[..., 0]
            for i in range(k):
                assert np.array_equal(stacked[i], obj.rotation @ z[i]), fn

    @pytest.mark.parametrize("k", [1, 7, 40])
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_composition_rotations_in_one_call(self, dim, k):
        obj = make_objective("composition", dim, 606)
        shifts = np.stack((obj.shift, *obj.extra_shifts))
        rotations = np.stack((obj.rotation, *obj.extra_rotations))
        rng = np.random.default_rng(dim * 100 + k)
        z = rng.uniform(obj.lower, obj.upper, (k, 1, dim)) - shifts
        stacked = np.matmul(rotations, z[..., None])[..., 0]
        for i in range(k):
            for m in range(len(rotations)):
                assert np.array_equal(stacked[i, m], rotations[m] @ z[i, m])

    @pytest.mark.parametrize("k", [1, 7, 40])
    @pytest.mark.parametrize("dim", [2, 10, 30])
    def test_stacked_dots_and_reductions(self, dim, k):
        obj = make_objective("elliptic", dim, 606)
        z = self.rows(obj, k)
        weights = _elliptic_weights(dim)
        dots = np.matmul(z[:, None, :], z[..., None])[:, 0, 0]
        weighted = np.matmul(weights[None, None, :], (z * z)[..., None])[:, 0, 0]
        sums, prods = z.sum(-1), np.cos(z / 50).prod(-1)
        for i in range(k):
            assert dots[i] == z[i] @ z[i]
            assert weighted[i] == weights @ (z[i] * z[i])
            assert sums[i] == z[i].sum()
            assert prods[i] == np.cos(z[i] / 50).prod()
