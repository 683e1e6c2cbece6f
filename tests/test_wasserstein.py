
import math

import numpy as np
import pytest
from hypothesis import given
from scipy.optimize import linprog

from conftest import equal_mass_pairs_1d, random_measure
from measureflow.errors import DimensionMismatch, LipschitzViolation, MassMismatch
from measureflow.fields import Ball
from measureflow.measures import DiscreteMeasure
from measureflow.wasserstein import (
    _distances,
    dual_lower_bound,
    lipschitz_values,
    wasserstein1,
    wasserstein1_1d,
    wasserstein1_1d_uniform,
)

d = DiscreteMeasure.dirac


class TestWasserstein1:
    def test_single_pair(self):
        assert wasserstein1(d([0.0]), d([1.0]))[0] == pytest.approx(1.0)

    def test_identity(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([2.5], 0.5)])
        dist, plan = wasserstein1(m, m)
        assert dist == 0.0
        assert plan.total_flow() == pytest.approx(m.mass())

    def test_split_merge(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([2.0], 0.5)])
        assert wasserstein1(m, d([1.0]))[0] == pytest.approx(1.0)

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            wasserstein1(d([0.0]), d([1.0], 2.0))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wasserstein1(d([0.0]), d([0.0, 0.0]))

    def test_empty_pair(self):
        dist, plan = wasserstein1(DiscreteMeasure.empty(1), DiscreteMeasure.empty(1))
        assert dist == 0.0 and plan.entries == ()

    def test_plan_marginals(self, rng):
        m1 = random_measure(rng, 8)
        w = rng.uniform(0.1, 1.0, 5)
        w *= m1.mass() / w.sum()
        m2 = DiscreteMeasure.from_atoms(
            [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-5, 5, 5), w)]
        )
        dist, plan = wasserstein1(m1, m2)
        assert plan.row_sums(len(m1.atoms)) == pytest.approx(list(m1.weights()), abs=1e-9)
        assert plan.col_sums(len(m2.atoms)) == pytest.approx(list(m2.weights()), abs=1e-9)
        assert dist == pytest.approx(plan.cost)

    def test_2d_instance(self, rng):
        pts = [([0.0, 0.0], 1.0), ([1.0, 0.0], 1.0)]
        m1 = DiscreteMeasure.from_atoms(pts)
        m2 = DiscreteMeasure.from_atoms([([0.0, 1.0], 1.0), ([1.0, 1.0], 1.0)])
        assert wasserstein1(m1, m2)[0] == pytest.approx(2.0)

    @given(equal_mass_pairs_1d())
    def test_lp_matches_cdf_oracle(self, pair):
        m1, m2 = pair
        assert wasserstein1(m1, m2)[0] == pytest.approx(
            wasserstein1_1d(m1, m2), abs=1e-9
        )

    @given(equal_mass_pairs_1d())
    def test_symmetry(self, pair):
        m1, m2 = pair
        assert wasserstein1(m1, m2)[0] == pytest.approx(
            wasserstein1(m2, m1)[0], abs=1e-9
        )

    def test_triangle_inequality(self, rng):
        for _ in range(40):
            w = rng.uniform(0.1, 1.0, 6)
            ms = []
            for _ in range(3):
                ms.append(
                    DiscreteMeasure.from_atoms(
                        [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-5, 5, 6), w)]
                    )
                )
            ab = wasserstein1(ms[0], ms[1])[0]
            bc = wasserstein1(ms[1], ms[2])[0]
            ac = wasserstein1(ms[0], ms[2])[0]
            assert ac <= ab + bc + 1e-9

    def test_mass_scaling(self, rng):
        m1 = random_measure(rng, 5)
        w = rng.uniform(0.1, 1.0, 4)
        w *= m1.mass() / w.sum()
        m2 = DiscreteMeasure.from_atoms(
            [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-5, 5, 4), w)]
        )
        base = wasserstein1(m1, m2)[0]
        for k in (0.5, 2.0, 3.75):
            assert wasserstein1(m1.scale(k), m2.scale(k))[0] == pytest.approx(
                k * base, rel=1e-9
            )

    def test_identity_of_indiscernibles(self, rng):
        m = random_measure(rng, 6)
        assert wasserstein1(m, m)[0] == 0.0


def _shared_lattice_pair(rng, n: int, dim: int, equal_weights: bool):
    """Two unit-mass measures of n atoms on the lattice (Z / 16)^dim that
    share 30% to 70% of their atoms."""
    side = 400 if dim == 1 else 40
    cells = rng.choice(side**dim, size=2 * n, replace=False)
    shared = int(rng.integers(math.ceil(0.3 * n), math.floor(0.7 * n) + 1))
    measures = []
    for chosen in (cells[:n], np.concatenate([cells[:shared], cells[n:2 * n - shared]])):
        points = np.stack(np.unravel_index(chosen, (side,) * dim), axis=1) / 16.0 - 2.0
        w = np.ones(n) if equal_weights else rng.uniform(0.2, 1.0, n)
        w /= w.sum()
        measures.append(DiscreteMeasure.from_atoms(
            [(tuple(p), float(wi)) for p, wi in zip(points.tolist(), w)], dim=dim))
    return measures, shared


def _lp_w1(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """W1 as the dense transportation LP, solved by HiGHS."""
    x, y = m1.positions_array(), m2.positions_array()
    cost = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    m, n = cost.shape
    res = linprog(
        cost.reshape(-1),
        A_eq=np.vstack([np.kron(np.eye(m), np.ones((1, n))), np.kron(np.ones((1, m)), np.eye(n))]),
        b_eq=np.concatenate([m1.weights_array(), m2.weights_array()]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestSharedAtoms:
    """Lattice states that share atoms are solved on all their atoms."""

    @pytest.mark.parametrize("equal_weights", [True, False])
    @pytest.mark.parametrize("n", [60, 90])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_value_and_marginals(self, seed, dim, n, equal_weights):
        rng = np.random.default_rng([seed, dim, n, equal_weights])
        (m1, m2), shared = _shared_lattice_pair(rng, n, dim, equal_weights)
        common = {pos for pos, _ in m1.atoms} & {pos for pos, _ in m2.atoms}
        assert len(common) == shared >= 0.3 * n
        value, plan = wasserstein1(m1, m2)
        want = wasserstein1_1d(m1, m2) if dim == 1 else _lp_w1(m1, m2)
        assert abs(value - want) <= (1e-12 if dim == 1 else 1e-9) * want
        assert value == plan.cost
        assert plan.row_sums(n) == pytest.approx(list(m1.weights()), rel=0, abs=1e-15)
        assert plan.col_sums(n) == pytest.approx(list(m2.weights()), rel=0, abs=1e-15)


class TestCdfOracle:
    def test_single_pair(self):
        assert wasserstein1_1d(d([0.0]), d([1.0])) == pytest.approx(1.0)

    def test_identical_sum(self):
        m = DiscreteMeasure.from_atoms([([0.0], 1.0), ([1.0], 1.0)])
        assert wasserstein1_1d(m, m) == 0.0

    def test_breakpoint_integral(self):
        m1 = DiscreteMeasure.from_atoms([([0.0], 0.25), ([4.0], 0.75)])
        m2 = DiscreteMeasure.from_atoms([([0.0], 0.75), ([4.0], 0.25)])
        assert wasserstein1_1d(m1, m2) == pytest.approx(2.0)

    def test_uniform_comparison_against_quantile_atoms(self):
        # quantile discretization of the uniform distribution converges to it
        prev = None
        for n in (10, 100, 1000):
            atoms = [(((i + 0.5) / n - 0.5,), 1.0 / n) for i in range(n)]
            mu = DiscreteMeasure.from_atoms(atoms)
            dist = wasserstein1_1d_uniform(mu, -0.5, 0.5)
            assert dist == pytest.approx(0.25 / n, rel=1e-6)
            if prev is not None:
                assert dist < prev
            prev = dist


class TestDualLowerBound:
    def test_constant_annihilates(self):
        m1 = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.5)])
        m2 = d([0.5])
        assert dual_lower_bound(m1, m2, lambda x: 3.0 * 0 + 0.7) == pytest.approx(0.0)

    def test_tight_certificate_1d(self):
        value = dual_lower_bound(d([0.0]), d([1.0]), lambda x: x[0])
        assert value == pytest.approx(-1.0)
        assert abs(value) == pytest.approx(wasserstein1(d([0.0]), d([1.0]))[0])

    def test_weak_duality_randomized(self, rng):
        for _ in range(25):
            m1 = random_measure(rng, 5)
            w = rng.uniform(0.1, 1.0, 5)
            w *= m1.mass() / w.sum()
            m2 = DiscreteMeasure.from_atoms(
                [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-5, 5, 5), w)]
            )
            anchors = rng.uniform(-5, 5, 3)

            def f(x, anchors=anchors):
                return min(abs(float(x[0]) - a) for a in anchors)

            assert dual_lower_bound(m1, m2, f) <= wasserstein1(m1, m2)[0] + 1e-9

    def test_violation_detected(self):
        with pytest.raises(LipschitzViolation):
            dual_lower_bound(d([0.0]), d([1.0]), lambda x: 5.0 * x[0])

    def test_one_call_per_point(self):
        calls = []

        def f(x):
            calls.append(1)
            return float(x[0])

        m1 = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.5)])
        assert dual_lower_bound(m1, d([0.25]), f) == pytest.approx(0.25)
        assert len(calls) == 3


class TestLipschitzValues:
    def test_300_points_against_pairwise_loop(self, rng):
        points = rng.uniform(-2.0, 2.0, size=(300, 2))
        anchors = rng.uniform(-2.0, 2.0, size=(4, 2))

        def f(x):  # 1-Lipschitz: the distance to the anchors
            return min(math.dist(x, a) for a in anchors)

        values, lip = lipschitz_values(f, points, lip_bound=1.0, sup_bound=5.0)
        assert values.tolist() == [f(p) for p in points]
        pairs = [(a, b) for a in range(300) for b in range(a + 1, 300)]
        brute = max(abs(values[a] - values[b]) / math.dist(points[a], points[b])
                    for a, b in pairs)
        assert lip == pytest.approx(brute, rel=1e-12) and lip <= 1.0
        top = float(np.abs(values).max())
        lipschitz_values(f, points, lip_bound=brute, sup_bound=top)
        with pytest.raises(LipschitzViolation):
            lipschitz_values(f, points, lip_bound=brute * (1 - 1e-6))
        with pytest.raises(LipschitzViolation):
            lipschitz_values(f, points, sup_bound=top * (1 - 1e-6))

    def test_coincident_and_too_few_points(self):
        values, lip = lipschitz_values(lambda x: 1.0, np.zeros((2, 1)), lip_bound=0.0)
        assert values.tolist() == [1.0, 1.0] and lip == 0.0
        assert lipschitz_values(lambda x: 1.0, np.zeros((0, 2)))[1] == 0.0
        close = np.array([[0.0], [0.0], [1e-3]])
        assert lipschitz_values(lambda x: 5.0 * x[0], close)[1] == pytest.approx(5.0)


def _kernel_inputs(dim):
    """(x, y) row sets with ``dim`` coordinates: random, lattice-aligned
    (many equal coordinates), mixed magnitudes, squares that overflow to inf,
    and an empty side each way."""
    rng = np.random.default_rng(dim)
    yield rng.normal(0.0, 3.0, (30, dim)), rng.normal(0.0, 3.0, (25, dim))
    yield rng.integers(-4, 5, (40, dim)) / 8, rng.integers(-4, 5, (35, dim)) / 8
    mixed = [rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, (n, dim)) for n in (30, 20)]
    yield tuple(mixed)
    yield rng.choice([-1e200, 1e-3, 1e155, 2.0], (12, dim)), rng.choice([1e200, -1e155, 0.5], (10, dim))
    yield np.zeros((0, dim)), rng.normal(size=(7, dim))
    yield rng.normal(size=(7, dim)), np.zeros((0, dim))


def _bits(array):
    return array.shape, array.tobytes()


class TestDistanceKernel:
    """``_distances`` against the difference-array formula it replaced,
    and the two callers whose own formulas it replaced."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_bits_of_the_difference_array_sum(self, dim):
        with np.errstate(over="ignore"):
            for x, y in _kernel_inputs(dim):
                diff = x[:, None, :] - y[None, :, :]
                assert _bits(_distances(x, y)) == _bits(np.sqrt(np.sum(diff * diff, axis=2)))

    def test_no_coordinates_give_zeros(self):
        assert _bits(_distances(np.zeros((3, 0)), np.zeros((2, 0)))) == _bits(np.zeros((3, 2)))

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_ball_norms_and_lipschitz_distances_keep_their_bits(self, dim, monkeypatch):
        seen = []
        for module in ("fields", "wasserstein"):
            monkeypatch.setattr(f"measureflow.{module}._distances",
                                lambda x, y: seen.append(_distances(x, y)) or seen[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in _kernel_inputs(dim):
                center = y[0] if len(y) else np.ones(dim)
                Ball(tuple(center.tolist()), 1.0).contains_rows(x)
                assert _bits(seen.pop()[:, 0]) == _bits(np.sqrt(((x - center) ** 2).sum(axis=1)))
                points = np.concatenate([x, y])
                lipschitz_values(lambda p: 0.0, points)
                old = np.sqrt(sum((c[:, None] - c[None, :]) ** 2 for c in points.T))
                assert _bits(seen.pop()) == _bits(old)
