
import math

import numpy as np
import pytest
from hypothesis import given

from conftest import equal_mass_pairs_1d, random_measure
from measureflow.errors import DimensionMismatch, LipschitzViolation, MassMismatch
from measureflow.measures import DiscreteMeasure
from measureflow.wasserstein import (
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
