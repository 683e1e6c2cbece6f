import math

import numpy as np
import pytest
from scipy import sparse

import measureflow.fiber
from conftest import random_lifted
from measureflow.errors import MassMismatch
from measureflow.fiber import (
    _marginal_matrix,
    check_ww_inequalities,
    fiber_w,
    fiber_w_solution,
    fiber_wg,
    fiber_wg_solution,
)
from measureflow.flat import generalized_wasserstein
from measureflow.measures import DiscreteMeasure, LiftedMeasure
from measureflow.wasserstein import wasserstein1, wasserstein1_1d

L = LiftedMeasure.from_atoms


class TestFiberW:
    def test_forced_coupling(self):
        V1 = L([([0.0], [2.0], 1.0)])
        V2 = L([([1.0], [5.0], 1.0)])
        assert fiber_w(V1, V2) == pytest.approx(3.0)

    def test_identical_vanishes(self):
        V = L([([0.0], [1.0], 0.5), ([1.0], [-1.0], 0.5)])
        assert fiber_w(V, V) == pytest.approx(0.0, abs=1e-9)

    def test_unique_base_plan_splits_fibers(self):
        a, b, c = 2.0, 3.0, 7.0
        V1 = L([([0.0], [a], 0.5), ([1.0], [a], 0.5)])
        V2 = L([([0.0], [b], 0.5), ([1.0], [c], 0.5)])
        assert fiber_w(V1, V2) == pytest.approx(0.5 * abs(a - b) + 0.5 * abs(a - c))

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            fiber_w(L([([0.0], [0.0], 1.0)]), L([([0.0], [0.0], 2.0)]))

    def test_matching_oracle(self, rng):
        # well-separated base clusters (pair gap << cluster spacing) force a
        # unique optimal base plan: the diagonal matching.  The fiber cost
        # then decomposes into per-pair 1D problems solvable by the CDF
        # formula.  (Generic 1D instances would not do: for cost |x - y| any
        # two flows moving the same direction can be swapped at equal cost,
        # so optimal plans are far from unique.)
        for _ in range(15):
            k = int(rng.integers(2, 5))
            xs = 5.0 * np.arange(k) + rng.uniform(-1, 1, k)
            ys = 5.0 * np.arange(k) + rng.uniform(-1, 1, k)
            fibers1 = [rng.uniform(-2, 2, int(rng.integers(1, 3))) for _ in range(k)]
            fibers2 = [rng.uniform(-2, 2, int(rng.integers(1, 3))) for _ in range(k)]
            atoms1 = [
                ((float(xs[i]),), (float(v),), 1.0 / (k * len(fibers1[i])))
                for i in range(k)
                for v in fibers1[i]
            ]
            atoms2 = [
                ((float(ys[i]),), (float(v),), 1.0 / (k * len(fibers2[i])))
                for i in range(k)
                for v in fibers2[i]
            ]
            V1, V2 = L(atoms1, dim=1), L(atoms2, dim=1)
            expected_parts = []
            for i in range(k):
                f1 = DiscreteMeasure.from_atoms(
                    [((float(v),), 1.0 / (k * len(fibers1[i]))) for v in fibers1[i]]
                )
                f2 = DiscreteMeasure.from_atoms(
                    [((float(v),), 1.0 / (k * len(fibers2[i]))) for v in fibers2[i]]
                )
                expected_parts.append(wasserstein1_1d(f1, f2))
            expected = math.fsum(expected_parts)
            assert fiber_w(V1, V2) == pytest.approx(expected, abs=1e-7)

    def test_plan_marginals(self, rng):
        V1 = random_lifted(rng, 4)
        V2 = random_lifted(rng, 3)
        total = V1.mass()
        scale = total / V2.mass()
        V2 = L([(b, v, w * scale) for b, v, w in V2.atoms], dim=1)
        value, plan = fiber_w_solution(V1, V2)
        assert plan.row_sums(len(V1.atoms)) == pytest.approx(
            [w for _, _, w in V1.atoms], abs=1e-8
        )
        assert plan.col_sums(len(V2.atoms)) == pytest.approx(
            [w for _, _, w in V2.atoms], abs=1e-8
        )
        assert value == pytest.approx(plan.fiber_cost, abs=1e-9)
        # base marginal is (near) optimal for the base problem
        wstar, _ = wasserstein1(V1.base_projection(), V2.base_projection())
        assert plan.cost <= wstar + 1e-6

    def test_eps_monotone_and_cauchy(self):
        V1 = L([([0.0], [1.0], 0.5), ([1.0], [3.0], 0.5)])
        V2 = L([([0.2], [2.0], 0.5), ([1.3], [0.0], 0.5)])
        eps = 1e-6
        values = [fiber_w(V1, V2, eps_opt=eps / 2**k) for k in range(4)]
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-12  # smaller eps -> tighter feasible set
        assert abs(values[-1] - values[-2]) <= 1e-6


class TestFiberWg:
    def test_far_disjoint_supports_vanish(self):
        V1 = L([([0.0], [1.0], 1.0)])
        V2 = L([([10.0], [5.0], 1.0)])
        assert fiber_wg(V1, V2) == pytest.approx(0.0, abs=1e-9)

    def test_near_shift_counterexample(self):
        # distinct lifted measures at zero cost: not a distance
        eps = 0.01
        V1 = L([([0.0], [0.0], 1.0)])
        V2 = L([([eps], [0.0], 1.0)])
        assert V1 != V2
        assert fiber_wg(V1, V2) == pytest.approx(0.0, abs=1e-9)

    def test_identical_vanishes(self):
        V = L([([0.0], [2.0], 0.5), ([0.5], [-1.0], 0.25)])
        assert fiber_wg(V, V) == pytest.approx(0.0, abs=1e-9)

    def test_empty_side(self):
        assert fiber_wg(LiftedMeasure.empty(1), L([([0.0], [1.0], 1.0)])) == 0.0

    def test_coincides_with_fiber_w_when_singular_and_near(self, rng):
        # equal masses, supports within distance < 2, no shared base points:
        # the unique flat-metric minimizer keeps everything
        for _ in range(10):
            k = int(rng.integers(1, 4))
            w = rng.uniform(0.1, 0.5, k)
            xs = rng.uniform(0.0, 0.4, k)
            ys = rng.uniform(0.5, 0.9, k)
            V1 = L(
                [((float(x),), (float(v),), float(wi))
                 for x, v, wi in zip(xs, rng.uniform(-1, 1, k), w)],
                dim=1,
            )
            V2 = L(
                [((float(y),), (float(v),), float(wi))
                 for y, v, wi in zip(ys, rng.uniform(-1, 1, k), w)],
                dim=1,
            )
            assert fiber_wg(V1, V2) == pytest.approx(fiber_w(V1, V2), abs=1e-6)

    def test_budget_constraint_respected(self, rng):
        for _ in range(10):
            V1 = random_lifted(rng, 3)
            V2 = random_lifted(rng, 3)
            value, plan = fiber_wg_solution(V1, V2)
            gstar = generalized_wasserstein(
                V1.base_projection(), V2.base_projection()
            ).distance
            flow = plan.total_flow()
            achieved = (V1.mass() - flow) + (V2.mass() - flow) + plan.cost
            assert achieved <= gstar + 1e-6


class TestWwInequalities:
    def test_identical(self):
        V = L([([0.0], [1.0], 0.5), ([1.0], [0.0], 0.5)])
        assert check_ww_inequalities(V, V)

    def test_counterexample_pair_strict_slack(self):
        eps = 0.01
        V1 = L([([0.0], [0.0], 1.0)])
        V2 = L([([eps], [0.0], 1.0)])
        assert check_ww_inequalities(V1, V2)
        # left side strictly below: W(V1,V2) = eps > 0 = fiber, W(base) = eps
        lhs = wasserstein1(V1.as_joint(), V2.as_joint())[0]
        rhs = fiber_w(V1, V2) + wasserstein1(
            V1.base_projection(), V2.base_projection()
        )[0]
        assert lhs <= rhs + 1e-9

    def test_randomized_equal_mass(self, rng):
        for _ in range(20):
            k1, k2 = rng.integers(1, 6, 2)
            w1 = rng.uniform(0.1, 1.0, k1)
            w2 = rng.uniform(0.1, 1.0, k2)
            w2 *= w1.sum() / w2.sum()
            V1 = random_lifted(rng, int(k1), weights=[float(x) for x in w1])
            V2 = random_lifted(rng, int(k2), weights=[float(x) for x in w2])
            assert check_ww_inequalities(V1, V2)

    def test_randomized_unbalanced(self, rng):
        for _ in range(15):
            V1 = random_lifted(rng, int(rng.integers(1, 5)))
            V2 = random_lifted(rng, int(rng.integers(1, 5)))
            assert check_ww_inequalities(V1, V2)


class TestMarginalMatrix:
    @staticmethod
    def _dense(n1, n2):
        """The dense construction the sparse one replaced."""
        rows = np.zeros((n1, n1 * n2))
        for i in range(n1):
            rows[i, i * n2 : (i + 1) * n2] = 1.0
        cols = np.zeros((n2, n1 * n2))
        for j in range(n2):
            cols[j, j::n2] = 1.0
        return rows, cols

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 4), (3, 1), (2, 3), (4, 4), (5, 7)])
    def test_equals_dense_build(self, n1, n2):
        rows, cols = _marginal_matrix(n1, n2)
        want_rows, want_cols = self._dense(n1, n2)
        assert sparse.issparse(rows) and sparse.issparse(cols)
        np.testing.assert_array_equal(rows.toarray(), want_rows)
        np.testing.assert_array_equal(cols.toarray(), want_cols)
        x = np.arange(n1 * n2, dtype=float)
        np.testing.assert_array_equal(rows @ x, x.reshape(n1, n2).sum(axis=1))
        np.testing.assert_array_equal(cols @ x, x.reshape(n1, n2).sum(axis=0))

    def test_lps_get_sparse_constraints(self, rng, monkeypatch):
        seen = []
        real = measureflow.fiber.linprog

        def spy(*args, **kwargs):
            seen.append(kwargs.get("A_eq", kwargs.get("A_ub")))
            return real(*args, **kwargs)

        monkeypatch.setattr(measureflow.fiber, "linprog", spy)
        V1 = random_lifted(rng, 4, weights=[0.25] * 4)
        V2 = random_lifted(rng, 5, weights=[0.2] * 5)
        fiber_w(V1, V2)
        fiber_wg(V1, V2)
        assert len(seen) == 2 and all(sparse.issparse(a) for a in seen)
