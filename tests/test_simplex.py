"""Network simplex against an independent LP, on degenerate lattice-style
instances, and against golden pivot outcomes."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from measureflow._simplex import SimplexError, solve_transport
from measureflow.errors import MeasureflowError, SolverError

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _gw_instance(x, wx, y, wy):
    """The dummy-node transport LP of the flat metric (as flat.py builds it):
    removing mass costs 1 per unit on each side, moving it costs distance."""
    m, n = len(wx), len(wy)
    cost = np.zeros((m + 1, n + 1))
    cost[:m, :n] = _distances(x, y) - 2.0
    supply = np.concatenate([wx, [wy.sum()]])
    demand = np.concatenate([wy, [wx.sum()]])
    return supply, demand, cost


def _lp_value(supply, demand, cost) -> float:
    """Dense HiGHS LP of the balanced transportation problem."""
    m, n = cost.shape
    rows = np.kron(np.eye(m), np.ones((1, n)))
    cols = np.kron(np.ones((1, m)), np.eye(n))
    res = linprog(
        cost.reshape(-1),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _check_solution(supply, demand, cost, value, flows, tol=1e-9):
    m, n = cost.shape
    plan = np.zeros((m, n))
    for (i, j), f in flows.items():
        assert f > 0.0
        plan[i, j] = f
    assert len(flows) <= m + n - 1  # a basic solution: at most a tree's arcs
    scale = 1.0 + supply.sum()
    np.testing.assert_allclose(plan.sum(axis=1), supply, rtol=0, atol=tol * scale)
    np.testing.assert_allclose(plan.sum(axis=0), demand, rtol=0, atol=tol * scale)
    assert value == math.fsum(cost[i, j] * f for (i, j), f in flows.items())
    reference = _lp_value(supply, demand, cost)
    assert abs(value - reference) <= tol * max(1.0, abs(reference))


def _weights(rng, n: int, mass: float) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, n)
    return w * (mass / w.sum())


class TestAgainstLinprog:
    @pytest.mark.parametrize("seed", range(6))
    def test_w1_2d(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(10, 51)), int(rng.integers(10, 51))
        x, y = rng.uniform(0, 1, (m, 2)), rng.uniform(0, 1, (n, 2))
        supply, demand = _weights(rng, m, 1.0), _weights(rng, n, 1.0)
        cost = _distances(x, y)
        _check_solution(supply, demand, cost, *solve_transport(supply, demand, cost))

    @pytest.mark.parametrize("seed", range(6))
    def test_gw_2d(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n = int(rng.integers(10, 51)), int(rng.integers(10, 51))
        x, y = rng.uniform(0, 3, (m, 2)), rng.uniform(0, 3, (n, 2))
        supply, demand, cost = _gw_instance(x, _weights(rng, m, 1.0), y, _weights(rng, n, 1.4))
        _check_solution(supply, demand, cost, *solve_transport(supply, demand, cost))


class TestDegenerate:
    """Lattice states: integer-grid points, equal weights, shared atoms."""

    @staticmethod
    def _grid(k: int, shift: tuple[int, int]) -> np.ndarray:
        return np.array([(i + shift[0], j + shift[1]) for i in range(k) for j in range(k)],
                        dtype=float)

    @pytest.mark.parametrize("k, shift", [(3, (0, 0)), (4, (1, 0)), (5, (1, 2)), (6, (2, 2))])
    def test_equal_weights_on_shifted_grids(self, k, shift):
        x, y = self._grid(k, (0, 0)), self._grid(k, shift)
        w = np.full(k * k, 1.0 / (k * k))
        cost = _distances(x, y)
        value, flows = solve_transport(w, w, cost)
        _check_solution(w, w, cost, value, flows)
        if shift == (0, 0):
            assert value == 0.0

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_gw_with_shared_atoms(self, k):
        x = self._grid(k, (0, 0))
        y = np.concatenate([x[::2], self._grid(2, (k, k))])  # half the atoms shared
        supply, demand, cost = _gw_instance(
            x, np.full(len(x), 1.0 / len(x)), y, np.full(len(y), 1.5 / len(y))
        )
        _check_solution(supply, demand, cost, *solve_transport(supply, demand, cost))

    def test_1d_staircase_needs_no_pivot(self):
        x = np.arange(40, dtype=float)[:, None]
        w = np.full(40, 0.025)
        cost = _distances(x, x + 0.5)
        value, flows = solve_transport(w, w, cost, max_iter=1)  # one pricing pass, no pivot
        assert sorted(flows) == [(i, i) for i in range(40)]
        assert value == pytest.approx(0.5)


class TestErrors:
    def test_error_types(self):
        assert issubclass(SimplexError, SolverError)
        assert issubclass(SolverError, MeasureflowError)
        assert issubclass(SolverError, RuntimeError)

    def test_pivot_limit(self):
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0, 1, (12, 2)), rng.uniform(0, 1, (12, 2))
        w = np.full(12, 1.0 / 12)
        with pytest.raises(SimplexError, match="pivot limit"):
            solve_transport(w, w, _distances(x, y), max_iter=1)

    def test_empty_and_shape_mismatch(self):
        assert solve_transport([], [1.0], np.zeros((0, 1))) == (0.0, {})
        with pytest.raises(ValueError):
            solve_transport([1.0], [1.0], np.zeros((2, 1)))


# -- golden pivot outcomes ---------------------------------------------------------
#
# Exact flows of three small instances that need several pivots, some of them
# degenerate, recorded from the solver that rebuilt the whole spanning tree
# on every pivot.  Any change to the pivot sequence (pricing, tie-breaks, the
# ratio test, potentials) changes at least one of these bits.


def _golden_instances():
    k = np.arange(12, dtype=float)
    # 2D W1 on scrambled integer points, weights (k + 1) / 78 on both sides
    x = np.stack([(3 * k) % 7, (5 * k) % 4], axis=1)
    y = np.stack([(2 * k + 1) % 6, (7 * k) % 5], axis=1)
    wx = (k + 1) / 78.0
    wy = np.roll(k + 1, 5) / 78.0
    yield "w1_2d", (wx, wy, _distances(x, y))
    # flat-metric dummy-node instance with shared atoms and unequal masses
    x = np.stack([k[:10] % 4, k[:10] // 4], axis=1)
    y = np.stack([(k[:9] + 1) % 4, k[:9] // 3], axis=1)
    yield "gw_2d", _gw_instance(x, np.full(10, 0.1), y, (k[:9] % 3 + 1) / 12.0)
    # equal weights on a 3x4 grid against twelve other integer points, with
    # ties in the ratio test
    x = np.stack([k % 3, k // 3], axis=1)
    w = np.full(12, 1.0 / 12)
    yield "lattice_equal", (w, w, _distances(x, np.stack([k % 4 + 1, k % 3 + 1], axis=1)))


GOLDEN = {
    "w1_2d": (
        "0x1.3bc66214bc3f7p+0",
        {
            (0, 0): "0x1.a41a41a41a41ap-7",
            (1, 1): "0x1.a41a41a41a41ap-6",
            (2, 2): "0x1.a41a41a41a410p-7",
            (2, 4): "0x1.a41a41a41a418p-7",
            (2, 11): "0x1.a41a41a41a428p-7",
            (3, 4): "0x1.a41a41a41a41ap-5",
            (4, 0): "0x1.a41a41a41a419p-5",
            (4, 1): "0x1.0000000000000p-57",
            (4, 5): "0x1.a41a41a41a41ap-7",
            (5, 3): "0x1.3b13b13b13b14p-4",
            (6, 4): "0x1.6f96f96f96f98p-4",
            (7, 3): "0x1.a41a41a41a41cp-7",
            (7, 6): "0x1.a41a41a41a41ap-6",
            (7, 9): "0x1.0690690690690p-4",
            (8, 0): "0x1.3b13b13b13b14p-5",
            (8, 10): "0x1.3b13b13b13b15p-4",
            (9, 8): "0x1.a41a41a41a41ap-5",
            (9, 11): "0x1.3b13b13b13b13p-4",
            (10, 1): "0x1.6f96f96f96f97p-4",
            (10, 3): "0x1.a41a41a41a419p-5",
            (10, 4): "0x1.0000000000000p-56",
            (11, 2): "0x1.d89d89d89d89ep-4",
            (11, 7): "0x1.3b13b13b13b14p-5",
        },
    ),
    "gw_2d": (
        "-0x1.b4aa01b4cd9e2p+0",
        {
            (0, 0): "0x1.1111111111116p-5",
            (0, 4): "0x1.111111111110fp-4",
            (1, 0): "0x1.9999999999994p-5",
            (1, 1): "0x1.99999999999a0p-5",
            (2, 1): "0x1.999999999999ap-4",
            (3, 2): "0x1.999999999999ap-4",
            (4, 3): "0x1.5555555555555p-4",
            (4, 7): "0x1.1111111111114p-6",
            (5, 4): "0x1.999999999999ap-4",
            (6, 5): "0x1.999999999999ap-4",
            (7, 5): "0x1.999999999999ap-4",
            (8, 7): "0x1.999999999999ap-4",
            (9, 8): "0x1.999999999999ap-4",
            (10, 1): "0x1.11111111110fcp-6",
            (10, 2): "0x1.3333333333333p-3",
            (10, 5): "0x1.9999999999998p-5",
            (10, 6): "0x1.5555555555555p-4",
            (10, 7): "0x1.9999999999996p-5",
            (10, 8): "0x1.3333333333333p-3",
            (10, 9): "0x1.0000000000000p+0",
        },
    ),
    "lattice_equal": (
        "0x1.9a3b8e919ac00p+0",
        {
            (0, 7): "0x1.5555555555555p-4",
            (1, 6): "0x1.5555555555555p-4",
            (2, 3): "0x1.5555555555555p-4",
            (3, 10): "0x1.5555555555555p-4",
            (4, 0): "0x1.5555555555555p-4",
            (5, 9): "0x1.5555555555555p-4",
            (6, 11): "0x1.5555555555555p-4",
            (7, 4): "0x1.5555555555555p-4",
            (8, 1): "0x1.5555555555555p-4",
            (9, 5): "0x1.5555555555555p-4",
            (10, 8): "0x1.5555555555555p-4",
            (11, 2): "0x1.5555555555555p-4",
        },
    ),
}



@pytest.mark.parametrize("name, instance", list(_golden_instances()))
def test_golden_flows(name, instance):
    value, flows = solve_transport(*instance)
    want_value, want_flows = GOLDEN[name]
    assert value.hex() == want_value
    assert {arc: f.hex() for arc, f in flows.items()} == want_flows
