"""Network simplex against an independent LP, on degenerate lattice-style
instances, and against golden pivot outcomes."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from conftest import drift2d, forward_study
from measureflow import _simplex
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


def _check_solution(supply, demand, cost, value, flows, tol=1e-9, lp=_lp_value):
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
    reference = lp(supply, demand, cost)
    assert abs(value - reference) <= tol * max(1.0, abs(reference))


def _weights(rng, n: int, mass: float) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, n)
    return w * (mass / w.sum())


def _count_pivots(monkeypatch) -> list:
    """Spy on the cycle walk, which runs once per pivot; returns its call log."""
    calls = []
    cycle = _simplex._Tree.cycle

    def spy(self, row, col_node):
        calls.append((row, col_node))
        return cycle(self, row, col_node)

    monkeypatch.setattr(_simplex._Tree, "cycle", spy)
    return calls


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
# Exact flows of three small instances that need several pivots from the
# matrix-minimum start, some of them degenerate, recorded from the solver that
# starts there.  Any change to the start or the pivot sequence (pricing,
# tie-breaks, potentials) changes at least one of these bits.


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
            (4, 0): "0x1.a41a41a41a41ap-5",
            (4, 5): "0x1.a41a41a41a41ap-7",
            (5, 3): "0x1.3b13b13b13b14p-4",
            (6, 1): "0x1.6f96f96f96f97p-4",
            (7, 3): "0x1.a41a41a41a41cp-7",
            (7, 6): "0x1.a41a41a41a41ap-6",
            (7, 9): "0x1.0690690690690p-4",
            (8, 0): "0x1.3b13b13b13b14p-5",
            (8, 10): "0x1.3b13b13b13b14p-4",
            (9, 8): "0x1.a41a41a41a41ap-5",
            (9, 11): "0x1.3b13b13b13b12p-4",
            (10, 1): "0x1.0000000000000p-56",
            (10, 3): "0x1.a41a41a41a419p-5",
            (10, 4): "0x1.6f96f96f96f98p-4",
            (11, 2): "0x1.d89d89d89d89ep-4",
            (11, 7): "0x1.3b13b13b13b14p-5",
        },
    ),
    "gw_2d": (
        "-0x1.b4aa01b4cd9e2p+0",
        {
            (0, 1): "0x1.1111111111114p-5",
            (0, 4): "0x1.1111111111110p-4",
            (1, 0): "0x1.5555555555555p-4",
            (1, 1): "0x1.1111111111114p-6",
            (2, 1): "0x1.999999999999ap-4",
            (3, 2): "0x1.999999999999ap-4",
            (4, 3): "0x1.5555555555555p-4",
            (4, 7): "0x1.1111111111114p-6",
            (5, 4): "0x1.999999999999ap-4",
            (6, 5): "0x1.999999999999ap-4",
            (7, 2): "0x1.999999999999ap-4",
            (8, 7): "0x1.999999999999ap-4",
            (9, 8): "0x1.999999999999ap-4",
            (10, 1): "0x1.1111111111104p-6",
            (10, 2): "0x1.9999999999998p-5",
            (10, 5): "0x1.3333333333333p-3",
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
            (9, 2): "0x1.5555555555555p-4",
            (10, 8): "0x1.5555555555555p-4",
            (11, 5): "0x1.5555555555555p-4",
        },
    ),
}



@pytest.mark.parametrize("name, instance", list(_golden_instances()))
def test_golden_flows(name, instance):
    value, flows = solve_transport(*instance)
    want_value, want_flows = GOLDEN[name]
    assert value.hex() == want_value
    assert {arc: f.hex() for arc, f in flows.items()} == want_flows


def test_ratio_test_ties_go_to_the_first_arc():
    """Equal weights on integer points with repeated atoms: the ratio test
    ties, and the first backward arc of the cycle with the least flow leaves.
    A ``<=`` test returns other, equally optimal, flows."""
    x = np.array([[0, 2], [1, 2], [4, 4], [2, 4], [3, 2], [2, 4], [2, 2]], dtype=float)
    y = np.array([[4, 1], [1, 0], [0, 3], [1, 0], [2, 0], [3, 4], [4, 2]], dtype=float)
    w = np.full(7, 1.0 / 7)
    value, flows = solve_transport(w, w, _distances(x, y))
    assert value.hex() == "0x1.d745af9d6b8ebp+0"
    assert sorted(flows) == [(0, 3), (1, 1), (2, 6), (3, 5), (4, 0), (5, 2), (6, 4)]
    assert set(flows.values()) == {1.0 / 7}


def test_golden_instances_take_several_pivots(monkeypatch):
    """The golden flows above pin the pivot sequence only if there is one."""
    pivots = _count_pivots(monkeypatch)
    for _, instance in _golden_instances():
        pivots.clear()
        solve_transport(*instance)
        assert len(pivots) >= 2


# -- the matrix-minimum start -------------------------------------------------------


def _check_start(supply, demand, cost, imbalance=0.0):
    """A spanning tree of m + n - 1 arcs with flows >= 0 on the marginals."""
    m, n = cost.shape
    flows = _simplex._greedy_start(supply, demand, cost)
    assert len(flows) == m + n - 1
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    plan = np.zeros((m, n))
    for arc, f in flows.items():
        i, j = divmod(arc, n)
        ri, rj = find(i), find(m + j)
        assert ri != rj  # no cycle, so m + n - 1 arcs span all nodes
        root[ri] = rj
        assert f >= 0.0
        plan[i, j] = f
    # mass left unshipped: within 1e-12 of none, plus any imbalance
    left = np.concatenate([supply - plan.sum(axis=1), demand - plan.sum(axis=0)])
    assert np.all(left >= -1e-12) and np.all(left <= abs(imbalance) + 1e-12)
    assert left.sum() <= abs(imbalance) + 1e-12
    return flows


class TestGreedyStart:
    @pytest.mark.parametrize("supply, demand, cost, want", [
        # equal costs go by flat index; a zero-flow arc joins the two pieces
        ([0.5, 0.5], [0.5, 0.5], [[1, 0], [0, 1]], [(1, 0.5), (2, 0.5), (0, 0.0)]),
        # a tie closes the row, so column 0 takes a zero flow from row 1
        ([0.5, 0.5], [0.5, 0.25, 0.25], [[0, 2, 3], [1, 4, 5]],
         [(0, 0.5), (3, 0.0), (4, 0.25), (5, 0.25)]),
    ])
    def test_hand_examples(self, supply, demand, cost, want):
        flows = _simplex._greedy_start(np.array(supply), np.array(demand), np.array(cost, float))
        assert list(flows.items()) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_random_2d(self, seed):
        rng = np.random.default_rng(300 + seed)
        m, n = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        x, y = rng.uniform(0, 1, (m, 2)), rng.uniform(0, 1, (n, 2))
        _check_start(_weights(rng, m, 1.0), _weights(rng, n, 1.0), _distances(x, y))

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_equal_weights_exhaust_row_and_column_together(self, k):
        x = TestDegenerate._grid(k, (0, 0))
        w = np.full(k * k, 1.0 / (k * k))
        flows = _check_start(w, w, _distances(x, x + 1.0))
        assert sum(f == 0.0 for f in flows.values()) >= k * k - 1

    def test_zero_weight_atoms(self):
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0, 1, (12, 2)), rng.uniform(0, 1, (10, 2))
        supply, demand = _weights(rng, 12, 1.0), _weights(rng, 10, 1.0)
        supply[[0, 5]] = 0.0
        demand[[3]] = 0.0
        supply *= 1.0 / supply.sum()
        demand *= 1.0 / demand.sum()
        cost = _distances(x, y)
        _check_start(supply, demand, cost)
        _check_solution(supply, demand, cost, *solve_transport(supply, demand, cost))

    @pytest.mark.parametrize("imbalance", [5e-10, -5e-10])
    def test_imbalance(self, imbalance):
        rng = np.random.default_rng(12)
        x, y = rng.uniform(0, 1, (15, 2)), rng.uniform(0, 1, (14, 2))
        supply, demand = _weights(rng, 15, 1.0), _weights(rng, 14, 1.0)
        supply[0] += imbalance
        cost = _distances(x, y)
        _check_start(supply, demand, cost, imbalance)
        value, _ = solve_transport(supply, demand, cost)
        supply[0] -= imbalance
        assert value == pytest.approx(_lp_value(supply, demand, cost), rel=0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 40, 200])
    def test_sorted_balanced_1d_takes_no_pivot(self, monkeypatch, n):
        pivots = _count_pivots(monkeypatch)
        starts = []
        monkeypatch.setattr(_simplex, "_greedy_start", lambda *a: starts.append(a))
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0, 1, n))[:, None]
        y = np.sort(rng.uniform(0, 1, n))[:, None]
        supply, demand = _weights(rng, n, 1.0), _weights(rng, n, 1.0)
        solve_transport(supply, demand, _distances(x, y))
        assert pivots == [] and starts == []

    def test_unsorted_instance_starts_from_greedy(self, monkeypatch):
        starts = []
        greedy = _simplex._greedy_start
        monkeypatch.setattr(_simplex, "_greedy_start", lambda *a: starts.append(a) or greedy(*a))
        x = np.arange(10, dtype=float)[::-1, None]
        w = np.full(10, 0.1)
        value, flows = solve_transport(w, w, _distances(x, x[::-1] + 0.5))
        assert len(starts) == 1
        assert sorted(flows) == [(i, 9 - i) for i in range(10)]
        assert value == pytest.approx(0.5)


def _sparse_lp_value(supply, demand, cost) -> float:
    """``_lp_value`` with sparse constraints, for instances above 50 atoms."""
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    res = linprog(
        cost.reshape(-1),
        A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    assert res.status == 0, res.message
    return float(res.fun)


class TestAboveFiftyAtoms:
    """HiGHS oracle at the sizes the benchmark solves."""

    @pytest.mark.parametrize("seed", range(2))
    def test_w1_2d_n100(self, seed):
        rng = np.random.default_rng(400 + seed)
        x, y = rng.uniform(0, 1, (100, 2)), rng.uniform(0, 1, (100, 2))
        supply, demand = _weights(rng, 100, 1.0), _weights(rng, 100, 1.0)
        cost = _distances(x, y)
        value, flows = solve_transport(supply, demand, cost)
        _check_solution(supply, demand, cost, value, flows, lp=_sparse_lp_value)

    @pytest.mark.parametrize("seed", range(2))
    def test_gw_1d_n150(self, seed):
        rng = np.random.default_rng(500 + seed)
        x, y = rng.uniform(0, 4, (150, 1)), rng.uniform(0, 4, (150, 1))
        supply, demand, cost = _gw_instance(x, _weights(rng, 150, 1.0), y, _weights(rng, 150, 1.3))
        value, flows = solve_transport(supply, demand, cost)
        _check_solution(supply, demand, cost, value, flows, lp=_sparse_lp_value)


# -- Bland's rule -------------------------------------------------------------------


@pytest.mark.parametrize("k, shift", [(4, (1, 0)), (5, (1, 2)), (6, (2, 2))])
def test_bland_rule_on_degenerate_lattice(monkeypatch, k, shift):
    """With a window of one degenerate pivot, Bland's rule takes over on the
    equal-weight lattice instances and still finds the optimum."""
    x, y = TestDegenerate._grid(k, (0, 0)), TestDegenerate._grid(k, shift)
    w = np.full(k * k, 1.0 / (k * k))
    cost = _distances(x, y)
    default, _ = solve_transport(w, w, cost)

    bland_calls = []
    first_negative = _simplex._first_negative

    def spy(reduced, price_tol):
        bland_calls.append(price_tol)
        return first_negative(reduced, price_tol)

    monkeypatch.setattr(_simplex, "_bland_window", lambda m, n: 1)
    monkeypatch.setattr(_simplex, "_first_negative", spy)
    value, flows = solve_transport(w, w, cost)
    assert bland_calls
    assert abs(value - default) <= 1e-12 * max(1.0, abs(default))
    _check_solution(w, w, cost, value, flows)


# -- the start's bookkeeping, against the forms it replaced ---------------------------


def _stable_greedy_start(supply, demand, cost):
    """``_greedy_start`` as first written: one stable argsort, divmod per arc."""
    m, n = cost.shape
    a = supply.astype(float).tolist()
    b = demand.astype(float).tolist()
    order = np.argsort(cost, axis=None, kind="stable").tolist()
    row_open, col_open = [True] * m, [True] * n
    open_rows, open_cols = m, n
    flows = {}
    for arc in order:
        i, j = divmod(arc, n)
        if not (row_open[i] and col_open[j]):
            continue
        f = min(a[i], b[j])
        flows[arc] = max(f, 0.0)
        if a[i] <= b[j]:
            row_open[i] = False
            open_rows -= 1
            b[j] -= f
        else:
            col_open[j] = False
            open_cols -= 1
            a[i] -= f
        if not (open_rows and open_cols):
            break
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for arc in flows:
        i, j = divmod(arc, n)
        root[find(i)] = find(m + j)
    missing = m + n - 1 - len(flows)
    for arc in order:
        if not missing:
            break
        i, j = divmod(arc, n)
        ri, rj = find(i), find(m + j)
        if ri != rj:
            root[ri] = rj
            flows[arc] = 0.0
            missing -= 1
    return flows


def _numpy_staircase(supply, demand):
    """The staircase as first written, on numpy scalars."""
    m, n = len(supply), len(demand)
    a, b = supply.astype(float).copy(), demand.astype(float).copy()
    flows = {}
    i = j = 0
    while True:
        f = min(a[i], b[j])
        flows[i * n + j] = max(f, 0.0)
        a[i] -= f
        b[j] -= f
        if i == m - 1 and j == n - 1:
            return flows
        if j == n - 1:
            i += 1
        elif i == m - 1:
            j += 1
        elif a[i] <= b[j]:
            i += 1
        else:
            j += 1


def _hex_items(flows):
    return [(arc, float(f).hex()) for arc, f in flows.items()]


def _tie_heavy_instances():
    rng = np.random.default_rng(21)
    yield "all_equal", np.full(7, 1 / 7), np.full(5, 1 / 5), np.ones((7, 5))
    grid = TestDegenerate._grid(5, (0, 0))
    w = np.full(25, 1 / 25)
    yield "lattice", w, w, _distances(grid, TestDegenerate._grid(5, (1, 2)))
    yield "lattice_weights", _weights(rng, 25, 1.0), _weights(rng, 25, 1.0), _distances(
        grid, grid[::-1] + 0.5)
    values = np.array([-0.0, 0.0, 0.25, 1.0, 1.0 + 2**-52, 3.0])
    m, n = 30, 24
    yield "duplicated", _weights(rng, m, 1.0), _weights(rng, n, 1.0), rng.choice(values, (m, n))
    yield "row", np.array([1.0]), _weights(rng, 9, 1.0), rng.choice(values, (1, 9))
    yield "column", _weights(rng, 9, 1.0), np.array([1.0]), rng.choice(values, (9, 1))
    x, y = rng.uniform(0, 1, (40, 2)), rng.uniform(0, 1, (35, 2))
    yield "random_2d", _weights(rng, 40, 1.0), _weights(rng, 35, 1.0), _distances(x, y)


@pytest.mark.parametrize("name, supply, demand, cost", list(_tie_heavy_instances()))
def test_greedy_order_matches_stable_sort(name, supply, demand, cost):
    """The same arcs, flows and dict order as a stable argsort gives."""
    want = _stable_greedy_start(supply, demand, cost)
    assert _hex_items(_simplex._greedy_start(supply, demand, cost)) == _hex_items(want)


def _staircase_instances():
    rng = np.random.default_rng(22)
    x, y = rng.uniform(0, 1, (14, 2)), rng.uniform(0, 1, (11, 2))
    supply, demand = _weights(rng, 14, 1.0), _weights(rng, 11, 1.0)
    yield "random_2d", supply, demand, _distances(x, y)
    for imbalance in (5e-10, -5e-10):
        shifted = supply.copy()
        shifted[3] += imbalance
        yield f"imbalance_{imbalance:g}", shifted, demand, _distances(x, y)
    zeros_s, zeros_d = supply.copy(), demand.copy()
    zeros_s[[0, 6]] = 0.0
    zeros_d[[4, 10]] = 0.0
    yield "zero_weights", zeros_s, zeros_d, _distances(x, y) - 2.0
    yield "one_by_one", np.array([0.7]), np.array([0.7]), np.array([[0.3]])


@pytest.mark.parametrize("name, supply, demand, cost", list(_staircase_instances()))
def test_staircase_potentials_match_tree_pass(name, supply, demand, cost):
    """Potentials priced along the staircase path are the bits a breadth-first
    pass over its tree gives, and the flows those of the numpy-scalar form."""
    m, n = cost.shape
    flows, u, v = _simplex._northwest_corner(supply, demand, cost)
    assert _hex_items(flows) == _hex_items(_numpy_staircase(supply, demand))
    _, tree_u, tree_v, _ = _simplex._basis(m, n, flows, cost)
    assert u.tobytes() == tree_u.tobytes()
    assert v.tobytes() == tree_v.tobytes()


# -- warm start ----------------------------------------------------------------


def _drifting_instances(rng, kind: str, n: int, steps: int = 6):
    """One supply and demand, and the costs of ``steps`` small moves of the
    atoms: the W1 shape, or the W^g dummy shape (spread so that some mass is
    removed)."""
    dim = 1 if kind.endswith("1d") else 2
    m = n + int(rng.integers(-3, 4))
    x, y = rng.uniform(0, 1, (m, dim)), rng.uniform(0, 1, (n, dim))
    wx = _weights(rng, m, 1.0)
    wy = _weights(rng, n, 1.0 if kind.startswith("w1") else 1.3)
    for _ in range(steps):
        x = x + rng.normal(0, 0.01, x.shape)
        y = y + rng.normal(0, 0.01, y.shape)
        if kind.startswith("w1"):
            yield wx, wy, _distances(x, y)
        else:
            yield _gw_instance(2 * x, wx, 2 * y, wy)


@pytest.mark.parametrize("n", [10, 40, 80])
@pytest.mark.parametrize("kind", ["w1_1d", "w1_2d", "gw_1d", "gw_2d"])
def test_warm_start_matches_cold(monkeypatch, kind, n):
    rng = np.random.default_rng([n, len(kind), kind.endswith("2d")])
    instances = list(_drifting_instances(rng, kind, n))
    cold = [solve_transport(*instance) for instance in instances]

    starts = []
    staircase = _simplex._northwest_corner
    monkeypatch.setattr(_simplex, "_northwest_corner",
                        lambda *a: starts.append(1) or staircase(*a))
    warm = _simplex.WarmStart()
    for (supply, demand, cost), (want, _) in zip(instances, cold):
        value, flows = solve_transport(supply, demand, cost, warm=warm)
        assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
        _check_solution(supply, demand, cost, value, flows, lp=lambda *a: want)
        assert len(warm.basis) == len(supply) + len(demand) - 1
        assert warm.fits(supply, demand)
    assert starts == [1]  # only the first solve, on an empty carrier, starts cold


@pytest.mark.parametrize("kind", ["w1_2d", "gw_2d"])
def test_bound_prices_the_kept_basis(kind):
    rng = np.random.default_rng([64, len(kind)])
    (supply, demand, cost), *later = _drifting_instances(rng, kind, 30)
    warm = _simplex.WarmStart()
    unbuilt = []
    assert warm.bound(supply, demand, lambda: unbuilt.append(1)) == math.inf  # empty
    value, _ = solve_transport(supply, demand, cost, warm=warm)
    basis, masses = dict(warm.basis), warm.masses
    tolerance = 100 * _simplex._price_tol(cost) * supply.sum()
    # on its own instance the bound is the optimum plus the certificate's tolerance
    assert warm.bound(supply, demand, lambda: cost) == pytest.approx(value + tolerance,
                                                                     rel=1e-12)
    for supply, demand, cost in later:
        bound = warm.bound(supply, demand, lambda: cost)
        priced = math.fsum(f * cost.flat[arc] for arc, f in basis.items())
        tolerance = 100 * _simplex._price_tol(cost) * supply.sum()
        assert bound == pytest.approx(priced + tolerance, rel=1e-12)
        assert solve_transport(supply, demand, cost)[0] <= bound
    assert warm.basis == basis and warm.masses == masses  # bounding keeps the carrier
    moved = supply[::-1].copy()
    assert warm.bound(moved, demand, lambda: unbuilt.append(1)) == math.inf
    assert unbuilt == []  # a carrier that does not fit builds no cost matrix


def _hex_result(result):
    value, flows = result
    return value.hex(), [(arc, f.hex()) for arc, f in flows.items()]


@pytest.mark.parametrize("change", ["shape", "supply", "demand"])
def test_unfit_carrier_gives_the_cold_bits(change):
    rng = np.random.default_rng(61)
    x, y = rng.uniform(0, 1, (30, 2)), rng.uniform(0, 1, (25, 2))
    supply, demand = _weights(rng, 30, 1.0), _weights(rng, 25, 1.0)
    warm = _simplex.WarmStart()
    solve_transport(supply, demand, _distances(x, y), warm=warm)
    if change == "shape":
        x = np.vstack([x, rng.uniform(0, 1, (1, 2))])
        supply = _weights(rng, 31, 1.0)
    elif change == "supply":
        supply = supply[[1, 0, *range(2, 30)]]
    else:
        demand = demand[::-1].copy()
    cost = _distances(x + 0.01, y)
    assert not warm.fits(supply, demand)
    want = solve_transport(supply, demand, cost)
    assert _hex_result(solve_transport(supply, demand, cost, warm=warm)) == _hex_result(want)
    assert warm.fits(supply, demand)  # the new basis was kept


def _captured_sequences(metric: str) -> list[list[tuple]]:
    """The (supply, demand, cost) of every solve of a convergence study's
    forward loop, which solves at every time, one list per carrier, in call
    order."""
    carriers, sequences = [], []

    def spy(supply, demand, cost, *, warm=None, **kwargs):
        if not carriers or carriers[-1] is not warm:  # the loops run one by one
            carriers.append(warm)
            sequences.append([])
        sequences[-1].append((supply, demand, cost))
        return solve_transport(supply, demand, cost, warm=warm, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("measureflow.wasserstein.solve_transport", spy)
        patch.setattr("measureflow.flat.solve_transport", spy)
        forward_study(drift2d(8, 20), (4, 8, 16, 32), 1.0, metric, adaptive_extent=True)
    return sequences


def _rebuilt_carrier(supply, demand, cost, basis):
    """A carrier holding ``basis`` with its tree rebuilt from the dict
    through ``_basis``: the oracle for a kept tree."""
    m, n = cost.shape
    flows = dict(basis)
    carrier = _simplex.WarmStart()
    carrier.keep(supply, demand, flows, _simplex._basis(m, n, flows, cost)[0])
    return carrier


@pytest.mark.parametrize("metric", ["w1", "gw"])
def test_kept_tree_gives_the_bits_of_a_rebuilt_tree(metric):
    sequences = _captured_sequences(metric)
    warm_solves = 0
    for sequence in sequences:
        warm = _simplex.WarmStart()
        for supply, demand, cost in sequence:
            if warm.fits(supply, demand):
                warm_solves += 1
                m, n = cost.shape
                # the kept order prices the tree to the bits of a fresh BFS
                _, u, v, _ = _simplex._basis(m, n, dict(warm.basis), cost)
                kept_u, kept_v = warm.tree.potentials(cost)
                assert kept_u.tobytes() == u.tobytes()
                assert kept_v.tobytes() == v.tobytes()
                oracle = _rebuilt_carrier(supply, demand, cost, warm.basis)
                want = _hex_result(solve_transport(supply, demand, cost, warm=oracle))
                got = _hex_result(solve_transport(supply, demand, cost, warm=warm))
                assert got == want
                assert _hex_items(warm.basis) == _hex_items(oracle.basis)
            else:
                solve_transport(supply, demand, cost, warm=warm)
    assert len(sequences) == 3 and warm_solves >= 25


def test_failed_solve_empties_the_carrier():
    rng = np.random.default_rng(62)
    x, y = rng.uniform(0, 1, (30, 2)), rng.uniform(0, 1, (25, 2))
    supply, demand = _weights(rng, 30, 1.0), _weights(rng, 25, 1.0)
    warm = _simplex.WarmStart()
    solve_transport(supply, demand, _distances(x, y), warm=warm)
    assert warm.fits(supply, demand)
    cost = _distances(rng.uniform(0, 1, (30, 2)), y)  # far from the kept optimum
    with pytest.raises(SimplexError, match="pivot limit"):
        solve_transport(supply, demand, cost, max_iter=1, warm=warm)
    assert not warm.fits(supply, demand)
    assert warm.basis == {} and warm.tree is None
    assert _hex_result(solve_transport(supply, demand, cost, warm=warm)) == _hex_result(
        solve_transport(supply, demand, cost))


def test_staircase_optimal_solve_fills_the_carrier(monkeypatch):
    pivots = _count_pivots(monkeypatch)
    x = np.linspace(0, 1, 12)[:, None]
    supply = demand = np.full(12, 1 / 12)
    warm = _simplex.WarmStart()
    solve_transport(supply, demand, _distances(x, x + 0.05), warm=warm)
    assert pivots == []
    assert warm.fits(supply, demand)
    assert warm.basis == _simplex._northwest_corner(supply, demand, _distances(x, x))[0]
