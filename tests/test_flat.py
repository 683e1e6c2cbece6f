import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given

from conftest import measures_1d, random_measure
from measureflow.errors import DimensionMismatch, LipschitzViolation
from measureflow._simplex import WarmStart
from measureflow.flat import (GwInstance, _solution_from_entries, generalized_wasserstein,
                              gw_dual_probe, integral_bound_check)
from measureflow.measures import WEIGHT_FLOOR, DiscreteMeasure
from measureflow.wasserstein import W1Instance, _distances, _optimal_entries, wasserstein1

d = DiscreteMeasure.dirac


def gw_bruteforce(m1, m2, unit):
    """Exhaustive search over integer-quantized transported-mass matrices.

    Exact when all weights are multiples of ``unit``: the constraint matrix
    of the partial-transport polytope is totally unimodular, so the optimum
    sits at an integer vertex of the scaled problem.
    """
    a = [round(w / unit) for w in m1.weights()]
    b = [round(w / unit) for w in m2.weights()]
    X = m1.positions_array()
    Y = m2.positions_array()
    C = np.sqrt(np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)) - 2.0
    best = math.inf
    ranges = [range(min(ai, bj) + 1) for ai in a for bj in b]
    n1, n2 = len(a), len(b)
    for combo in product(*ranges):
        M = np.array(combo).reshape(n1, n2)
        if (M.sum(axis=1) <= a).all() and (M.sum(axis=0) <= b).all():
            best = min(best, float((M * C).sum()) * unit)
    return best + m1.mass() + m2.mass()


class TestGeneralizedWasserstein:
    def test_against_empty_removes_all(self):
        sol = generalized_wasserstein(d([0.0]), DiscreteMeasure.empty(1))
        assert sol.distance == pytest.approx(1.0)
        assert sol.kept1.removed_mass == pytest.approx(1.0)
        assert sol.plan.entries == ()

    def test_removal_beats_far_transport(self):
        assert generalized_wasserstein(d([0.0]), d([3.0])).distance == pytest.approx(2.0)

    def test_transport_beats_removal_when_close(self):
        sol = generalized_wasserstein(d([0.0]), d([1.0]))
        assert sol.distance == pytest.approx(1.0)
        assert sol.plan.entries == ((0, 0, 1.0),)

    def test_atomic_against_zero_equals_mass(self, rng):
        m = random_measure(rng, 5)
        sol = generalized_wasserstein(m, DiscreteMeasure.empty(1))
        assert sol.distance == pytest.approx(m.mass())

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            generalized_wasserstein(d([0.0]), d([0.0, 0.0]))

    def test_bruteforce_oracle(self, rng):
        worst = 0.0
        for _ in range(60):
            m1 = random_measure(rng, int(rng.integers(1, 4)), unit=0.25)
            m2 = random_measure(rng, int(rng.integers(1, 4)), unit=0.25)
            lp = generalized_wasserstein(m1, m2).distance
            bf = gw_bruteforce(m1, m2, 0.25)
            worst = max(worst, abs(lp - bf))
        assert worst <= 1e-7

    def test_witness_identity(self, rng):
        for _ in range(25):
            m1 = random_measure(rng, int(rng.integers(1, 7)))
            m2 = random_measure(rng, int(rng.integers(1, 7)))
            sol = generalized_wasserstein(m1, m2)
            recomposed = math.fsum(
                [sol.kept1.removed_mass, sol.kept2.removed_mass, sol.plan.cost]
            )
            assert sol.distance == recomposed
            assert sol.kept1.dominated_by(m1)
            assert sol.kept2.dominated_by(m2)
            assert sol.kept1.kept.mass() == pytest.approx(
                sol.kept2.kept.mass(), abs=1e-9
            )

    @given(measures_1d(), measures_1d())
    def test_mass_gap_lower_bound(self, m1, m2):
        gw = generalized_wasserstein(m1, m2).distance
        assert abs(m1.mass() - m2.mass()) <= gw + 1e-9

    @given(measures_1d(), measures_1d())
    def test_total_mass_upper_bound(self, m1, m2):
        gw = generalized_wasserstein(m1, m2).distance
        assert gw <= m1.mass() + m2.mass() + 1e-9

    def test_equal_mass_below_w1(self, rng):
        for _ in range(25):
            m1 = random_measure(rng, 5)
            w = rng.uniform(0.1, 1.0, 5)
            w *= m1.mass() / w.sum()
            m2 = DiscreteMeasure.from_atoms(
                [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-5, 5, 5), w)]
            )
            assert (
                generalized_wasserstein(m1, m2).distance
                <= wasserstein1(m1, m2)[0] + 1e-9
            )

    def test_metric_axioms(self, rng):
        for _ in range(30):
            ms = [random_measure(rng, int(rng.integers(1, 6))) for _ in range(3)]
            ab = generalized_wasserstein(ms[0], ms[1]).distance
            ba = generalized_wasserstein(ms[1], ms[0]).distance
            bc = generalized_wasserstein(ms[1], ms[2]).distance
            ac = generalized_wasserstein(ms[0], ms[2]).distance
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ac <= ab + bc + 1e-9
        m = random_measure(rng, 4)
        assert generalized_wasserstein(m, m).distance == pytest.approx(0.0, abs=1e-12)

    def test_flow_estimate(self, rng):
        # Lipschitz flows of v(x) = x/2 and w(x) = x/2 + 0.3: closed-form
        # exponential flows, L = 1/2, sup|v - w| = 0.3
        L, gap = 0.5, 0.3
        for t in (0.2, 0.5, 1.0):
            for _ in range(5):
                mu = random_measure(rng, 4, span=2.0)
                nu = random_measure(rng, 4, span=2.0)
                phi_mu = mu.pushforward(lambda x: x * math.exp(L * t))
                psi_nu = nu.pushforward(
                    lambda x: x * math.exp(L * t) + gap * (math.exp(L * t) - 1) / L
                )
                lhs = generalized_wasserstein(phi_mu, psi_nu).distance
                rhs = math.exp(L * t) * generalized_wasserstein(mu, nu).distance
                rhs += (math.exp(L * t) - 1) / L * mu.mass() * gap
                assert lhs <= rhs + 1e-9


class TestDualProbe:
    def test_removal_certificate(self):
        mu = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.7)])
        value = gw_dual_probe(mu, DiscreteMeasure.empty(1), lambda x: 1.0)
        assert value == pytest.approx(mu.mass())
        assert value <= generalized_wasserstein(mu, DiscreteMeasure.empty(1)).distance + 1e-9

    def test_zero_function(self):
        assert gw_dual_probe(d([0.0]), d([2.0]), lambda x: 0.0) == 0.0

    def test_clipped_coordinate_tight(self):
        value = gw_dual_probe(d([0.0]), d([1.0]), lambda x: max(-1.0, min(1.0, x[0])))
        assert abs(value) == pytest.approx(
            generalized_wasserstein(d([0.0]), d([1.0])).distance
        )

    def test_weak_duality_randomized(self, rng):
        for _ in range(25):
            m1 = random_measure(rng, 4)
            m2 = random_measure(rng, 4)
            shift = float(rng.uniform(-2, 2))

            def f(x, s=shift):
                return max(-1.0, min(1.0, float(x[0]) - s))

            assert gw_dual_probe(m1, m2, f) <= generalized_wasserstein(m1, m2).distance + 1e-9

    def test_sup_violation_flagged(self):
        with pytest.raises(LipschitzViolation):
            gw_dual_probe(d([0.0]), d([5.0]), lambda x: 3.0 + 0.0 * x[0])

    def test_lipschitz_violation_flagged(self):
        with pytest.raises(LipschitzViolation):
            gw_dual_probe(d([0.0]), d([0.25]), lambda x: math.sin(4.0 * x[0]))


class TestIntegralBound:
    def test_constant(self, rng):
        m1, m2 = random_measure(rng, 3), random_measure(rng, 3)
        assert integral_bound_check(lambda x: 0.8, m1, m2)

    def test_coordinate(self):
        assert integral_bound_check(lambda x: x[0], d([0.0]), d([1.0]))

    def test_randomized_smooth(self, rng):
        for _ in range(100):
            m1 = random_measure(rng, int(rng.integers(1, 5)))
            m2 = random_measure(rng, int(rng.integers(1, 5)))
            a, b = rng.uniform(0.2, 3.0, 2)

            def f(x, a=a, b=b):
                return a * math.sin(b * float(x[0]))

            assert integral_bound_check(f, m1, m2)


def test_distance_matrix_built_once(monkeypatch):
    """Equal masses too far apart for the W1 fast path: the distances that
    rule it out are the ones the transport LP uses."""
    calls = []
    positions = DiscreteMeasure.positions_array
    monkeypatch.setattr(
        DiscreteMeasure, "positions_array", lambda self: calls.append(self) or positions(self)
    )
    m1 = DiscreteMeasure.from_atoms([((0.0,), 0.5), ((3.0,), 0.5)])
    m2 = DiscreteMeasure.from_atoms([((0.5,), 0.5), ((9.0,), 0.5)])
    assert generalized_wasserstein(m1, m2).distance == pytest.approx(0.25 + 0.5 + 0.5)
    assert len(calls) == 2


def test_fast_path_builds_the_distance_matrix_once(monkeypatch):
    """Equal masses within distance 2: one distance matrix per W^g, and the
    bits of the solution built from ``wasserstein1``'s plan."""
    rng = np.random.default_rng(43)
    pairs = [
        tuple(DiscreteMeasure.from_atoms(
            [(tuple(p), 0.125) for p in rng.uniform(-0.5, 0.5, (n, dim)).tolist()], dim=dim)
            for _ in range(2))
        for dim, n in ((1, 6), (2, 20), (3, 12))
    ]
    solutions = []
    with monkeypatch.context() as patch:
        calls, fast_path = [], []
        patch.setattr("measureflow.flat._optimal_entries",
                      lambda *args: fast_path.append(1) or _optimal_entries(*args))
        for module in ("flat", "wasserstein"):
            patch.setattr(f"measureflow.{module}._distances",
                          lambda x, y: calls.append(1) or _distances(x, y))
        for m1, m2 in pairs:
            solutions.append(generalized_wasserstein(m1, m2))
        assert len(calls) == len(fast_path) == len(pairs)
    for (m1, m2), sol in zip(pairs, solutions):
        want = _solution_from_entries(m1, m2, list(wasserstein1(m1, m2)[1].entries))
        assert repr(sol) == repr(want)  # float reprs round-trip: equal bits


def _kept_from_atoms(measure, plan, side):
    """A kept part the long way: each atom capped at the flow through it,
    canonicalized by ``from_atoms``; also the weights before the floor."""
    parts = [[] for _ in measure.atoms]
    for entry in plan.entries:
        parts[entry[side]].append(entry[2])
    weights = [min(math.fsum(p), w) for (_, w), p in zip(measure.atoms, parts)]
    atoms = [(pos, w) for (pos, _), w in zip(measure.atoms, weights) if w > 0]
    return DiscreteMeasure.from_atoms(atoms, dim=measure.dim), weights


def _kept_part_pairs():
    rng = np.random.default_rng(31)
    for dim, offset in ((1, 0.0), (2, 0.0), (1, 9997.3), (2, -9998.6)):
        # coordinates near 1e4 are spaced wider than the 1e-12 quantum
        yield tuple(
            DiscreteMeasure.from_atoms(
                [(tuple(c + offset for c in pos), w) for pos, w in m.atoms], dim=dim)
            for m in (random_measure(rng, 25, dim, 2.0), random_measure(rng, 20, dim, 2.0))
        )
    # equal masses within distance 2: the W1 fast path
    yield (DiscreteMeasure.from_atoms([((0.0,), 0.5), ((0.7,), 0.5)]),
           DiscreteMeasure.from_atoms([((0.2,), 0.25), ((0.9,), 0.75)]))
    # the far atom of m1 ships the 2**-52 left at 0 rather than be removed:
    # its flow is below WEIGHT_FLOOR
    yield (DiscreteMeasure.from_atoms([((0.0,), 1.0 - 2**-52), ((0.5,), 1.0)]),
           DiscreteMeasure.from_atoms([((0.0,), 1.0)]))


def test_kept_parts_equal_from_atoms(monkeypatch):
    fast_path = []
    monkeypatch.setattr("measureflow.flat._optimal_entries",
                        lambda *args: fast_path.append(1) or _optimal_entries(*args))
    below_floor = 0
    for m1, m2 in _kept_part_pairs():
        sol = generalized_wasserstein(m1, m2)
        for side, measure, kept in ((0, m1, sol.kept1.kept), (1, m2, sol.kept2.kept)):
            want, weights = _kept_from_atoms(measure, sol.plan, side)
            assert kept.dim == want.dim
            assert [(pos, w.hex()) for pos, w in kept.atoms] == [
                (pos, w.hex()) for pos, w in want.atoms]
            below_floor += sum(0 < w < WEIGHT_FLOOR for w in weights)
    assert fast_path == [1]
    assert below_floor >= 1


@pytest.mark.parametrize("cls, span, mass2", [
    (W1Instance, 2.0, 1.0),
    (GwInstance, 0.3, 1.0),  # equal masses within distance 2: the fast path
    (GwInstance, 2.0, 1.0),  # atoms farther apart than 2: the dummy instance
    (GwInstance, 0.3, 1.5),  # unequal masses: the dummy instance
])
def test_instance_bound_and_solve_share_one_matrix(monkeypatch, cls, span, mass2):
    """The bound of a carrier that fits builds the matrix the solve then
    uses; a carrier that fits neither instance builds none.  The distance
    never exceeds the bound."""
    rng = np.random.default_rng([65, int(10 * span), int(10 * mass2)])

    def measure(points, mass):
        return DiscreteMeasure.from_atoms([(tuple(p), mass / len(points)) for p in points])

    x, y = rng.uniform(-span, span, (20, 2)), rng.uniform(-span, span, (15, 2))
    warm = WarmStart()
    cls(measure(x, 1.0), measure(y, mass2)).distance(warm)
    calls = []
    module = "wasserstein" if cls is W1Instance else "flat"
    monkeypatch.setattr(f"measureflow.{module}._distances",
                        lambda a, b: calls.append(1) or _distances(a, b))
    moved = cls(measure(x + 0.01, 1.0), measure(y, mass2))
    bound = moved.bound(warm)
    assert calls == [1] and bound < math.inf
    assert moved.distance(warm) <= bound
    assert calls == [1]
    reweighted = cls(measure(x[1:], 1.0), measure(y, mass2))
    assert reweighted.bound(warm) == math.inf
    assert calls == [1]
