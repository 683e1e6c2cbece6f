"""Generalized Wasserstein distance (flat metric, a = b = 1, p = 1).

Mass may be removed from either side at unit cost per unit mass, or
transported at cost |x - y|.  The two-level infimum over kept parts reduces
to a single partial-transport LP: flows pi_ij >= 0 with row sums <= weights
of m1 and column sums <= weights of m2, objective

    sum pi_ij (|x_i - y_j| - 2)  +  |m1|  +  |m2|,

which the solver runs as a balanced transportation instance with one dummy
source and one dummy sink absorbing removed mass at zero cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._simplex import WarmStart, solve_transport
from .errors import DimensionMismatch
from .measures import WEIGHT_FLOOR, DiscreteMeasure, SignedDecomposition
from .wasserstein import TransportPlan, lipschitz_values, signed_integral, wasserstein1

# Fast path: equal masses with all support points strictly closer than the
# removal threshold 2 means the optimum removes nothing and W^g = W1.
_FULL_TRANSPORT_DIAMETER = 2.0 * (1.0 - 1e-9)
_EQUAL_MASS_TOL = 1e-12


@dataclass(frozen=True)
class GwSolution:
    """Optimal value plus the attaining decomposition and plan.

    ``distance`` equals ``kept1.removed_mass + kept2.removed_mass +
    plan.cost`` by construction (single fsum).  Plan indices refer to the
    canonical atom lists of the two input measures.
    """

    distance: float
    kept1: SignedDecomposition
    kept2: SignedDecomposition
    plan: TransportPlan


def _kept_atoms(measure, parts):
    """Each atom capped at the flow through it, without those under the floor."""
    kept = []
    for (pos, w), flows in zip(measure.atoms, parts):
        w = min(math.fsum(flows), w)
        if w >= WEIGHT_FLOOR:
            kept.append((pos, w))
    return tuple(kept)


def _solution_from_entries(m1, m2, entries):
    pos1 = [pos for pos, _ in m1.atoms]
    pos2 = [pos for pos, _ in m2.atoms]
    cost = math.fsum(f * math.dist(pos1[i], pos2[j]) for i, j, f in entries)
    plan = TransportPlan(entries=tuple(entries), cost=cost)
    kept1_w = [[] for _ in pos1]
    kept2_w = [[] for _ in pos2]
    for i, j, f in entries:
        kept1_w[i].append(f)
        kept2_w[j].append(f)
    # positions come from canonical measures in their order, so the kept
    # parts are canonical as they stand
    kept1 = DiscreteMeasure(atoms=_kept_atoms(m1, kept1_w), dim=m1.dim)
    kept2 = DiscreteMeasure(atoms=_kept_atoms(m2, kept2_w), dim=m2.dim)
    removed1 = max(m1.mass() - kept1.mass(), 0.0)
    removed2 = max(m2.mass() - kept2.mass(), 0.0)
    distance = math.fsum([removed1, removed2, cost])
    return GwSolution(
        distance=distance,
        kept1=SignedDecomposition(kept=kept1, removed_mass=removed1),
        kept2=SignedDecomposition(kept=kept2, removed_mass=removed2),
        plan=plan,
    )


def generalized_wasserstein(
    m1: DiscreteMeasure, m2: DiscreteMeasure, warm: WarmStart | None = None
) -> GwSolution:
    """Exact optimum of the flat-metric LP with attainment witnesses.

    ``warm`` is passed to the transport solve, on the W1 fast path too (see
    ``_simplex.WarmStart``)."""
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    empty_plan = TransportPlan(entries=(), cost=0.0)
    if m1.is_empty or m2.is_empty:
        r1, r2 = m1.mass(), m2.mass()
        return GwSolution(
            distance=math.fsum([r1, r2]),
            kept1=SignedDecomposition(DiscreteMeasure.empty(m1.dim), r1),
            kept2=SignedDecomposition(DiscreteMeasure.empty(m2.dim), r2),
            plan=empty_plan,
        )

    mass1, mass2 = m1.mass(), m2.mass()
    x = m1.positions_array()
    y = m2.positions_array()
    diff = x[:, None, :] - y[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    if (
        abs(mass1 - mass2) <= _EQUAL_MASS_TOL * max(1.0, mass1, mass2)
        and float(dist.max()) < _FULL_TRANSPORT_DIAMETER
    ):
        # removal can never beat transport here: route through balanced W1
        _, plan = wasserstein1(m1, m2, warm)
        return _solution_from_entries(m1, m2, list(plan.entries))

    n1, n2 = len(m1.atoms), len(m2.atoms)
    supplies = np.concatenate([m1.weights_array(), [mass2]])
    demands = np.concatenate([m2.weights_array(), [mass1]])
    cost = np.zeros((n1 + 1, n2 + 1))
    cost[:n1, :n2] = dist - 2.0
    _, flows = solve_transport(supplies, demands, cost, warm=warm)
    entries = [
        (i, j, f) for (i, j), f in sorted(flows.items()) if i < n1 and j < n2
    ]
    return _solution_from_entries(m1, m2, entries)


def gw_dual_probe(
    m1: DiscreteMeasure, m2: DiscreteMeasure, f: Callable[[np.ndarray], float]
) -> float:
    """Dual value of the flat metric: integral of f d(m1 - m2) for a test
    function with sup norm <= 1 and Lipschitz constant <= 1 (checked on the
    union of supports).  Never exceeds the primal optimum up to tolerance."""
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    points = np.concatenate([m1.positions_array(), m2.positions_array()])
    values, _ = lipschitz_values(f, points, lip_bound=1.0, sup_bound=1.0)
    return signed_integral(values, m1, m2)


def integral_bound_check(
    f: Callable[[np.ndarray], float],
    m1: DiscreteMeasure,
    m2: DiscreteMeasure,
    tol: float = 1e-9,
) -> bool:
    """True iff integral of f d(m1-m2) <= max(sup|f|, Lip(f)) W^g(m1, m2) + tol.

    The inequality always holds for a correct solver; False signals a bug.
    Norms are evaluated over the union of supports.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    points = np.concatenate([m1.positions_array(), m2.positions_array()])
    values, lip = lipschitz_values(f, points)
    lhs = signed_integral(values, m1, m2)
    bound = max([*np.abs(values).tolist(), lip]) * generalized_wasserstein(m1, m2).distance
    return lhs <= bound + tol * (1.0 + abs(bound))
