"""Velocity-matching operators on lifted measures.

``fiber_w`` couples two lifted measures of equal mass so that the induced
base coupling is an optimal transport plan, and minimizes the velocity cost
among such couplings.  ``fiber_wg`` is the unbalanced variant: it couples
sub-measures whose induced base decomposition attains the generalized
Wasserstein optimum (removed mass + base transport cost), again minimizing
the velocity cost.  Neither operator is a distance.

Base-stage optimality is encoded as a linear constraint ``base cost of the
coupling <= optimum + eps_opt`` (exact equality constraints on LP optima
are numerically brittle); the resulting side-constrained LPs are no longer
network problems and are solved with HiGHS.  Their marginal constraints
are built as sparse matrices: a dense build takes O(n1 n2 (n1 + n2)) memory.

scipy (``sparse`` and ``linprog``) is imported on the first LP, not with the
package: no other command needs it, and it is most of the package's import
time and memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MassMismatch, SolverError
from .flat import generalized_wasserstein
from .measures import LiftedMeasure
from .wasserstein import MASS_TOL, TransportPlan, _distances, wasserstein1

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def __getattr__(name: str):
    """PEP 562: bind ``sparse``/``linprog`` as module globals on first use.

    They stay module attributes, so a tracer or a test can replace them, and
    the LPs look them up through ``_scipy`` on every call."""
    if name == "sparse":
        from scipy import sparse as value
    elif name == "linprog":
        from scipy.optimize import linprog as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _scipy(name: str):
    try:
        return globals()[name]
    except KeyError:
        return __getattr__(name)


@dataclass(frozen=True)
class FiberPlan(TransportPlan):
    """Coupling of lifted atoms: entries (index into V1 atoms, index into V2
    atoms, flow); ``cost`` is the induced base cost sum flow |x_i - y_j| and
    ``fiber_cost`` the velocity cost sum flow |v_i - w_j|."""

    fiber_cost: float


def _pair_costs(V1: LiftedMeasure, V2: LiftedMeasure):
    x1 = np.array([base for base, _, _ in V1.atoms], dtype=float)
    v1 = np.array([vel for _, vel, _ in V1.atoms], dtype=float)
    x2 = np.array([base for base, _, _ in V2.atoms], dtype=float)
    v2 = np.array([vel for _, vel, _ in V2.atoms], dtype=float)
    return _distances(x1, x2), _distances(v1, v2)


def _marginal_matrix(n1: int, n2: int):
    """Sparse rows summing a flattened (n1, n2) matrix by row and by column."""
    sparse = _scipy("sparse")
    rows = sparse.kron(sparse.identity(n1), np.ones((1, n2)))
    cols = sparse.kron(np.ones((1, n1)), sparse.identity(n2))
    return rows, cols


def _extract_plan(x: np.ndarray, n1: int, n2: int, base_cost, fiber_cost) -> FiberPlan:
    entries = []
    for flat, f in enumerate(x):
        if f > 1e-13:
            i, j = divmod(flat, n2)
            entries.append((i, j, float(f)))
    bc = math.fsum(base_cost[i, j] * f for i, j, f in entries)
    fc = math.fsum(fiber_cost[i, j] * f for i, j, f in entries)
    return FiberPlan(entries=tuple(entries), cost=bc, fiber_cost=fc)


def fiber_w_solution(
    V1: LiftedMeasure, V2: LiftedMeasure, eps_opt: float | None = None
) -> tuple[float, FiberPlan]:
    """Two-stage optimum with the attaining coupling.

    Stage 1: optimal base transport cost W* between the projections.
    Stage 2: minimize the fiber cost over couplings of V1 with V2 whose
    base marginal costs at most W* + eps_opt.
    """
    if V1.dim != V2.dim:
        raise DimensionMismatch(f"dim {V1.dim} vs {V2.dim}")
    mass1, mass2 = V1.mass(), V2.mass()
    if abs(mass1 - mass2) > MASS_TOL * max(1.0, mass1, mass2):
        raise MassMismatch(f"masses differ: {mass1} vs {mass2}")
    if V1.is_empty and V2.is_empty:
        return 0.0, FiberPlan(entries=(), cost=0.0, fiber_cost=0.0)

    wstar, _ = wasserstein1(V1.base_projection(), V2.base_projection())
    if eps_opt is None:
        eps_opt = 1e-9 * (1.0 + wstar)
    n1, n2 = len(V1.atoms), len(V2.atoms)
    base_cost, fiber_cost = _pair_costs(V1, V2)
    sparse, linprog = _scipy("sparse"), _scipy("linprog")
    rows, cols = _marginal_matrix(n1, n2)
    A_eq = sparse.vstack([rows, cols]).tocsr()
    b_eq = np.concatenate(
        [[w for _, _, w in V1.atoms], [w for _, _, w in V2.atoms]]
    )
    res = linprog(
        fiber_cost.reshape(-1),
        A_ub=base_cost.reshape(1, -1),
        b_ub=[wstar + eps_opt],
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolverError(f"fiber LP failed: {res.message}")
    plan = _extract_plan(res.x, n1, n2, base_cost, fiber_cost)
    return max(float(res.fun), 0.0), plan


def fiber_w(V1: LiftedMeasure, V2: LiftedMeasure, eps_opt: float | None = None) -> float:
    return fiber_w_solution(V1, V2, eps_opt)[0]


def fiber_wg_solution(
    V1: LiftedMeasure, V2: LiftedMeasure, eps_opt: float | None = None
) -> tuple[float, FiberPlan]:
    """Unbalanced variant with the attaining coupling.

    Stage 1: generalized Wasserstein optimum G* between the projections.
    Stage 2: minimize the fiber cost over sub-couplings p (row sums bounded
    by V1 weights, column sums by V2 weights) whose induced base
    decomposition attains G* within eps_opt, i.e.

        (|mu1| - flow) + (|mu2| - flow) + base_cost(p) <= G* + eps_opt.

    A coupling feasible for this constraint automatically has an optimal
    base marginal between the kept parts.
    """
    if V1.dim != V2.dim:
        raise DimensionMismatch(f"dim {V1.dim} vs {V2.dim}")
    if V1.is_empty or V2.is_empty:
        return 0.0, FiberPlan(entries=(), cost=0.0, fiber_cost=0.0)

    gstar = generalized_wasserstein(V1.base_projection(), V2.base_projection()).distance
    if eps_opt is None:
        eps_opt = 1e-9 * (1.0 + gstar)
    mass1, mass2 = V1.mass(), V2.mass()
    n1, n2 = len(V1.atoms), len(V2.atoms)
    base_cost, fiber_cost = _pair_costs(V1, V2)
    sparse, linprog = _scipy("sparse"), _scipy("linprog")
    rows, cols = _marginal_matrix(n1, n2)
    A_ub = sparse.vstack([rows, cols, (base_cost - 2.0).reshape(1, -1)]).tocsr()
    b_ub = np.concatenate(
        [
            [w for _, _, w in V1.atoms],
            [w for _, _, w in V2.atoms],
            [gstar - mass1 - mass2 + eps_opt],
        ]
    )
    res = linprog(
        fiber_cost.reshape(-1),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=(0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolverError(f"fiber LP failed: {res.message}")
    plan = _extract_plan(res.x, n1, n2, base_cost, fiber_cost)
    return max(float(res.fun), 0.0), plan


def fiber_wg(V1: LiftedMeasure, V2: LiftedMeasure, eps_opt: float | None = None) -> float:
    return fiber_wg_solution(V1, V2, eps_opt)[0]


def check_ww_inequalities(V1: LiftedMeasure, V2: LiftedMeasure) -> bool:
    """Check the chain inequalities relating base, fiber and joint costs.

    Always checks W^g(V1, V2) <= fiber_wg(V1, V2) + W^g(pi#V1, pi#V2);
    when masses are equal also checks the balanced analogue with W1 and
    fiber_w, each up to 1e-7 relative.  Both must hold for a correct
    solver; False signals a bug.
    """
    J1, J2 = V1.as_joint(), V2.as_joint()
    B1, B2 = V1.base_projection(), V2.base_projection()

    lhs_g = generalized_wasserstein(J1, J2).distance
    rhs_g = math.fsum(
        [fiber_wg(V1, V2), generalized_wasserstein(B1, B2).distance]
    )
    ok = lhs_g <= rhs_g + 1e-7 * (1.0 + abs(rhs_g))

    mass1, mass2 = V1.mass(), V2.mass()
    if abs(mass1 - mass2) <= MASS_TOL * max(1.0, mass1, mass2):
        lhs_w, _ = wasserstein1(J1, J2)
        rhs_w = math.fsum([fiber_w(V1, V2), wasserstein1(B1, B2)[0]])
        ok = ok and lhs_w <= rhs_w + 1e-7 * (1.0 + abs(rhs_w))
    return ok
