"""Exact 1-Wasserstein distance between equal-mass atomic measures.

The LP route is the purpose-built network simplex on the bipartite atom
graph, over all atoms of both measures.  Atoms the two measures share need
no special case: their arcs cost 0, the solver's matrix-minimum start takes
them first, and an optimal plan may keep their shared mass in place.  So
the supplies and demands are the measures' weights as they stand, and a
warm-start carrier fits every solve of a sequence whose weights do not
change.  The closed-form CDF integral in one dimension is kept strictly
separate so it can serve as an independent oracle for the LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._simplex import WarmStart, certificate_slack, solve_transport
from .errors import DimensionMismatch, LipschitzViolation, MassMismatch
from .measures import DiscreteMeasure

MASS_TOL = 1e-9
LIP_SLACK = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between the atoms of two measures.

    ``entries`` holds ``(source_atom_index, target_atom_index, flow)`` with
    indices into the canonical atom lists of the two measures; ``cost`` is
    ``sum flow * |x_i - y_j|``.
    """

    entries: tuple[tuple[int, int, float], ...]
    cost: float

    def row_sums(self, n_sources: int) -> list[float]:
        sums = [[] for _ in range(n_sources)]
        for i, _, f in self.entries:
            sums[i].append(f)
        return [math.fsum(part) for part in sums]

    def col_sums(self, n_targets: int) -> list[float]:
        sums = [[] for _ in range(n_targets)]
        for _, j, f in self.entries:
            sums[j].append(f)
        return [math.fsum(part) for part in sums]

    def total_flow(self) -> float:
        return math.fsum(f for _, _, f in self.entries)

    def to_jsonable(self) -> list[list[float]]:
        return [[i, j, f] for i, j, f in self.entries]


def _gap_norms(squares: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean norms of ``x - y`` over the last axis, into ``squares``
    (zeros of the broadcast shape of the other axes): the squared gaps are
    added one coordinate at a time, in order, then square-rooted in place.
    Each norm gets the same bits whatever shape it is computed in."""
    for c in range(x.shape[-1]):
        squares += (x[..., c] - y[..., c]) ** 2
    return np.sqrt(squares, out=squares)


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` and those of ``y``
    (zeros without coordinates), by ``_gap_norms``: the bits of
    ``np.sqrt(np.sum(diff * diff, axis=-1))`` below 8 coordinates, where
    numpy adds in that order (from 8 on it sums pairwise: an ulp apart)."""
    return _gap_norms(np.zeros((len(x), len(y))), x[:, None], y[None])


def _arc_distances(x: np.ndarray, y: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The distances ``|x[rows[k]] - y[cols[k]]|`` alone, by the same kernel:
    the bits of ``_distances(x, y)[rows, cols]`` at O(len(rows)) cost."""
    return _gap_norms(np.zeros(len(rows)), x[rows], y[cols])


def _distance_cap(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """An upper bound on every computed distance between an atom of ``m1``
    and one of ``m2``, without the matrix: the sum of the support radii,
    raised by 1e-12 relative for the few ulps by which a computed radius
    can fall short, or a computed distance run over, its exact value
    (positions are multiples of 1e-12, so no square is subnormal)."""
    return (m1.support_radius() + m2.support_radius()) * (1.0 + 1e-12)


def _optimal_entries(
    m1: DiscreteMeasure, m2: DiscreteMeasure, cost: np.ndarray, warm: WarmStart | None
) -> list[tuple[int, int, float]]:
    """An optimal plan's (i, j, flow) entries, in (i, j) order, between two
    non-empty measures of equal mass whose distance matrix is ``cost``."""
    _, flows = solve_transport(m1.weights_array(), m2.weights_array(), cost, warm=warm)
    return [(i, j, f) for (i, j), f in sorted(flows.items())]


def _rounding_slack(bound: float) -> float:
    """``bound`` raised by 1e-9 relative: room for the rounding between a
    transport LP's value and the distance a plan's fsum reports."""
    return bound + 1e-9 * abs(bound)


class W1Instance:
    """The transport LP of W1(m1, m2): the weights as supplies and demands,
    the distance matrix as costs.  The matrix is built when a solve needs
    it; ``bound`` reads only the kept basis's arcs.

    Raises MassMismatch when masses differ beyond tolerance (no silent
    renormalization)."""

    def __init__(self, m1: DiscreteMeasure, m2: DiscreteMeasure):
        if m1.dim != m2.dim:
            raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
        mass1, mass2 = m1.mass(), m2.mass()
        if abs(mass1 - mass2) > MASS_TOL * max(1.0, mass1, mass2):
            raise MassMismatch(f"masses differ: {mass1} vs {mass2}")
        self.m1, self.m2 = m1, m2

    def bound(self, warm: WarmStart) -> float:
        """A value ``solve(warm)`` cannot report more than, in O(m + n): the
        kept basis priced at its own arcs' distances (``WarmStart.price``),
        plus the certificate slack for costs up to the support radii's sum
        (``_distance_cap``) and 1e-9 relative for rounding; inf when the
        carrier does not fit.  No distance matrix is built."""
        m1, m2 = self.m1, self.m2
        x, y = m1.positions_array(), m2.positions_array()
        price = warm.price(m1.weights_array(), m2.weights_array(),
                           lambda rows, cols: _arc_distances(x, y, rows, cols))
        if price == math.inf:
            return price
        slack = certificate_slack(_distance_cap(m1, m2), max(m1.mass(), m2.mass()))
        return _rounding_slack(price + slack)

    def distance(self, warm: WarmStart | None = None) -> float:
        return self.solve(warm)[0]

    def solve(self, warm: WarmStart | None = None) -> tuple[float, TransportPlan]:
        """The optimal total transport cost and a plan; ``warm`` is passed
        to the transport solve."""
        m1, m2 = self.m1, self.m2
        if m1.is_empty and m2.is_empty:
            return 0.0, TransportPlan(entries=(), cost=0.0)
        cost = _distances(m1.positions_array(), m2.positions_array())
        entries = _optimal_entries(m1, m2, cost, warm)
        pos1 = [pos for pos, _ in m1.atoms]
        pos2 = [pos for pos, _ in m2.atoms]
        cost_total = math.fsum(f * math.dist(pos1[i], pos2[j]) for i, j, f in entries)
        return cost_total, TransportPlan(entries=tuple(entries), cost=cost_total)


def wasserstein1(
    m1: DiscreteMeasure, m2: DiscreteMeasure, warm: WarmStart | None = None
) -> tuple[float, TransportPlan]:
    """Optimal total transport cost min sum pi_ij |x_i - y_j| and a plan.

    Unnormalized convention: the value scales linearly with mass.  Raises
    MassMismatch when masses differ beyond tolerance (no silent
    renormalization).  ``warm`` is passed to the transport solve (see
    ``_simplex.WarmStart``).
    """
    return W1Instance(m1, m2).solve(warm)


def wasserstein1_1d(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Closed-form W1 in one dimension: integral of |F_1 - F_2| over R.

    Exact over the finite breakpoint set; used as the independent oracle
    for the LP route.
    """
    if m1.dim != 1 or m2.dim != 1:
        raise DimensionMismatch("wasserstein1_1d requires dim 1")
    mass1, mass2 = m1.mass(), m2.mass()
    if abs(mass1 - mass2) > MASS_TOL * max(1.0, mass1, mass2):
        raise MassMismatch(f"masses differ: {mass1} vs {mass2}")
    jumps: dict[float, list[float]] = {}
    for (p,), w in m1.atoms:
        jumps.setdefault(p, []).append(w)
    for (p,), w in m2.atoms:
        jumps.setdefault(p, []).append(-w)
    points = sorted(jumps)
    pieces = []
    level_terms: list[float] = []
    for left, right in zip(points[:-1], points[1:]):
        level_terms.extend(jumps[left])
        level = math.fsum(level_terms)
        pieces.append(abs(level) * (right - left))
    return math.fsum(pieces)


def wasserstein1_1d_uniform(m: DiscreteMeasure, lo: float, hi: float) -> float:
    """W1 between a dim-1 atomic measure and the uniform measure of the same
    total mass on [lo, hi], via the exact piecewise CDF integral."""
    if m.dim != 1:
        raise DimensionMismatch("requires dim 1")
    if hi <= lo:
        raise ValueError("empty interval")
    total = m.mass()
    density = total / (hi - lo)

    def f_uniform(x: float) -> float:
        if x <= lo:
            return 0.0
        if x >= hi:
            return total
        return density * (x - lo)

    breakpoints = sorted({lo, hi, *(p for (p,), _ in m.atoms)})
    # extend to cover all atoms outside [lo, hi]
    pieces = []
    for left, right in zip(breakpoints[:-1], breakpoints[1:]):
        fm = m.cdf(left)  # constant on [left, right)
        ua, ub = f_uniform(left), f_uniform(right)
        da, db = fm - ua, fm - ub
        if da * db >= 0:
            pieces.append(0.5 * (abs(da) + abs(db)) * (right - left))
        else:
            # linear difference crosses zero inside the segment
            cross = right - left
            cross *= abs(da) / (abs(da) + abs(db))
            pieces.append(0.5 * abs(da) * cross + 0.5 * abs(db) * (right - left - cross))
    return math.fsum(pieces)


def lipschitz_values(
    f: Callable[[np.ndarray], float],
    points: np.ndarray,
    lip_bound: float | None = None,
    sup_bound: float | None = None,
) -> tuple[np.ndarray, float]:
    """f at every row of ``points`` (one call each) and its largest quotient
    |f(a) - f(b)| / |a - b| over the pairs farther apart than 1e-15 (0.0 for
    none), from one pairwise-distance matrix (O(n^2) memory).

    Raises LipschitzViolation if some |f(a)| > sup_bound (1 + LIP_SLACK) +
    1e-12 or |f(a) - f(b)| > lip_bound |a - b| (1 + LIP_SLACK) + 1e-12.
    """
    values = np.array([float(f(p)) for p in points], dtype=float)
    if sup_bound is not None and (np.abs(values) > sup_bound * (1 + LIP_SLACK) + 1e-12).any():
        raise LipschitzViolation(f"sup |f| = {np.abs(values).max()} exceeds bound {sup_bound}")
    dist = _distances(points, points)
    gaps = np.abs(values[:, None] - values[None, :])
    far = dist > 1e-15
    lip = float((gaps[far] / dist[far]).max()) if far.any() else 0.0
    if lip_bound is not None and (gaps > lip_bound * dist * (1 + LIP_SLACK) + 1e-12).any():
        raise LipschitzViolation(f"Lipschitz bound {lip_bound} violated: quotient {lip}")
    return values, lip


def _dual_value(
    m1: DiscreteMeasure,
    m2: DiscreteMeasure,
    f: Callable[[np.ndarray], float],
    lip_bound: float | None = None,
    sup_bound: float | None = None,
) -> tuple[float, np.ndarray, float]:
    """Integral of f d(m1 - m2), with f's values on the atoms of m1 then m2
    and its largest quotient: ``lipschitz_values`` on the union of supports,
    which checks the bounds given."""
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"dim {m1.dim} vs {m2.dim}")
    points = np.concatenate([m1.positions_array(), m2.positions_array()])
    values, lip = lipschitz_values(f, points, lip_bound, sup_bound)
    weights = np.concatenate([m1.weights_array(), -m2.weights_array()])
    return math.fsum(values * weights), values, lip


def dual_lower_bound(
    m1: DiscreteMeasure, m2: DiscreteMeasure, f: Callable[[np.ndarray], float]
) -> float:
    """Kantorovich-Rubinstein dual value: integral of f d(m1 - m2).

    ``f`` must be 1-Lipschitz (checked on the union of supports); the
    returned value never exceeds wasserstein1(m1, m2) up to tolerance.
    """
    return _dual_value(m1, m2, f, lip_bound=1.0)[0]
