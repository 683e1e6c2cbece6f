"""Verification instruments: weak-form residuals, convergence studies,
semigroup probes and short-time germ compatibility checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from ._simplex import WarmStart
from .errors import SupportOverflow
from .fields import PvfSpec, SourceSpec
from .flat import GwInstance, generalized_wasserstein
from .lattice import LatticeGrid, Trajectory, run_semigroup
from .measures import DiscreteMeasure
from .problems import ProblemSpec
from .wasserstein import W1Instance

ZERO_DISTANCE = 1e-14


# -- test functions -----------------------------------------------------------


def _cutoff(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0 else 0.0


def _cutoff_deriv(s: float) -> float:
    if s <= 0:
        return 0.0
    return math.exp(-1.0 / s) / (s * s)


def _transition(s: float) -> float:
    """Smooth 1 -> 0 ramp on [0, 1]."""
    a, b = _cutoff(1.0 - s), _cutoff(s)
    return a / (a + b) if a + b > 0 else 0.0


def _transition_deriv(s: float) -> float:
    a, b = _cutoff(1.0 - s), _cutoff(s)
    da, db = -_cutoff_deriv(1.0 - s), _cutoff_deriv(s)
    denom = (a + b) ** 2
    return (da * b - a * db) / denom if denom > 0 else 0.0


@dataclass(frozen=True)
class TestFunction:
    """A compactly supported smooth function with its gradient; ``radius``
    is the support radius."""

    __test__ = False  # not a pytest class

    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    radius: float

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def plateau(cls, inner: float, outer: float, dim: int) -> "TestFunction":
        """Smooth window: 1 on |x| <= inner, 0 outside |x| >= outer."""
        return cls.windowed_polynomial(
            lambda x: 1.0, lambda x: np.zeros(dim), inner, outer
        )

    @classmethod
    def windowed_polynomial(
        cls,
        poly: Callable[[np.ndarray], float],
        poly_grad: Callable[[np.ndarray], np.ndarray],
        inner: float,
        outer: float,
    ) -> "TestFunction":
        """poly(x) times a smooth plateau window (1 inside, 0 outside)."""
        if not 0 < inner < outer:
            raise ValueError("need 0 < inner < outer")
        width = outer - inner

        def window(r: float) -> float:
            if r <= inner:
                return 1.0
            if r >= outer:
                return 0.0
            return _transition((r - inner) / width)

        def window_deriv(r: float) -> float:
            if r <= inner or r >= outer:
                return 0.0
            return _transition_deriv((r - inner) / width) / width

        def fn(x: np.ndarray) -> float:
            r = float(np.linalg.norm(x))
            w = window(r)
            return float(poly(x)) * w if w > 0 else 0.0

        def grad(x: np.ndarray) -> np.ndarray:
            r = float(np.linalg.norm(x))
            w = window(r)
            if w <= 0:
                return np.zeros_like(x)
            g = np.asarray(poly_grad(x), dtype=float) * w
            if r > 0 and inner < r < outer:
                g = g + float(poly(x)) * window_deriv(r) * x / r
            return g

        return cls(fn=fn, grad=grad, radius=outer)


# -- weak-form residual --------------------------------------------------------


def weak_residual(
    traj: Trajectory,
    f: TestFunction,
    t: float,
) -> float:
    """|forward difference of integral f dmu minus drift and source terms|.

    The time derivative uses the forward difference over [t, t+h] with
    h = dt, the scheme's own increment.
    """
    h = traj.grid.dt
    mu_t = traj.state_at(t)
    mu_th = traj.state_at(t + h)
    ddt = (mu_th.integrate(f) - mu_t.integrate(f)) / h
    drift = 0.0
    if traj.pvf is not None:
        lifted = traj.pvf.evaluate(mu_t)
        drift = math.fsum(
            w * float(np.dot(f.gradient(base), vel)) for base, vel, w in lifted.atoms
        )
    created = 0.0
    if traj.src is not None:
        sigma = traj.src.evaluate(mu_t)
        created = math.fsum(w * f(pos) for pos, w in sigma.atoms)
    return abs(ddt - drift - created)


# -- convergence studies --------------------------------------------------------


def _instance_fn(metric: str) -> Callable[[DiscreteMeasure, DiscreteMeasure], object]:
    """The metric's transport instance between two measures: ``bound``
    prices a carrier's basis on its arcs, ``distance`` solves."""
    if metric == "w1":
        return W1Instance
    if metric == "gw":
        return GwInstance
    raise ValueError(f"unknown metric {metric!r} (use 'w1' or 'gw')")


def _sup_distance(
    instance: Callable[[DiscreteMeasure, DiscreteMeasure], object],
    pairs: Sequence[tuple[DiscreteMeasure, DiscreteMeasure]],
) -> tuple[float, float]:
    """The sup over ``pairs`` (listed in time order) of their distance, and
    the distance of the last pair.

    One ``WarmStart`` walks the pairs from the last to the first, and the
    last is always solved.  Before each later solve the carrier's basis is
    priced at the pair's costs (``bound``), in O(m + n) from the basis's
    own arcs: when that bound is below the running sup, the distance cannot
    raise the sup, and the solve is skipped with no distance matrix built.  Otherwise the solve starts from that basis."""
    warm = WarmStart()
    sup = 0.0
    last = None
    for a, b in reversed(pairs):
        lp = instance(a, b)
        if lp.bound(warm) < sup:
            continue
        d = lp.distance(warm)
        if last is None:
            last = d
        sup = max(sup, d)
    return sup, last


@dataclass(frozen=True)
class ConvergenceReport:
    problem: str
    metric: str
    levels: tuple[int, ...]
    excluded_levels: tuple[int, ...]
    pair_distances: tuple[tuple[int, int, float], ...]  # (coarse N, fine N, sup dist)
    reference_sup: tuple[tuple[int, float], ...]  # (N, sup-in-time dist to reference)
    reference_final: tuple[tuple[int, float], ...]
    rate: float

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "metric": self.metric,
            "levels": list(self.levels),
            "excluded_levels": list(self.excluded_levels),
            "pair_distances": [list(row) for row in self.pair_distances],
            "reference_sup": [list(row) for row in self.reference_sup],
            "reference_final": [list(row) for row in self.reference_final],
            "rate": self.rate,
        }

    def csv_rows(self) -> list[list[float]]:
        series = self.reference_sup or [
            (coarse, dist) for coarse, _, dist in self.pair_distances
        ]
        return [[level, dist, self.rate] for level, dist in series]


def _fit_rate(points: list[tuple[int, float]]) -> float:
    """Least-squares exponent r in distance ~ C N^{-r}; inf when the
    distances vanish identically (exact agreement)."""
    positive = [(n, d) for n, d in points if d > ZERO_DISTANCE]
    if not positive:
        return math.inf
    if len(positive) < 2:
        return math.nan
    logs_n = np.log([n for n, _ in positive])
    logs_d = np.log([d for _, d in positive])
    slope = np.polyfit(logs_n, logs_d, 1)[0]
    return float(-slope)


def _shared_step_times(n_coarse: int, n_fine: int, k_max_coarse: int) -> list[Fraction]:
    times = []
    for k in range(k_max_coarse + 1):
        t = Fraction(k, n_coarse)
        if (t * n_fine).denominator == 1:
            times.append(t)
    return times


def convergence_study(
    problem: ProblemSpec,
    n_list: Sequence[int],
    T: float,
    metric: str = "gw",
    adaptive_extent: bool = False,
) -> ConvergenceReport:
    """Distances between consecutive-level runs at shared step times, plus
    distances to the exact reference when the problem declares one, with a
    least-squares convergence rate.

    Levels run one after another.  A level whose run leaves its extent is
    excluded, and SupportOverflow is raised when fewer than two remain.

    Each level pair, and each level's reference loop, reports only the sup
    over its times (``_sup_distance``).  So it walks its times from the last
    to the first with one ``WarmStart``, and the last time is always solved
    (``reference_final`` is that distance).  Before each earlier solve, the
    carrier's basis, from the latest solve, is priced at that time's costs.
    Pricing reads only the basis's m + n - 1 arcs, so a skipped time costs
    O(m + n), and only a solved time builds its distance matrix.  The price
    bounds the distance from above: the solver's certificate tolerance, for
    costs up to the sum of the two states' support radii (plus 2 for W^g),
    1e-9 relative for rounding and, for W^g, the weight floor per atom are
    added to it.  When it is below the running sup the solve is skipped,
    since the sup cannot change; otherwise the solve starts from that
    basis.  A basis fits only
    a time whose supplies and demands have the same bytes, so where the
    weights change between times (any source) no time is skipped."""
    levels = sorted(set(int(n) for n in n_list))
    if len(levels) < 3:
        raise ValueError("convergence_study needs at least 3 levels")
    instance = _instance_fn(metric)
    dim = problem.initial.dim

    def run_level(n: int) -> Trajectory | None:
        grid = LatticeGrid(N=n, dim=dim, adaptive_extent=adaptive_extent)
        try:
            return run_semigroup(grid, problem.initial, problem.pvf, problem.src, T)
        except SupportOverflow:
            return None

    runs = [run_level(n) for n in levels]

    excluded = tuple(n for n, r in zip(levels, runs) if r is None)
    usable = [(n, r) for n, r in zip(levels, runs) if r is not None]
    if len(usable) < 2:  # no level pair: no distance, and no rate
        raise SupportOverflow(
            f"levels {', '.join(map(str, excluded))} overflow their extents, "
            "leaving no level pair to compare; increase N or enable the adaptive extent"
        )

    pair_distances = []
    for (nc, tc), (nf, tf) in zip(usable, usable[1:]):
        times = [float(t) for t in _shared_step_times(nc, nf, len(tc.states) - 1)]
        pairs = [(tc.state_at(t), tf.state_at(t)) for t in times if t <= tf.final_time + 1e-12]
        pair_distances.append((nc, nf, _sup_distance(instance, pairs)[0]))

    reference_sup = []
    reference_final = []
    if problem.reference is not None:
        for n, traj in usable:
            pairs = [(state, problem.reference(t)) for t, state in zip(traj.times, traj.states)]
            sup, final = _sup_distance(instance, pairs)
            reference_sup.append((n, sup))
            reference_final.append((n, final))

    fit_points = reference_sup if reference_sup else [
        (nc, d) for nc, _, d in pair_distances
    ]
    return ConvergenceReport(
        problem=problem.name,
        metric=metric,
        levels=tuple(levels),
        excluded_levels=excluded,
        pair_distances=tuple(pair_distances),
        reference_sup=tuple(reference_sup),
        reference_final=tuple(reference_final),
        rate=_fit_rate(fit_points),
    )


# -- semigroup probes ------------------------------------------------------------


@dataclass(frozen=True)
class ProbeRow:
    pair_index: int
    t: float
    distance: float
    initial_distance: float
    ratio: float
    implied_c: float | None
    flagged: bool = False


@dataclass(frozen=True)
class SemigroupProbeReport:
    rows: tuple[ProbeRow, ...]
    fitted_c: float


def semigroup_probe(
    problem: ProblemSpec,
    pairs: Sequence[tuple[DiscreteMeasure, DiscreteMeasure]],
    t_list: Sequence[float],
    N: int,
    adaptive_extent: bool = False,
    trajectories: Mapping[DiscreteMeasure, Trajectory] | None = None,
) -> SemigroupProbeReport:
    """Measure W^g(S_t mu, S_t nu) / W^g(mu, nu) on a shared grid.

    Each pair passes one ``WarmStart`` through its solves.  ``implied_c``
    is ln(ratio)/t; rows breaking the fitted exponential envelope by more
    than 20 percent are flagged.

    Each measure is run once.  ``trajectories`` seeds that cache: each
    entry must be ``run_semigroup`` of its measure under ``problem.pvf`` and
    ``problem.src`` at level ``N``, recorded to at least ``max(t_list)``.
    Its states are then the ones the probe would compute, bit for bit: the
    grid's extent only decides whether a run raises."""
    T = max(t_list)
    dim = pairs[0][0].dim
    grid = LatticeGrid(N=N, dim=dim, adaptive_extent=adaptive_extent)
    cache = dict(trajectories or {})
    for traj in cache.values():
        if traj.grid.N != N or traj.pvf is not problem.pvf or traj.src is not problem.src:
            raise ValueError("a seeded trajectory must be a run of the probed problem at level N")

    def run(mu: DiscreteMeasure) -> Trajectory:
        if mu not in cache:
            cache[mu] = run_semigroup(grid, mu, problem.pvf, problem.src, T)
        return cache[mu]

    raw = []
    for index, (mu, nu) in enumerate(pairs):
        warm = WarmStart()
        d0 = generalized_wasserstein(mu, nu, warm).distance
        tmu, tnu = run(mu), run(nu)
        for t in t_list:
            dt_val = generalized_wasserstein(tmu.state_at(t), tnu.state_at(t), warm).distance
            if d0 < 1e-15:
                ratio = 1.0 if dt_val < 1e-15 else math.inf
            else:
                ratio = dt_val / d0
            implied = math.log(ratio) / t if t > 0 and 0 < ratio < math.inf else None
            raw.append((index, t, dt_val, d0, ratio, implied))

    slopes = [(t, math.log(r)) for _, t, _, _, r, _ in raw if t > 0 and 0 < r < math.inf]
    if slopes:
        ts = np.array([t for t, _ in slopes])
        ys = np.array([y for _, y in slopes])
        fitted_c = float(ts @ ys / (ts @ ts)) if float(ts @ ts) > 0 else 0.0
    else:
        fitted_c = 0.0
    rows = tuple(
        ProbeRow(
            pair_index=i,
            t=t,
            distance=d,
            initial_distance=d0,
            ratio=r,
            implied_c=c,
            flagged=bool(
                t > 0 and r not in (math.inf,) and math.log(max(r, 1e-300)) > fitted_c * t + math.log(1.2)
            ),
        )
        for i, t, d, d0, r, c in raw
    )
    return SemigroupProbeReport(rows=rows, fitted_c=fitted_c)


# -- germ compatibility -----------------------------------------------------------


def rk4_flow(
    velocity: Callable[[np.ndarray], Sequence[float]],
    x0: Sequence[float],
    t: float,
) -> np.ndarray:
    """Characteristic ODE flow of the velocity field, classic RK4, 2048 steps."""
    x = np.asarray(x0, dtype=float)
    if t == 0:
        return x
    h = t / 2048

    def v(y):
        return np.asarray(velocity(y), dtype=float)

    for _ in range(2048):
        k1 = v(x)
        k2 = v(x + 0.5 * h * k1)
        k3 = v(x + 0.5 * h * k2)
        k4 = v(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


@dataclass(frozen=True)
class GermReport:
    rows: tuple[tuple[float, float, float], ...]  # (t, distance, corrected)
    snap_offset: float
    quad_coeff: float
    intercept: float


def germ_compat_check(
    pvf: PvfSpec,
    src: SourceSpec | None,
    x0: Sequence[float],
    t_list: Sequence[float],
    N: int,
    adaptive_extent: bool = False,
) -> GermReport:
    """Short-time comparison of the lattice run from a Dirac at x0 against
    the characteristic flow delta_{Phi_t(x0)} (plus t sigma for a constant
    source), tabulated against t^2.

    The t = 0 entry isolates the N-dependent snap offset; the corrected
    column subtracts it.  quad_coeff and intercept come from a least-squares
    fit corrected ~ quad_coeff t^2 + intercept.
    """
    if pvf.kind != "deterministic":
        raise ValueError("germ check is defined for the deterministic PVF")
    if src is not None and src.kind != "constant":
        raise ValueError("germ reference supports constant sources only")
    x0 = tuple(float(c) for c in x0)
    mu0 = DiscreteMeasure.dirac(x0)
    grid = LatticeGrid(N=N, dim=len(x0), adaptive_extent=adaptive_extent)
    T = max(t_list)
    traj = run_semigroup(grid, mu0, pvf, src, T)

    def reference(t: float) -> DiscreteMeasure:
        point = rk4_flow(pvf.velocity, x0, t)
        ref = DiscreteMeasure.dirac(tuple(point))
        if src is not None and t > 0:
            ref = ref.add(src.measure.scale(t))
        return ref

    times = sorted({0.0, *(float(t) for t in t_list)})
    distances = []
    for t in times:
        d = generalized_wasserstein(traj.state_at(t), reference(t)).distance
        distances.append((t, d))
    offset = distances[0][1]
    rows = tuple((t, d, d - offset) for t, d in distances if t > 0)
    t2 = np.array([[t * t, 1.0] for t, _, _ in rows])
    y = np.array([c for _, _, c in rows])
    coeffs, *_ = np.linalg.lstsq(t2, y, rcond=None)
    return GermReport(
        rows=rows,
        snap_offset=offset,
        quad_coeff=float(coeffs[0]),
        intercept=float(coeffs[1]),
    )
