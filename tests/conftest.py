import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from measureflow._simplex import WarmStart
from measureflow.errors import SupportOverflow
from measureflow.fields import PvfSpec
from measureflow.flat import generalized_wasserstein
from measureflow.lattice import LatticeGrid, run_semigroup
from measureflow.measures import DiscreteMeasure, LiftedMeasure
from measureflow.problems import ProblemSpec
from measureflow.wasserstein import wasserstein1

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=30,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Coordinates and weights are drawn from eighths so that hand computations
# stay exact and the LP instances avoid pathological near-ties.
grid_coords = st.integers(min_value=-40, max_value=40).map(lambda k: k / 8.0)
grid_weights = st.integers(min_value=1, max_value=16).map(lambda k: k / 8.0)


@st.composite
def measures_1d(draw, max_atoms=6, min_atoms=1):
    n = draw(st.integers(min_atoms, max_atoms))
    atoms = [
        ((draw(grid_coords),), draw(grid_weights))
        for _ in range(n)
    ]
    return DiscreteMeasure.from_atoms(atoms, dim=1)


@st.composite
def equal_mass_pairs_1d(draw, max_atoms=6):
    n1 = draw(st.integers(1, max_atoms))
    n2 = draw(st.integers(1, max_atoms))
    w = [draw(grid_weights) for _ in range(max(n1, n2))]
    m1 = DiscreteMeasure.from_atoms(
        [((draw(grid_coords),), w[i]) for i in range(n1)], dim=1
    )
    total1 = m1.mass()
    weights2 = np.full(n2, total1 / n2)
    m2 = DiscreteMeasure.from_atoms(
        [((draw(grid_coords),), float(weights2[i])) for i in range(n2)], dim=1
    )
    return m1, m2


def random_measure(rng, n_atoms, dim=1, span=5.0, unit=None):
    atoms = []
    for _ in range(n_atoms):
        pos = tuple(float(c) for c in rng.uniform(-span, span, dim))
        w = float(rng.uniform(0.05, 1.5))
        if unit is not None:
            w = unit * int(rng.integers(1, 4))
        atoms.append((pos, w))
    return DiscreteMeasure.from_atoms(atoms, dim=dim)


def drift2d(seed: int, n: int = 15) -> ProblemSpec:
    """n equal atoms in [-1, 1]^2 under the drift x' = x."""
    rng = np.random.default_rng(seed)
    points = np.round(rng.uniform(-1.0, 1.0, (n, 2)), 9).tolist()
    return ProblemSpec(
        name="drift2d",
        initial=DiscreteMeasure.from_atoms([(p, 1.0 / n) for p in points]),
        pvf=PvfSpec.deterministic(lambda x: x, growth_constant=1.0),
        src=None,
    )


def forward_study(problem: ProblemSpec, levels, T: float, metric: str,
                  adaptive_extent: bool = False):
    """``(pair_distances, reference_sup, reference_final)`` of
    ``convergence_study`` without pruning: one warm-started solve at every
    time, in time order, and a separate solve for each final reference
    distance.  The oracle for the pruned backward walk."""
    def distance(a, b, warm):
        if metric == "w1":
            return wasserstein1(a, b, warm)[0]
        return generalized_wasserstein(a, b, warm).distance

    runs = []
    for n in sorted(set(levels)):
        grid = LatticeGrid(N=n, dim=problem.initial.dim, adaptive_extent=adaptive_extent)
        try:
            runs.append((n, run_semigroup(grid, problem.initial, problem.pvf, problem.src, T)))
        except SupportOverflow:
            pass
    pairs = []
    for (nc, tc), (nf, tf) in zip(runs, runs[1:]):
        warm, sup = WarmStart(), 0.0
        for k in range(len(tc.states)):
            t = Fraction(k, nc)
            if (t * nf).denominator == 1 and float(t) <= tf.final_time + 1e-12:
                sup = max(sup, distance(tc.state_at(float(t)), tf.state_at(float(t)), warm))
        pairs.append((nc, nf, sup))
    reference_sup, reference_final = [], []
    if problem.reference is not None:
        for n, traj in runs:
            warm = WarmStart()
            reference_sup.append((n, max(distance(state, problem.reference(t), warm)
                                         for t, state in zip(traj.times, traj.states))))
            final = distance(traj.final_state, problem.reference(traj.final_time), warm)
            reference_final.append((n, final))
    return tuple(pairs), tuple(reference_sup), tuple(reference_final)


def random_lifted(rng, n_atoms, dim=1, span=3.0, vspan=2.0, weights=None):
    atoms = []
    for k in range(n_atoms):
        pos = tuple(float(c) for c in rng.uniform(-span, span, dim))
        vel = tuple(float(c) for c in rng.uniform(-vspan, vspan, dim))
        w = float(rng.uniform(0.1, 1.0)) if weights is None else weights[k]
        atoms.append((pos, vel, w))
    return LiftedMeasure.from_atoms(atoms, dim=dim)


# -- per-point snap and anchors: the oracle for the lattice kernel -------------
#
# The lattice snaps whole arrays (``lattice._snap``, ``_anchors``); these
# are the per-coordinate forms it must agree with bit for bit.


def snap_scalar(t: float, cells_per_unit: int) -> int:
    """Cell index of t = c * cells_per_unit, with the snap epsilon."""
    eps = 1e-9 + 1e-12 * cells_per_unit + 1e-12 * abs(t)
    return math.floor(t + eps)


def _index(position, cells_per_unit, extent, name):
    position = tuple(position)
    if any(abs(c) > extent + 1e-9 for c in position):
        raise SupportOverflow(f"{name} {position} outside [-{extent}, {extent}]^n")
    return tuple(snap_scalar(c * cells_per_unit, cells_per_unit) for c in position)


def space_index(grid, position) -> tuple[int, ...]:
    return _index(position, grid.N * grid.N, grid.space_extent, "position")


def velocity_index(grid, velocity) -> tuple[int, ...]:
    return _index(velocity, grid.N, grid.velocity_extent, "velocity")


def space_anchor(grid, idx) -> tuple[float, ...]:
    n2 = grid.N * grid.N
    return tuple(round(k / n2, 12) for k in idx)


def velocity_anchor(grid, idx) -> tuple[float, ...]:
    return tuple(round(k / grid.N, 12) for k in idx)


def ax_discretize_points(grid, mu: DiscreteMeasure) -> DiscreteMeasure:
    """``ax_discretize`` atom by atom, merged by ``from_atoms`` (fsum)."""
    return DiscreteMeasure.from_atoms(
        ((space_anchor(grid, space_index(grid, pos)), w) for pos, w in mu.atoms), dim=mu.dim
    )


def av_discretize_points(grid, lifted: LiftedMeasure) -> LiftedMeasure:
    """``av_discretize`` atom by atom, merged by ``from_atoms`` (fsum)."""
    return LiftedMeasure.from_atoms(
        (
            (space_anchor(grid, space_index(grid, base)),
             velocity_anchor(grid, velocity_index(grid, vel)), w)
            for base, vel, w in lifted.atoms
        ),
        dim=lifted.dim,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
