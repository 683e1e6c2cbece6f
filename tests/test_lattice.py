import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    av_discretize_points,
    ax_discretize_points,
    random_measure,
    space_anchor,
    space_index,
)
from measureflow.errors import ConfigError, SupportOverflow
from measureflow.fields import PiecewiseLinear, PvfSpec, SourceSpec
from measureflow.flat import generalized_wasserstein
from measureflow.lattice import (
    LatticeGrid,
    _anchors,
    _space_cells,
    av_discretize,
    ax_discretize,
    interpolate,
    las_step,
    predicted_reach,
    run_semigroup,
)
from measureflow.measures import DiscreteMeasure, LiftedMeasure
from measureflow.wasserstein import wasserstein1

d = DiscreteMeasure.dirac
PHI = PiecewiseLinear.from_table([(0.0, -0.5), (1.0, 0.5)])


def constant_pvf(speed=1.0):
    return PvfSpec.deterministic(
        lambda x: (speed,), growth_constant=max(abs(speed), 1e-9), velocity_bound=abs(speed)
    )


def _is_aligned_scalar(grid: LatticeGrid, mu: DiscreteMeasure) -> bool:
    """Oracle: the per-atom form of ``LatticeGrid.is_aligned``."""
    try:
        return all(space_anchor(grid, space_index(grid, pos)) == pos for pos, _ in mu.atoms)
    except SupportOverflow:
        return False


class TestGrid:
    def test_step_relations_exact_rationally(self):
        for n in (1, 2, 3, 7, 10, 64):
            assert Fraction(1, n * n) == Fraction(1, n) * Fraction(1, n)
            g = LatticeGrid(N=n, dim=1)
            assert g.dx == pytest.approx(g.dv * g.dt, rel=1e-15)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            LatticeGrid(N=0, dim=1)

    def test_snap_example(self):
        g = LatticeGrid(N=2, dim=1)
        assert _anchors(_space_cells(g, np.array([[0.6]])), 4).tolist() == [[0.5]]

    def test_aligned_roundtrip(self):
        g = LatticeGrid(N=3, dim=1)
        cells = np.arange(-20, 21).reshape(-1, 1)
        assert (_space_cells(g, _anchors(cells, 9)) == cells).all()

    def test_is_aligned_matches_scalar_form(self):
        rng = np.random.default_rng(3000)
        answers = []
        for k in range(3000):
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 4))
            extent = None if k % 2 else float(rng.uniform(0.5, 2.0)) * n
            grid = LatticeGrid(N=n, dim=dim, extent_radius=extent)
            # cells up to a few past the extent on either side
            reach = int(grid.space_extent * n * n) + 3
            cells = rng.integers(-reach, reach + 1, size=(int(rng.integers(1, 6)), dim))
            points = [list(space_anchor(grid, c)) for c in cells.tolist()]
            if k % 3 == 1:  # one coordinate off its anchor, by 1e-13 up to 1e-2
                a, c = int(rng.integers(len(points))), int(rng.integers(dim))
                points[a][c] += float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-13, -2))
            mu = DiscreteMeasure.from_atoms([(p, 1.0) for p in points], dim=dim)
            want = _is_aligned_scalar(grid, mu)
            assert grid.is_aligned(mu) is want
            answers.append(want)
        assert 500 < sum(answers) < 2500

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_is_aligned_false_on_non_finite(self, bad):
        # the scalar form raised ValueError (nan) or OverflowError (inf) here
        # built directly: measure construction rejects a non-finite coordinate
        mu = DiscreteMeasure(atoms=(((0.0, 0.0), 1.0), ((0.25, bad), 1.0)), dim=2)
        assert LatticeGrid(N=4, dim=2).is_aligned(mu) is False

    def test_is_aligned_empty(self):
        assert LatticeGrid(N=4, dim=2).is_aligned(DiscreteMeasure.empty(2))

    def test_velocity_snap_example(self):
        g = LatticeGrid(N=2, dim=1)
        lifted = LiftedMeasure.from_atoms([([0.0], [0.3], 1.0)])
        assert av_discretize(g, lifted).atoms == (((0.0,), (0.0,), 1.0),)

    def test_overflow_detected(self):
        g = LatticeGrid(N=2, dim=1)
        with pytest.raises(SupportOverflow):
            ax_discretize(g, d([5.0]))


class TestAxDiscretize:
    def test_example(self):
        g = LatticeGrid(N=2, dim=1)
        assert ax_discretize(g, d([0.6])).atoms == (((0.5,), 1.0),)

    def test_aligned_fixed_point(self):
        g = LatticeGrid(N=2, dim=1)
        mu = DiscreteMeasure.from_atoms([([0.25], 0.5), ([-0.75], 0.5)])
        assert ax_discretize(g, mu) == mu

    def test_mass_preserved_exactly(self, rng):
        g = LatticeGrid(N=3, dim=2)
        mu = random_measure(rng, 10, dim=2, span=2.0)
        assert ax_discretize(g, mu).mass() == mu.mass()

    def test_snap_error_bound(self, rng):
        for dim in (1, 2):
            for n in (2, 4, 8):
                g = LatticeGrid(N=n, dim=dim)
                mu = random_measure(rng, 8, dim=dim, span=1.5)
                dist, _ = wasserstein1(mu, ax_discretize(g, mu))
                assert dist <= mu.mass() * math.sqrt(dim) * g.dx + 1e-12


class TestAvDiscretize:
    def test_example(self):
        g = LatticeGrid(N=2, dim=1)
        lifted = LiftedMeasure.from_atoms([([0.6], [0.3], 1.0)])
        assert av_discretize(g, lifted).atoms == (((0.5,), (0.0,), 1.0),)

    def test_aligned_fixed_point(self):
        g = LatticeGrid(N=2, dim=1)
        lifted = LiftedMeasure.from_atoms([([0.25], [0.5], 1.0)])
        assert av_discretize(g, lifted) == lifted

    def test_snap_error_bound(self, rng):
        for n in (2, 4):
            g = LatticeGrid(N=n, dim=1)
            lifted = LiftedMeasure.from_atoms(
                [
                    ((float(x),), (float(v),), float(w))
                    for x, v, w in zip(
                        rng.uniform(-1.5, 1.5, 8),
                        rng.uniform(-1.5, 1.5, 8),
                        rng.uniform(0.1, 1.0, 8),
                    )
                ],
                dim=1,
            )
            snapped = av_discretize(g, lifted)
            dist, _ = wasserstein1(lifted.as_joint(), snapped.as_joint())
            assert dist <= lifted.mass() * math.sqrt(1) * (g.dx + g.dv) + 1e-12


def _hex_atoms(measure) -> list:
    return [tuple(c.hex() for part in atom[:-1] for c in part) + (atom[-1].hex(),)
            for atom in measure.atoms]


def _coordinate(rng, cells_per_unit: int, extent: float, pool: list[int]) -> float:
    """A coordinate that is an anchor, an anchor moved a few ulps either way
    (near-ties at the cell boundary), a sub-cell offset into a cell of a
    small pool (collisions), uniform in the extent, or just outside it."""
    u = rng.random()
    k = pool[int(rng.integers(len(pool)))]
    anchor = round(k / cells_per_unit, 12)
    if u < 0.25:
        return anchor
    if u < 0.5:
        x = anchor
        for _ in range(int(rng.integers(1, 4))):
            x = float(np.nextafter(x, rng.choice([-math.inf, math.inf])))
        return x
    if u < 0.85:
        return (k + float(rng.uniform(0.0, 1.0))) / cells_per_unit
    if u < 0.99:
        return float(rng.uniform(-extent, extent))
    return float(rng.choice([-1.0, 1.0]) * (extent + rng.uniform(1e-8, 1e-2)))


def _outcome(quantize, grid, measure):
    try:
        return _hex_atoms(quantize(grid, measure))
    except SupportOverflow:
        return "SupportOverflow"


def test_quantizers_equal_per_point_oracle():
    rng = np.random.default_rng(2202)
    overflows = collisions = 0
    for _ in range(3000):
        n, dim = int(rng.choice([1, 2, 3, 7, 16, 40, 97, 1000])), int(rng.integers(1, 3))
        grid = LatticeGrid(N=n, dim=dim)
        n2 = n * n
        space_pool = rng.integers(-n2 * n, n2 * n + 1, size=3).tolist()
        vel_pool = rng.integers(-n2, n2 + 1, size=3).tolist()
        count = int(rng.integers(1, 9))
        weights = [float(rng.choice([1.0, 1e-3, 1e-14]) * rng.uniform(0.5, 2.0))
                   for _ in range(count)]
        bases = [[_coordinate(rng, n2, n, space_pool) for _ in range(dim)]
                 for _ in range(count)]
        velocities = [[_coordinate(rng, n, n, vel_pool) for _ in range(dim)]
                      for _ in range(count)]
        mu = DiscreteMeasure.from_atoms(zip(bases, weights), dim=dim)
        lifted = LiftedMeasure.from_atoms(zip(bases, velocities, weights), dim=dim)
        for quantize, oracle, measure in ((ax_discretize, ax_discretize_points, mu),
                                          (av_discretize, av_discretize_points, lifted)):
            want = _outcome(oracle, grid, measure)
            assert _outcome(quantize, grid, measure) == want
            overflows += want == "SupportOverflow"
            collisions += want != "SupportOverflow" and len(want) < len(measure)
    assert overflows > 500 and collisions > 1000


def test_quantizers_reject_a_level_too_fine_for_the_support():
    # at N = 10^6 the snap epsilon 1e-9 + 1e-12 (N^2 + |x| N^2) passes a
    # whole cell, and the per-point snap put 0.3 at 0.300000000001
    grid = LatticeGrid(N=10**6, dim=1)
    with pytest.raises(ConfigError, match="too fine"):
        ax_discretize(grid, d([0.3]))
    with pytest.raises(ConfigError, match="too fine"):
        av_discretize(grid, LiftedMeasure.from_atoms([([0.3], [0.0], 1.0)]))


class TestLasStep:
    def test_transport_example(self):
        g = LatticeGrid(N=2, dim=1)
        out = las_step(g, d([0.0]), constant_pvf(1.0), None)
        assert out.atoms == (((0.5,), 1.0),)

    def test_source_only_mass(self):
        g = LatticeGrid(N=2, dim=1)
        src = SourceSpec.constant(d([0.0]))
        out = las_step(g, d([0.0]), None, src)
        assert out.atoms == (((0.0,), 1.5),)

    def test_zero_velocity_fixed_point(self):
        g = LatticeGrid(N=4, dim=1)
        mu = DiscreteMeasure.from_atoms([([0.25], 0.5), ([0.5], 0.5)])
        out = las_step(g, mu, constant_pvf(0.0), None)
        assert out == mu

    def test_alignment_closure(self, rng):
        g = LatticeGrid(N=4, dim=1)
        mu = ax_discretize(g, random_measure(rng, 6, span=2.0))
        pvf = PvfSpec.deterministic(lambda x: np.sin(3 * x), growth_constant=1.0,
                                    velocity_bound=1.0)
        out = las_step(g, mu, pvf, None)
        assert g.is_aligned(out)

    def test_requires_aligned_input(self):
        g = LatticeGrid(N=2, dim=1)
        with pytest.raises(ValueError):
            las_step(g, d([0.3]), constant_pvf(), None)


class TestInterpolate:
    def test_tau_zero_recovers_state(self):
        g = LatticeGrid(N=2, dim=1)
        mu = d([0.0])
        assert interpolate(g, mu, constant_pvf(), None, 0.0) == mu

    def test_tau_zero_diffusion_recovers_state(self):
        g = LatticeGrid(N=4, dim=1)
        mu = d([0.0])
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        assert interpolate(g, mu, pvf, None, 0.0) == mu

    def test_tau_dt_equals_las_step(self):
        g = LatticeGrid(N=2, dim=1)
        mu = d([0.0])
        src = SourceSpec.constant(d([0.0]))
        assert interpolate(g, mu, constant_pvf(), src, g.dt) == las_step(
            g, mu, constant_pvf(), src
        )

    def test_half_step_translate(self):
        g = LatticeGrid(N=2, dim=1)
        out = interpolate(g, d([0.0]), constant_pvf(), None, 0.25)
        assert out.atoms == (((0.25,), 1.0),)

    def test_tau_out_of_range(self):
        g = LatticeGrid(N=2, dim=1)
        with pytest.raises(ValueError):
            interpolate(g, d([0.0]), constant_pvf(), None, 0.75)


class TestRunSemigroup:
    def test_translate_exact(self):
        for n in (4, 8, 16):
            g = LatticeGrid(N=n, dim=1)
            traj = run_semigroup(g, d([0.0]), constant_pvf(1.0), None, 1.0)
            assert traj.final_state == d([1.0])
            assert len(traj.states) == n + 1

    def test_initial_state_is_discretized(self, rng):
        g = LatticeGrid(N=4, dim=1)
        mu0 = random_measure(rng, 5, span=2.0)
        traj = run_semigroup(g, mu0, constant_pvf(0.0), None, 0.5)
        assert traj.states[0] == ax_discretize(g, mu0)

    def test_mass_constant_without_source(self):
        g = LatticeGrid(N=8, dim=1)
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        traj = run_semigroup(g, d([0.0]), pvf, None, 1.0)
        assert all(defect == 0 for defect in traj.mass_defects())
        assert set(traj.masses) == {1.0}

    def test_source_mass_telescopes(self):
        g = LatticeGrid(N=4, dim=1)
        src = SourceSpec.constant(d([0.0]))
        traj = run_semigroup(g, d([0.0]), None, src, 2.0)
        for k, mass in enumerate(traj.exact_masses):
            assert mass == 1 + Fraction(k, 4)

    def test_proportional_source_radius_leaves_the_envelope(self):
        # it creates mass only on atoms already there: an infinite R was
        # rejected upfront with "growth envelope radius inf"
        g = LatticeGrid(N=4, dim=1)
        src = SourceSpec.proportional(0.5, math.inf)
        assert predicted_reach(d([0.0]), constant_pvf(1.0), src, 1.0) == pytest.approx(2.0)
        traj = run_semigroup(g, d([0.0]), constant_pvf(1.0), src, 1.0)
        masses = traj.exact_masses
        assert [b / a for a, b in zip(masses, masses[1:])] == [1 + Fraction(1, 8)] * 4
        constant = SourceSpec.constant(d([0.0]), support_radius=3.0)
        assert predicted_reach(d([0.0]), constant_pvf(1.0), constant, 1.0) == 4.0

    def test_semigroup_law(self):
        g = LatticeGrid(N=8, dim=1)
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        full = run_semigroup(g, d([0.0]), pvf, None, 1.0)
        first = run_semigroup(g, d([0.0]), pvf, None, 0.5)
        second = run_semigroup(g, first.final_state, pvf, None, 0.5)
        assert second.final_state == full.final_state

    def test_envelope_rejects_upfront(self):
        g = LatticeGrid(N=1, dim=1)
        with pytest.raises(SupportOverflow) as err:
            run_semigroup(g, d([0.0]), constant_pvf(1.0), None, 1.0)
        assert err.value.step_index is None

    def test_adaptive_extent_allows_growth(self):
        g = LatticeGrid(N=1, dim=1, adaptive_extent=True)
        traj = run_semigroup(g, d([0.0]), constant_pvf(1.0), None, 1.0)
        assert traj.final_state == d([1.0])

    def test_midrun_overflow_reports_step(self):
        # velocity bound understated: the envelope precheck passes but the
        # state escapes the extent mid-run
        lying = PvfSpec.deterministic(
            lambda x: (3.0,), growth_constant=3.0, velocity_bound=0.1
        )
        g = LatticeGrid(N=2, dim=1)
        with pytest.raises(SupportOverflow) as err:
            run_semigroup(g, d([0.0]), lying, None, 1.0)
        assert err.value.step_index is not None

    def test_equi_lipschitz_in_time(self):
        # per-step W^g increment bounded by dt (mass * speed + source mass)
        src = SourceSpec.constant(d([0.0], 0.5))
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        for n in (4, 8, 16):
            g = LatticeGrid(N=n, dim=1)
            traj = run_semigroup(g, d([0.0]), pvf, None, 1.0)
            bound = 1.0 * 0.5  # mass * velocity bound
            for a, b in zip(traj.states, traj.states[1:]):
                assert generalized_wasserstein(a, b).distance <= bound * g.dt + 1e-9
            traj_src = run_semigroup(g, d([0.0]), None, src, 1.0)
            for a, b in zip(traj_src.states, traj_src.states[1:]):
                assert generalized_wasserstein(a, b).distance <= 0.5 * g.dt + 1e-9

    def test_self_convergence_trend(self):
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        sups = []
        trajs = {}
        for n in (4, 8, 16):
            trajs[n] = run_semigroup(LatticeGrid(N=n, dim=1), d([0.0]), pvf, None, 1.0)
        for coarse, fine in ((4, 8), (8, 16)):
            sup = max(
                generalized_wasserstein(
                    trajs[coarse].state_at(k / coarse), trajs[fine].state_at(k / coarse)
                ).distance
                for k in range(coarse + 1)
            )
            sups.append(sup)
        assert sups[1] < sups[0]

    def test_interpolate_at_midpoint(self):
        g = LatticeGrid(N=2, dim=1)
        traj = run_semigroup(g, d([0.0]), constant_pvf(1.0), None, 1.0)
        mid = traj.interpolate_at(0.25)
        assert mid.atoms == (((0.25,), 1.0),)

    def test_state_at_rejects_off_grid_times(self):
        g = LatticeGrid(N=2, dim=1)
        traj = run_semigroup(g, d([0.0]), constant_pvf(1.0), None, 1.0)
        with pytest.raises(ValueError):
            traj.state_at(0.3)

    def test_determinism(self):
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        g = LatticeGrid(N=8, dim=1)
        a = run_semigroup(g, d([0.0]), pvf, None, 1.0)
        b = run_semigroup(g, d([0.0]), pvf, None, 1.0)
        assert all(x == y for x, y in zip(a.states, b.states))

    def test_awkward_levels_round_trip(self):
        # anchors at levels like 7 or 47 are non-terminating decimals; the
        # quantized-anchor convention must still round-trip through snapping
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=4)
        for n in (3, 7, 47):
            g = LatticeGrid(N=n, dim=1)
            traj = run_semigroup(g, d([0.0]), pvf, None, 1.0)
            assert all(g.is_aligned(state) for state in traj.states)
            assert all(defect == 0 for defect in traj.mass_defects())
            translated = run_semigroup(g, d([0.0]), constant_pvf(1.0), None, 1.0)
            assert generalized_wasserstein(
                translated.final_state, d([translated.final_time])
            ).distance <= 2.0 / n

    @pytest.mark.parametrize("T, n", [(0.1, 10), (0.01, 100)])
    def test_decimal_T_takes_one_step(self, T, n):
        # the binary double of T lies just above T, and ceil(T N) used to
        # take a second step and report a final time of 2 / N
        traj = run_semigroup(LatticeGrid(N=n, dim=1), d([0.0]), constant_pvf(1.0), None, T)
        assert len(traj.states) == 2
        assert traj.final_time == 1 / n
        assert traj.final_state == d([1 / n])

    def test_step_count_still_rounds_up_off_grid_T(self):
        traj = run_semigroup(LatticeGrid(N=4, dim=1), d([0.0]), constant_pvf(0.0), None, 0.3)
        assert len(traj.states) == 3  # ceil(1.2) steps
        assert traj.final_time == 0.5

    def test_predicted_reach_uses_velocity_bound(self):
        assert predicted_reach(d([0.0]), constant_pvf(1.0), None, 1.0) == pytest.approx(2.0)
        unbounded = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
        assert predicted_reach(d([0.0]), unbounded, None, 1.0) == pytest.approx(math.e)
