import dataclasses
import math

import numpy as np
import pytest

from conftest import drift2d, forward_study
from measureflow.analysis import (
    TestFunction,
    convergence_study,
    germ_compat_check,
    rk4_flow,
    semigroup_probe,
    weak_residual,
)
from measureflow._simplex import WarmStart
from measureflow.errors import SupportOverflow
from measureflow.fields import PvfSpec, SourceSpec
from measureflow.flat import GwInstance, generalized_wasserstein
from measureflow.lattice import LatticeGrid, run_semigroup
from measureflow.measures import DiscreteMeasure
from measureflow.problems import builtin_problem
from measureflow.wasserstein import W1Instance, wasserstein1

d = DiscreteMeasure.dirac


def _gradient_matches_finite_differences(f: TestFunction, points, tol: float = 1e-5) -> bool:
    """f's gradient consistent with central finite differences at the points."""
    for p in points:
        x = np.asarray(p, dtype=float)
        g = f.gradient(x)
        for k in range(len(x)):
            h = 1e-6 * (1.0 + abs(x[k]))
            e = np.zeros_like(x)
            e[k] = h
            fd = (f(x + e) - f(x - e)) / (2 * h)
            if abs(fd - g[k]) > tol * (1.0 + abs(g[k])):
                return False
    return True


class TestTestFunction:
    def test_plateau_values(self):
        f = TestFunction.plateau(1.0, 2.0, 1)
        assert f([0.0]) == 1.0
        assert f([0.5]) == 1.0
        assert f([2.5]) == 0.0
        assert 0.0 < f([1.5]) < 1.0

    def test_gradient_matches_finite_differences(self):
        f = TestFunction.windowed_polynomial(
            lambda x: x[0] ** 2, lambda x: np.array([2 * x[0]]), 1.5, 3.0
        )
        points = [[0.1], [0.9], [1.7], [2.2], [2.9]]
        assert _gradient_matches_finite_differences(f, points)

    def test_gradient_2d(self):
        f = TestFunction.windowed_polynomial(
            lambda x: x[0] * x[1],
            lambda x: np.array([x[1], x[0]]),
            1.0,
            2.0,
        )
        assert _gradient_matches_finite_differences(f, [[0.3, 0.4], [0.9, -0.2], [1.2, 0.7]])

    def test_compact_support(self):
        f = TestFunction.plateau(1.0, 2.0, 2)
        assert f([5.0, 5.0]) == 0.0
        assert np.allclose(f.gradient([5.0, 5.0]), 0.0)


class TestWeakResidual:
    def test_mass_balance_without_source(self):
        problem = builtin_problem("translate")
        traj = run_semigroup(LatticeGrid(N=8, dim=1), problem.initial, problem.pvf, None, 1.0)
        f = TestFunction.plateau(3.0, 4.0, 1)  # constant 1 on the whole run
        assert weak_residual(traj, f, t=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_zero_velocity_no_source_any_f(self):
        pvf = PvfSpec.deterministic(lambda x: (0.0,), growth_constant=1e-9,
                                    velocity_bound=0.0)
        traj = run_semigroup(LatticeGrid(N=4, dim=1), d([0.25]), pvf, None, 1.0)
        f = TestFunction.windowed_polynomial(
            lambda x: x[0] ** 3, lambda x: np.array([3 * x[0] ** 2]), 2.0, 3.0
        )
        assert weak_residual(traj, f, t=0.25) == pytest.approx(0.0, abs=1e-12)

    def test_mass_balance_with_source(self):
        problem = builtin_problem("source-only")
        traj = run_semigroup(
            LatticeGrid(N=8, dim=1), problem.initial, problem.pvf, problem.src, 1.0
        )
        f = TestFunction.plateau(2.0, 3.0, 1)
        # d/dt mass = |sigma| exactly for the recorded increments
        assert weak_residual(traj, f, t=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_translate_linear_f_small_residual(self):
        # for f linear on the path the Euler increment is exact
        problem = builtin_problem("translate")
        f = TestFunction.windowed_polynomial(
            lambda x: x[0], lambda x: np.array([1.0]), 2.0, 3.0
        )
        for n in (8, 16):
            traj = run_semigroup(
                LatticeGrid(N=n, dim=1), problem.initial, problem.pvf, None, 1.0
            )
            h = 1.0 / n
            assert weak_residual(traj, f, t=0.5) <= 1.0 * (1.0 / n + h)

    def test_translate_quadratic_f_residual_is_dt(self):
        problem = builtin_problem("translate")
        f = TestFunction.windowed_polynomial(
            lambda x: x[0] ** 2, lambda x: np.array([2 * x[0]]), 2.0, 3.0
        )
        residuals = []
        for n in (8, 16, 32):
            traj = run_semigroup(
                LatticeGrid(N=n, dim=1), problem.initial, problem.pvf, None, 1.0
            )
            residuals.append(weak_residual(traj, f, t=0.5))
        # (f(x+dt) - f(x))/dt - f'(x) = dt exactly for f = x^2
        for n, r in zip((8, 16, 32), residuals):
            assert r == pytest.approx(1.0 / n, rel=1e-9)
        for coarse, fine in zip(residuals, residuals[1:]):
            assert coarse / fine >= 1.8

    def test_out_of_span_rejected(self):
        problem = builtin_problem("translate")
        traj = run_semigroup(LatticeGrid(N=4, dim=1), problem.initial, problem.pvf, None, 1.0)
        f = TestFunction.plateau(3.0, 4.0, 1)
        with pytest.raises(ValueError):
            weak_residual(traj, f, t=1.0)  # t + h leaves the span


def _spy_fits(monkeypatch) -> list[bool]:
    """Log of ``WarmStart.fits`` results: one per solve given a carrier."""
    hits = []
    fits = WarmStart.fits
    monkeypatch.setattr(WarmStart, "fits",
                        lambda self, a, b: hits.append(fits(self, a, b)) or hits[-1])
    return hits


class TestConvergenceStudy:
    def test_translate_reference_distances_vanish(self):
        report = convergence_study(builtin_problem("translate"), [4, 8, 16], 1.0)
        assert all(dist == 0.0 for _, dist in report.reference_sup)
        assert report.rate == math.inf

    def test_off_grid_initial_has_rate_two(self):
        problem = builtin_problem("translate").with_initial(d([1 / 3]))
        problem = dataclasses.replace(
            problem, reference=lambda t: d([1 / 3 + t])
        )
        report = convergence_study(problem, [4, 8, 16, 32], 1.0)
        assert report.rate == pytest.approx(2.0, abs=0.1)

    def test_source_only_bounded_by_snap_error(self):
        problem = builtin_problem("source-only")
        report = convergence_study(problem, [4, 8, 16], 1.0)
        # sigma and mu0 are grid aligned: the reference is reproduced exactly
        for n, dist in report.reference_sup:
            assert dist <= 1.0 * 1.0 / (n * n) + 1e-12

    def test_diffusion_cauchy_trend(self):
        report = convergence_study(builtin_problem("diffusion1d"), [4, 8, 16], 1.0)
        dists = [dist for _, _, dist in report.pair_distances]
        assert dists[1] < dists[0]
        assert math.isfinite(report.rate) and report.rate > 0

    def test_no_usable_level_pair_raises(self):
        # T = 100 takes the translate preset past every level's extent
        problem = builtin_problem("translate")
        with pytest.raises(SupportOverflow, match="levels 2, 4, 8"):
            convergence_study(problem, [2, 4, 8], 100.0)
        with pytest.raises(SupportOverflow, match="levels 2, 4"):
            convergence_study(problem, [2, 4, 64], 20.0)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study(builtin_problem("translate"), [4, 8], 1.0)

    def test_repeated_calls_give_equal_reports(self):
        # each call makes its own warm-start carriers: nothing carries over
        problem = builtin_problem("diffusion1d")
        a = convergence_study(problem, [4, 8, 16], 1.0)
        b = convergence_study(problem, [4, 8, 16], 1.0)
        assert a == b

    @pytest.mark.parametrize("metric", ["gw", "w1"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pair_distances_equal_a_cold_loop(self, monkeypatch, seed, metric):
        problem = drift2d(seed)
        levels = (4, 8, 16)
        warm_hits = _spy_fits(monkeypatch)
        report = convergence_study(problem, levels, 1.0, metric=metric, adaptive_extent=True)
        assert any(warm_hits)  # some solves started from the previous basis

        def distance(a, b):
            if metric == "w1":
                return wasserstein1(a, b)[0]
            return generalized_wasserstein(a, b).distance

        runs = [run_semigroup(LatticeGrid(N=level, dim=2, adaptive_extent=True),
                              problem.initial, problem.pvf, None, 1.0) for level in levels]
        for (nc, nf, sup), coarse, fine in zip(report.pair_distances, runs, runs[1:]):
            cold = max(distance(coarse.state_at(k / nc), fine.state_at(k / nc))
                       for k in range(nc + 1))
            assert (nc, nf) == (coarse.grid.N, fine.grid.N)
            assert sup == pytest.approx(cold, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_w1_study_starts_cold_once_per_level_pair(self, monkeypatch, seed):
        # shared atoms were cancelled, which changed the residual supplies
        # and demands from one time to the next: 6 to 11 cold solves here
        warm_hits = _spy_fits(monkeypatch)
        report = convergence_study(drift2d(seed), (4, 8, 16, 32), 1.0, metric="w1",
                                   adaptive_extent=True)
        assert len(report.pair_distances) == 3
        assert warm_hits.count(False) == 3
        assert warm_hits.count(True) >= 20

    def test_csv_rows_shape(self):
        report = convergence_study(builtin_problem("translate"), [4, 8, 16], 1.0)
        rows = report.csv_rows()
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)


def _count_solves(monkeypatch) -> list[int]:
    """Log with one entry per transport instance solved, W1 or W^g."""
    solved = []
    for cls in (W1Instance, GwInstance):
        monkeypatch.setattr(cls, "solve", lambda self, warm=None, _solve=cls.solve:
                            solved.append(1) or _solve(self, warm))
    return solved


def _hex_rows(rows) -> list[tuple]:
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def _shrink(seed: int):
    """drift2d under the scale field x' = -x: distances fall with time, so
    the sup sits near t = 0."""
    return dataclasses.replace(drift2d(seed), pvf=PvfSpec.deterministic(
        lambda x: -1.0 * np.asarray(x), growth_constant=1.0))


# id -> (problem, metric, levels, adaptive_extent, expected skips or None)
_PRUNING_CASES = {
    # distances rise with time: of the 5 + 9 + 17 shared times of the three
    # level pairs, only each pair's final time is solved
    "drift2d-w1": (drift2d(1), "w1", (4, 8, 16, 32), True, 4 + 8 + 16),
    "drift2d-gw": (drift2d(2), "gw", (4, 8, 16, 32), True, 4 + 8 + 16),
    # every distance is 0, so no bound is below the sup: nothing is skipped
    "translate-w1": (builtin_problem("translate"), "w1", (4, 8, 16), False, 0),
    "translate-gw": (builtin_problem("translate"), "gw", (4, 8, 16), False, 0),
    "source-only-w1": (builtin_problem("source-only"), "w1", (4, 8, 16), False, 0),
    "source-only-gw": (builtin_problem("source-only"), "gw", (4, 8, 16), False, 0),
    "diffusion1d-w1": (builtin_problem("diffusion1d"), "w1", (4, 8, 16), False, None),
    "diffusion1d-gw": (builtin_problem("diffusion1d"), "gw", (4, 8, 16), False, None),
    # the source changes the weights at every step: no carrier ever fits
    "drift2d-source-gw": (dataclasses.replace(drift2d(4, 20), src=SourceSpec.proportional(0.5, 2.0)),
                          "gw", (4, 8, 16), True, 0),
    # distances fall with time: the walk must reach the sup near t = 0
    "shrink-w1": (_shrink(5), "w1", (4, 8, 16), True, None),
    "shrink-gw": (_shrink(5), "gw", (4, 8, 16), True, None),
}


class TestSupPruning:
    @pytest.mark.parametrize("case", list(_PRUNING_CASES))
    def test_pruned_walk_gives_the_bits_of_the_forward_loop(self, monkeypatch, case):
        problem, metric, levels, adaptive, skips = _PRUNING_CASES[case]
        solved = _count_solves(monkeypatch)
        report = convergence_study(problem, levels, 1.0, metric=metric,
                                   adaptive_extent=adaptive)
        pruned = len(solved)
        pairs, ref_sup, ref_final = forward_study(problem, levels, 1.0, metric, adaptive)
        assert _hex_rows(report.pair_distances) == _hex_rows(pairs)
        assert _hex_rows(report.reference_sup) == _hex_rows(ref_sup)
        assert _hex_rows(report.reference_final) == _hex_rows(ref_final)
        # the forward loop solves every time, and each final reference again
        every_time = len(solved) - pruned - len(ref_final)
        assert pruned <= every_time
        if skips is not None:
            assert every_time - pruned == skips


class TestSemigroupProbe:
    def test_identical_pair_ratio_one(self):
        problem = builtin_problem("translate")
        mu = d([0.0])
        report = semigroup_probe(problem, [(mu, mu)], [0.0, 0.5], N=8)
        assert all(row.ratio == 1.0 for row in report.rows)

    def test_zero_velocity_ratio_one(self):
        pvf = PvfSpec.deterministic(lambda x: (0.0,), growth_constant=1e-9,
                                    velocity_bound=0.0)
        problem = dataclasses.replace(builtin_problem("translate"), pvf=pvf, reference=None)
        pairs = [(d([0.0]), d([0.5]))]
        report = semigroup_probe(problem, pairs, [0.25, 0.5, 1.0], N=8)
        for row in report.rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-12)
            assert not row.flagged

    def test_linear_field_estimates_unit_constant(self):
        pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
        problem = dataclasses.replace(builtin_problem("translate"), pvf=pvf, reference=None)
        pairs = [(d([0.5]), d([0.75]))]
        report = semigroup_probe(problem, pairs, [0.25, 0.5, 1.0], N=32)
        for row in report.rows:
            assert row.ratio == pytest.approx(math.exp(row.t), rel=0.2)
        assert report.fitted_c == pytest.approx(1.0, abs=0.2)


    @staticmethod
    def _hex_rows(report):
        return [(r.pair_index, r.t.hex(), r.distance.hex(), r.initial_distance.hex(),
                 r.ratio.hex(), None if r.implied_c is None else r.implied_c.hex(), r.flagged)
                for r in report.rows] + [report.fitted_c.hex()]

    @pytest.mark.parametrize("preset", ["translate", "diffusion1d", "source-only"])
    def test_seeded_run_gives_the_same_rows(self, preset):
        # validate's use: a longer run of mu0 on a fixed-extent grid seeds
        # the probe, which runs the rest on an adaptive one
        problem = builtin_problem(preset)
        mu0 = problem.initial
        nu0 = mu0.pushforward(lambda x: x + 0.4)
        traj = run_semigroup(LatticeGrid(N=8, dim=mu0.dim), mu0, problem.pvf, problem.src, 1.0)
        t_list = [0.125, 0.375, 0.625]
        args = (problem, [(mu0, nu0)], t_list)
        plain = semigroup_probe(*args, N=8, adaptive_extent=True)
        seeded = semigroup_probe(*args, N=8, adaptive_extent=True, trajectories={mu0: traj})
        assert self._hex_rows(seeded) == self._hex_rows(plain)
        assert len(plain.rows) == 3

    def test_seed_of_another_level_or_problem_is_rejected(self):
        problem = builtin_problem("translate")
        mu0 = problem.initial
        pairs = [(mu0, mu0.pushforward(lambda x: x + 0.4))]
        other = run_semigroup(LatticeGrid(N=4, dim=1), mu0, problem.pvf, problem.src, 1.0)
        with pytest.raises(ValueError, match="seeded trajectory"):
            semigroup_probe(problem, pairs, [0.5], N=8, trajectories={mu0: other})
        moved = dataclasses.replace(problem, pvf=PvfSpec.deterministic(
            lambda x: (0.5,), growth_constant=0.5, velocity_bound=0.5))
        with pytest.raises(ValueError, match="seeded trajectory"):
            semigroup_probe(moved, pairs, [0.5], N=4, trajectories={mu0: other})


class TestGermCompat:
    def test_constant_velocity_error_is_snap_offset_only(self):
        pvf = PvfSpec.deterministic(lambda x: (1.0,), growth_constant=1.0,
                                    velocity_bound=1.0)
        report = germ_compat_check(pvf, None, [0.0], [1 / 8, 1 / 4], N=8)
        assert report.snap_offset == pytest.approx(0.0, abs=1e-12)
        for _, dist, corrected in report.rows:
            assert dist == pytest.approx(0.0, abs=1e-12)
            assert corrected == pytest.approx(0.0, abs=1e-12)

    def test_linear_field_quadratic_envelope(self):
        pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
        t_list = [1 / 32, 1 / 16, 1 / 8, 1 / 4]
        report = germ_compat_check(pvf, None, [1.0], t_list, N=64)
        assert math.isfinite(report.quad_coeff)
        for t, _, corrected in report.rows:
            assert corrected <= 1.0 * t * t + 10.0 / 64 * t + 1e-6

    def test_snap_offset_bounded(self):
        pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
        report = germ_compat_check(pvf, None, [0.26], [1 / 8], N=8)
        assert report.snap_offset <= 1.0 * math.sqrt(1) / 64 + 1e-12

    def test_rejects_non_deterministic(self):
        from measureflow.fields import PiecewiseLinear

        diff = PvfSpec.diffusion1d(PiecewiseLinear.from_table([(0, -0.5), (1, 0.5)]))
        with pytest.raises(ValueError):
            germ_compat_check(diff, None, [0.0], [0.25], N=8)


class TestRk4:
    def test_exponential_flow(self):
        out = rk4_flow(lambda x: x, [1.0], 1.0)
        assert out[0] == pytest.approx(math.e, rel=1e-10)

    def test_zero_time(self):
        assert rk4_flow(lambda x: x, [2.0], 0.0)[0] == 2.0
