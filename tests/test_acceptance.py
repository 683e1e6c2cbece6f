"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Random instances use fixed seeds; every expected value is either a
hand-checked constant or computed by an independent oracle inside the test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from measureflow.analysis import (
    TestFunction,
    convergence_study,
    germ_compat_check,
    semigroup_probe,
    weak_residual,
)
from measureflow.cli import main as cli_main
from measureflow.fiber import fiber_wg
from measureflow.fields import PiecewiseLinear, PvfSpec, SourceSpec
from measureflow.flat import generalized_wasserstein
from measureflow.lattice import LatticeGrid, run_semigroup
from measureflow.measures import DiscreteMeasure, LiftedMeasure
from measureflow.problems import builtin_problem
from measureflow.wasserstein import (
    wasserstein1,
    wasserstein1_1d,
    wasserstein1_1d_uniform,
)

d = DiscreteMeasure.dirac
PHI = PiecewiseLinear.from_table([(0.0, -0.5), (1.0, 0.5)])


def report(number: int, description: str, passed: bool):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


def random_1d_measure(rng, max_atoms, span=5.0, unit=None, n_atoms=None):
    k = int(rng.integers(1, max_atoms + 1)) if n_atoms is None else n_atoms
    atoms = []
    for _ in range(k):
        w = float(rng.uniform(0.05, 1.0)) if unit is None else unit * int(rng.integers(1, 4))
        atoms.append(((float(rng.uniform(-span, span)),), w))
    return DiscreteMeasure.from_atoms(atoms, dim=1)


def equalize_mass(m, rng, max_atoms, span=5.0):
    k = int(rng.integers(1, max_atoms + 1))
    w = rng.uniform(0.05, 1.0, k)
    w *= m.mass() / w.sum()
    return DiscreteMeasure.from_atoms(
        [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-span, span, k), w)],
        dim=1,
    )


def test_criterion_1_w1_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        m1 = random_1d_measure(rng, 20)
        m2 = equalize_mass(m1, rng, 20)
        lp, _ = wasserstein1(m1, m2)
        worst = max(worst, abs(lp - wasserstein1_1d(m1, m2)))
    report(1, f"W1 network simplex vs CDF integral on 200 pairs (worst gap {worst:.2e})",
           worst <= 1e-9)


def _gw_bruteforce_units(m1, m2, unit):
    # integer grid search: exact because the constraint matrix of the
    # partial-transport polytope is totally unimodular, so with weights in
    # unit multiples the optimum is attained at an integer-vertex matrix
    a = np.array([round(w / unit) for w in m1.weights()])
    b = np.array([round(w / unit) for w in m2.weights()])
    X, Y = m1.positions_array(), m2.positions_array()
    C = (np.sqrt(np.sum((X[:, None, :] - Y[None, :, :]) ** 2, axis=2)) - 2.0).reshape(-1)
    ranges = [np.arange(min(ai, bj) + 1) for ai in a for bj in b]
    grids = np.meshgrid(*ranges, indexing="ij")
    candidates = np.stack([g.reshape(-1) for g in grids], axis=1)
    n1, n2 = len(a), len(b)
    rows = candidates.reshape(-1, n1, n2).sum(axis=2)
    cols = candidates.reshape(-1, n1, n2).sum(axis=1)
    feasible = (rows <= a).all(axis=1) & (cols <= b).all(axis=1)
    objective = candidates[feasible] @ C
    return float(objective.min()) * unit + m1.mass() + m2.mass()


def test_criterion_2_gw_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        m1 = random_1d_measure(rng, 3, unit=0.25)
        m2 = random_1d_measure(rng, 3, unit=0.25)
        lp = generalized_wasserstein(m1, m2).distance
        worst = max(worst, abs(lp - _gw_bruteforce_units(m1, m2, 0.25)))
    threshold_ok = generalized_wasserstein(d([0.0]), d([1.0])).distance == pytest.approx(1.0, abs=1e-12)
    threshold_ok &= generalized_wasserstein(d([0.0]), d([3.0])).distance == pytest.approx(2.0, abs=1e-12)
    report(
        2,
        f"W^g LP vs exhaustive grid search on 200 pairs (worst gap {worst:.2e}) "
        "and removal threshold at distance 2",
        worst <= 1e-7 and threshold_ok,
    )


def test_criterion_3_metric_and_mass_inequalities():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(200):
        m1 = random_1d_measure(rng, 8)
        m2 = random_1d_measure(rng, 8)
        gw = generalized_wasserstein(m1, m2).distance
        ok &= abs(m1.mass() - m2.mass()) <= gw + 1e-9
        m2e = equalize_mass(m1, rng, 8)
        ok &= generalized_wasserstein(m1, m2e).distance <= wasserstein1(m1, m2e)[0] + 1e-9
    for _ in range(100):
        ms = [random_1d_measure(rng, 6) for _ in range(3)]
        ab = generalized_wasserstein(ms[0], ms[1]).distance
        bc = generalized_wasserstein(ms[1], ms[2]).distance
        ac = generalized_wasserstein(ms[0], ms[2]).distance
        ok &= ac <= ab + bc + 1e-9
        ok &= abs(ab - generalized_wasserstein(ms[1], ms[0]).distance) <= 1e-9
    for _ in range(50):
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        V1 = LiftedMeasure.from_atoms(
            [((float(x),), (float(v),), float(w))
             for x, v, w in zip(rng.uniform(-3, 3, k1), rng.uniform(-2, 2, k1),
                                rng.uniform(0.1, 1.0, k1))], dim=1)
        V2 = LiftedMeasure.from_atoms(
            [((float(x),), (float(v),), float(w))
             for x, v, w in zip(rng.uniform(-3, 3, k2), rng.uniform(-2, 2, k2),
                                rng.uniform(0.1, 1.0, k2))], dim=1)
        lhs = generalized_wasserstein(V1.as_joint(), V2.as_joint()).distance
        rhs = fiber_wg(V1, V2) + generalized_wasserstein(
            V1.base_projection(), V2.base_projection()
        ).distance
        ok &= lhs <= rhs + 1e-7
    report(3, "mass-gap bound, W^g <= W1, triangle inequality, and the "
              "fiber chain inequality on random instances", ok)


def test_criterion_4_source_only_exactness():
    sigma = DiscreteMeasure.from_atoms([([0.25], 0.5), ([-0.5], 0.5)])
    src = SourceSpec.constant(sigma)
    mu0 = d([0.0])
    ok = True
    for n in (4, 8):
        traj = run_semigroup(LatticeGrid(N=n, dim=1), mu0, None, src, 1.0)
        for k, exact_mass in enumerate(traj.exact_masses):
            ok &= exact_mass == Fraction(1) + Fraction(k, n) * Fraction(1)
        bound = sigma.mass() * math.sqrt(1) / (n * n)
        for t, state in zip(traj.times, traj.states):
            reference = mu0.add(sigma.scale(t)) if t > 0 else mu0
            ok &= generalized_wasserstein(state, reference).distance <= bound + 1e-12
    report(4, "source-only scheme: exact mass telescoping and snap-error bound", ok)


def test_criterion_5_translate_convergence():
    study = convergence_study(builtin_problem("translate"), [4, 8, 16, 32], 1.0,
                              metric="gw")
    ok = all(dist <= 2.0 / n for n, dist in study.reference_final)
    ok &= study.rate >= 0.9  # exact agreement yields rate = inf
    report(5, f"translate: W^g(mu^N(1), delta_1) <= 2/N and rate {study.rate} >= 0.9", ok)


def test_criterion_6_mass_conservation_100_steps():
    translate = PvfSpec.deterministic(lambda x: (1.0,), growth_constant=1.0,
                                      velocity_bound=1.0)
    traj_t = run_semigroup(LatticeGrid(N=100, dim=1), d([0.0]), translate, None, 1.0)
    diffusion = PvfSpec.diffusion1d(PHI, quadrature_points=8)
    traj_d = run_semigroup(LatticeGrid(N=10, dim=1), d([0.0]), diffusion, None, 10.0)
    ok = True
    for traj in (traj_t, traj_d):
        ok &= len(traj.states) == 101
        ok &= all(defect == 0 for defect in traj.mass_defects())
        ok &= set(traj.masses) == {1.0}
    report(6, "per-step mass defect exactly zero over 100 steps for both built-in PVFs", ok)


def test_criterion_7_semigroup_lipschitz_probe():
    import dataclasses

    pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
    problem = dataclasses.replace(builtin_problem("translate"), pvf=pvf, reference=None)
    pairs = [(d([0.5]), d([0.75])), (d([0.25]), d([0.875]))]
    probe = semigroup_probe(problem, pairs, [0.25, 0.5, 0.75, 1.0], N=32)
    worst = max(abs(row.ratio / math.exp(row.t) - 1.0) for row in probe.rows)
    report(7, f"linear-field contraction ratios within 20% of e^t (worst {worst:.3f})",
           worst <= 0.2)


def test_criterion_8_diffusion_self_convergence():
    pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
    trajs = {
        n: run_semigroup(LatticeGrid(N=n, dim=1), d([0.0]), pvf, None, 1.0)
        for n in (4, 8, 16, 32, 64)
    }
    sups = []
    for n in (4, 8, 16, 32):
        sup = max(
            generalized_wasserstein(
                trajs[n].state_at(k / n), trajs[2 * n].state_at(k / n)
            ).distance
            for k in range(n + 1)
        )
        sups.append(sup)
    decreasing = all(a > b for a, b in zip(sups, sups[1:]))

    # independent oracle for the limiting profile: each mass quantile s moves
    # with constant speed phi(s), so at t=1 the solution is uniform on
    # [-1/2, 1/2]; build it from high-resolution characteristics and
    # cross-check against the analytic uniform CDF
    M = 4096
    characteristics = DiscreteMeasure.from_atoms(
        [((PHI((i + 0.5) / M),), 1.0 / M) for i in range(M)]
    )
    oracle_consistency = wasserstein1_1d_uniform(characteristics, -0.5, 0.5)
    final32 = trajs[32].final_state
    dist_analytic = wasserstein1_1d_uniform(final32, -0.5, 0.5)
    dist_chars = wasserstein1_1d(final32, characteristics)
    # fine-N fixed point: the finer level sits closer to the uniform profile
    dist_fine = wasserstein1_1d_uniform(trajs[64].final_state, -0.5, 0.5)
    ok = (
        decreasing
        and oracle_consistency <= 1e-3
        and abs(dist_analytic - dist_chars) <= 2 * oracle_consistency
        and dist_analytic <= 0.1
        and dist_fine <= dist_analytic
    )
    report(
        8,
        f"diffusion self-convergence (sups {['%.4f' % s for s in sups]}) and "
        f"W1 to uniform profile {dist_analytic:.4f} <= 0.1",
        ok,
    )


def test_criterion_9_weak_residual_decay():
    problem = builtin_problem("translate")
    f = TestFunction.windowed_polynomial(
        lambda x: x[0] ** 2, lambda x: np.array([2 * x[0]]), 2.0, 3.0
    )
    residuals = []
    for n in (8, 16, 32):
        traj = run_semigroup(LatticeGrid(N=n, dim=1), problem.initial, problem.pvf,
                             None, 1.0)
        residuals.append(weak_residual(traj, f, t=0.5))
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    report(9, f"weak residual decays by {['%.2f' % r for r in ratios]} per doubling (>= 1.8)",
           all(r >= 1.8 for r in ratios))


def test_criterion_10_germ_compatibility():
    pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
    t_list = [1 / 32, 1 / 16, 1 / 8, 1 / 4]
    germ = germ_compat_check(pvf, None, [1.0], t_list, N=64)
    envelope_ok = all(
        corrected <= 5.0 * t * t + 2.0 / 64 + 1e-9 for t, _, corrected in germ.rows
    )
    coeff_ok = math.isfinite(germ.quad_coeff) and abs(germ.quad_coeff) <= 100.0
    report(
        10,
        f"germ error minus snap offset under 5 t^2 + 2/N with quadratic "
        f"coefficient {germ.quad_coeff:.3f}",
        envelope_ok and coeff_ok,
    )


def test_criterion_11_thread_determinism(tmp_path):
    outputs = {}
    for threads in ("1", "8"):
        base = tmp_path / f"threads{threads}"
        base.mkdir()
        assert cli_main(
            ["simulate", "--preset", "diffusion1d", "--N", "8", "--T", "1.0",
             "--out", str(base / "traj.csv"), "--no-timestamp", "--threads", threads]
        ) == 0
        assert cli_main(
            ["convergence", "--preset", "diffusion1d", "--levels", "4,8,16",
             "--T", "1.0", "--out", str(base / "conv.json"),
             "--csv", str(base / "conv.csv"), "--no-timestamp", "--threads", threads]
        ) == 0
        assert cli_main(
            ["validate", "--preset", "translate", "--N", "8", "--T", "1.0",
             "--out", str(base / "val.json"), "--no-timestamp", "--threads", threads]
        ) == 0
        outputs[threads] = {
            name: (base / name).read_bytes()
            for name in ("traj.csv", "traj.csv.summary.json", "conv.json",
                         "conv.csv", "val.json")
        }
    report(11, "thread counts 1 and 8 produce byte-identical reports",
           outputs["1"] == outputs["8"])
