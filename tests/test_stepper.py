"""The array stepper against a reference stepper over per-atom Fractions,
golden CLI digests, and the array forms of snapping, anchors and the
diffusion profile."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import snap_scalar, space_anchor, space_index, velocity_index
from measureflow.cli import _build_problem, main
from measureflow.errors import ConfigError, ProfileRangeError
from measureflow.fields import Ball, PiecewiseLinear, PvfSpec, SourceSpec
from measureflow.lattice import LatticeGrid, _anchors, _snap, _space_cells, run_semigroup
from measureflow.measures import WEIGHT_FLOOR, DiscreteMeasure, LiftedMeasure, _quantize

d = DiscreteMeasure.dirac
PHI = PiecewiseLinear.from_table([(0.0, -0.5), (1.0, 0.5)])


# -- reference: the per-atom dict/Fraction stepper ----------------------------


def _scalar_phi(phi: PiecewiseLinear, s: float) -> float:
    lo, hi = phi.knots[0], phi.knots[-1]
    if s < lo - 1e-12 or s > hi + 1e-12:
        raise ValueError(f"profile queried at {s} outside table range [{lo}, {hi}]")
    s = min(max(s, lo), hi)
    for k in range(len(phi.knots) - 1):
        if s <= phi.knots[k + 1]:
            t = (s - phi.knots[k]) / (phi.knots[k + 1] - phi.knots[k])
            return phi.values[k] + t * (phi.values[k + 1] - phi.values[k])
    return phi.values[-1]


def _emit(grid, state, dim):
    return DiscreteMeasure.from_atoms(
        ((space_anchor(grid, idx), float(w)) for idx, w in state.items()), dim=dim
    )


def _exact(grid, state, dim):
    """Every exact atom, sub-floor ones included, each weight rounded once:
    the measure a custom evaluator is handed."""
    return DiscreteMeasure(
        atoms=tuple((space_anchor(grid, idx), float(w)) for idx, w in sorted(state.items())),
        dim=dim,
    )


def _lift(grid, state, pvf, dim):
    lift = {}

    def put(space_idx, vel_idx, w):
        lift[space_idx, vel_idx] = lift.get((space_idx, vel_idx), Fraction(0)) + w

    if pvf.kind == "deterministic":
        for idx, w in state.items():
            vel = tuple(float(c) for c in pvf.velocity(np.asarray(space_anchor(grid, idx))))
            put(idx, velocity_index(grid, vel), w)
    elif pvf.kind == "diffusion1d":
        q = pvf.quadrature_points
        cumulative = Fraction(0)
        for idx, w in sorted(state.items()):
            for i in range(1, q + 1):
                s = cumulative + (2 * i - 1) * w / (2 * q)
                put(idx, velocity_index(grid, (_scalar_phi(pvf.phi, float(s)),)), w / q)
            cumulative += w
    else:
        for base, vel, w in pvf.evaluator(_exact(grid, state, dim)).atoms:
            put(space_index(grid, base), velocity_index(grid, vel), Fraction(w))
    return lift


def _created(grid, state, src, dim):
    """(cell, exact weight) pairs of the source of the exact state."""
    if src.kind == "proportional":
        ball = Ball((0.0,) * dim, src.support_radius)
        return [
            (idx, Fraction(src.rate) * w)
            for idx, w in sorted(state.items())
            if ball.contains(space_anchor(grid, idx))
            and (src.carrier is None or src.carrier.contains(space_anchor(grid, idx)))
        ]
    if src.kind == "constant":
        return [(space_index(grid, pos), Fraction(w)) for pos, w in src.measure.atoms]
    return [
        (space_index(grid, pos), Fraction(w))
        for pos, w in src.evaluator(_exact(grid, state, dim)).atoms
    ]


def reference_run(grid, mu0, pvf, src, steps):
    """(recorded atoms per state, exact masses, exact atom counts)."""
    dim = mu0.dim
    state = {}
    for pos, w in mu0.atoms:
        idx = space_index(grid, pos)
        state[idx] = state.get(idx, Fraction(0)) + Fraction(w)
    atoms, masses, counts = [], [], []
    for k in range(steps + 1):
        atoms.append(_emit(grid, state, dim).atoms)
        masses.append(sum(state.values(), Fraction(0)))
        counts.append(len(state))
        if k == steps:
            break
        new = {}
        if pvf is None:
            new.update(state)
        else:
            for (space_idx, vel_idx), w in _lift(grid, state, pvf, dim).items():
                moved = tuple(i + j for i, j in zip(space_idx, vel_idx))
                new[moved] = new.get(moved, Fraction(0)) + w
        if src is not None:
            for idx, w in _created(grid, state, src, dim):
                new[idx] = new.get(idx, Fraction(0)) + w / grid.N
        state = {idx: w for idx, w in new.items() if w > 0}
    return atoms, masses, counts


def _initial(rng, n, dim, mass):
    points = rng.uniform(-1.0, 1.0, size=(n, dim))
    weights = rng.uniform(0.5, 1.5, size=n)
    weights = weights / weights.sum() * mass
    return DiscreteMeasure.from_atoms(
        [(tuple(p), float(w)) for p, w in zip(points, weights)], dim=dim
    )


def _split_lift(mu):
    """A custom PVF: half of each atom moves right, half moves left slower."""
    atoms = []
    for pos, w in mu.atoms:
        atoms.append((pos, (0.5,), w / 2))
        atoms.append((pos, (-0.25,), w / 2))
    return LiftedMeasure.from_atoms(atoms, dim=1)


CASES = {
    "diffusion_q3": dict(dim=1, n=7, N=10, steps=30, mass=1.0,
                         pvf=PvfSpec.diffusion1d(PHI, quadrature_points=3), src=None),
    "diffusion_q8": dict(dim=1, n=5, N=8, steps=24, mass=1.0,
                         pvf=PvfSpec.diffusion1d(PHI, quadrature_points=8), src=None),
    "rotation_proportional": dict(
        dim=2, n=6, N=8, steps=24, mass=6.0,
        pvf=PvfSpec.deterministic(lambda x: (-0.5 * x[1], 0.5 * x[0]), growth_constant=0.5),
        src=SourceSpec.proportional(0.5, 2.0, carrier=Ball((0.0, 0.0), 1.5))),
    # dt = 1/6 puts a 3 into the shared denominator, so every emitted
    # weight takes the division per atom
    "drift_proportional_carrier_n6": dict(
        dim=2, n=6, N=6, steps=18, mass=3.0,
        pvf=PvfSpec.deterministic(lambda x: (0.25, -0.5 * x[0]), growth_constant=0.5),
        src=SourceSpec.proportional(0.5, 1.8, carrier=Ball((0.4, -0.3), 1.1))),
    "drift_constant_source": dict(
        dim=2, n=5, N=6, steps=24, mass=2.0,
        pvf=PvfSpec.deterministic(lambda x: (0.3, -0.2), growth_constant=0.4,
                                  velocity_bound=0.4),
        src=SourceSpec.constant(DiscreteMeasure.from_atoms(
            [((0.1, 0.2), 0.25), ((-0.4, 0.0), 0.125)]))),
    "custom_split": dict(dim=1, n=4, N=8, steps=20, mass=1.0,
                         pvf=PvfSpec.custom(_split_lift, growth_constant=0.5,
                                            velocity_bound=0.5), src=None),
}


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference_stepper(name):
    case = CASES[name]
    rng = np.random.default_rng(sorted(CASES).index(name) + 7)
    mu0 = _initial(rng, case["n"], case["dim"], case["mass"])
    grid = LatticeGrid(N=case["N"], dim=case["dim"], adaptive_extent=True)
    traj = run_semigroup(grid, mu0, case["pvf"], case["src"], case["steps"] / case["N"])
    atoms, masses, _ = reference_run(traj.grid, mu0, case["pvf"], case["src"], case["steps"])
    assert len(traj.states) == case["steps"] + 1
    assert list(traj.exact_masses) == masses
    assert [state.atoms for state in traj.states] == atoms
    assert _hex(traj.support_radii) == _hex(s.support_radius() for s in traj.states)


def test_sub_floor_atoms_evolve_unrecorded():
    # dt times a 1.6e-15 source atom is below the weight floor: the exact
    # state keeps it (and moves it, so the velocity sees it) while the
    # recorded states drop it until enough mass has piled up
    calls = []

    def velocity(x):
        calls.append(1)
        return (0.0,)

    pvf = PvfSpec.deterministic(velocity, growth_constant=1e-9, velocity_bound=0.0)
    src = SourceSpec.constant(d([0.5], 1.6e-15))
    grid = LatticeGrid(N=4, dim=1)
    traj = run_semigroup(grid, d([0.0]), pvf, src, 1.0)
    velocity_calls = len(calls)
    atoms, masses, counts = reference_run(grid, d([0.0]), pvf, src, 4)
    assert [state.atoms for state in traj.states] == atoms
    assert list(traj.exact_masses) == masses
    assert _hex(traj.support_radii) == _hex(s.support_radius() for s in traj.states)
    assert traj.states[1].atoms == (((0.0,), 1.0),)
    assert Fraction(1.6e-15) / 4 < WEIGHT_FLOOR
    assert traj.exact_masses[1] == 1 + Fraction(1.6e-15) / 4
    assert counts[1] == 2 and len(traj.states[1]) == 1
    assert len(traj.states[-1]) == 2
    assert velocity_calls == sum(counts[:-1])  # one call per exact atom and step


@pytest.mark.parametrize("speed", [None, 0.5])
def test_proportional_source_ledger_is_exact(speed):
    # non-dyadic weights 1/3, 1/7, 1/4 inside B(0, 5): the source reads the
    # exact state, so every step multiplies the exact mass by 1 + rate / N
    mu0 = DiscreteMeasure.from_atoms([([0.0], 1 / 3), ([0.25], 1 / 7), ([0.5], 1 / 4)])
    pvf = None if speed is None else PvfSpec.deterministic(
        lambda x: (speed,), growth_constant=speed, velocity_bound=speed)
    traj = run_semigroup(LatticeGrid(N=8, dim=1), mu0, pvf,
                         SourceSpec.proportional(0.5, 5.0), 1.0)
    mass0 = sum(map(Fraction, mu0.weights()))
    assert list(traj.exact_masses) == [(1 + Fraction(1, 16)) ** k * mass0 for k in range(9)]


def test_sub_floor_atom_in_ball_creates_mass():
    # a unit atom moving right leaves dt * rate = 2^-51 of created mass at 0,
    # below the weight floor; in the next step that sub-floor atom creates
    # 2^-102 of its own before it moves on, and nothing records either
    rate = 2.0**-48
    pvf = PvfSpec.deterministic(lambda x: (1.0,), growth_constant=1.0, velocity_bound=1.0)
    traj = run_semigroup(LatticeGrid(N=8, dim=1), d([0.0]), pvf,
                         SourceSpec.proportional(rate, 5.0), 2 / 8)
    tiny = Fraction(2) ** -51
    assert traj.exact_masses[1] == 1 + tiny
    assert traj.exact_masses[2] == (1 + tiny) ** 2
    assert traj.exact_masses[2] - traj.exact_masses[1] - tiny == tiny * tiny
    assert [state.atoms for state in traj.states] == [
        (((0.0,), 1.0),), (((0.125,), 1.0),), (((0.25,), 1.0),)]


def test_custom_source_sees_sub_floor_atoms():
    # every step the source leaves dt 2^-48 = 2^-51 at 0, below the weight
    # floor, and the unit atom moves on: the exact state gains one sub-floor
    # atom a step, and the custom source is handed every one of them
    seen = []

    def trail(mu):
        seen.append(len(mu))
        return d([0.0], 2.0**-48)

    pvf = PvfSpec.deterministic(lambda x: (1.0,), growth_constant=1.0, velocity_bound=1.0)
    src = SourceSpec.custom(trail, support_radius=1.0)
    grid = LatticeGrid(N=8, dim=1)
    traj = run_semigroup(grid, d([0.0]), pvf, src, 4 / 8)
    assert seen == [1, 2, 3, 4]
    assert [len(state) for state in traj.states] == [1] * 5
    seen.clear()
    atoms, masses, _ = reference_run(grid, d([0.0]), pvf, src, 4)
    assert seen == [1, 2, 3, 4]
    assert [state.atoms for state in traj.states] == atoms
    assert list(traj.exact_masses) == masses
    assert masses[-1] == 1 + 4 * Fraction(2) ** -51


def _unit_drift(offset=0.0):
    """A custom PVF moving every atom right at unit speed, built with
    from_atoms, which drops sub-floor pieces; ``offset`` moves the base of
    every atom at or above the weight floor."""

    def lift(mu):
        return LiftedMeasure.from_atoms(
            [((x + offset * (w >= WEIGHT_FLOOR),), (1.0,), w) for (x,), w in mu.atoms], dim=1
        )

    return PvfSpec.custom(lift, growth_constant=1.0, velocity_bound=1.0)


def test_custom_lift_drops_sub_floor_atoms():
    # the constant source leaves 2^-51 at 0 every step; the next lift drops
    # it, so the exact mass stays 1 + 2^-51, and the projection check still
    # holds the above-floor atom to its place
    src = SourceSpec.constant(d([0.0], 2.0**-48))
    grid = LatticeGrid(N=8, dim=1)
    traj = run_semigroup(grid, d([0.0]), _unit_drift(), src, 4 / 8)
    assert list(traj.exact_masses) == [1] + [1 + Fraction(2) ** -51] * 4
    assert [state.atoms for state in traj.states] == [(((k / 8,), 1.0),) for k in range(5)]
    atoms, masses, _ = reference_run(grid, d([0.0]), _unit_drift(), src, 4)
    assert [state.atoms for state in traj.states] == atoms
    assert list(traj.exact_masses) == masses
    with pytest.raises(ValueError, match="projection condition"):
        run_semigroup(grid, d([0.0]), _unit_drift(0.125), src, 4 / 8)


# -- golden digests: preset trajectories recorded from the Fraction stepper --

GOLDEN = {
    ("translate", 16): ("9431b2817f6d0605a6da48642e43e9ea828dc5c98d78f0885b6049c03f8f269f",
                        "6e09dd27490a02d1edd69207692157be8c71995d3022e4fc83ef23640a78c93a"),
    ("translate", 47): ("ba31780052cdc864f1b0ec00e66d981192ada83f42a905699f4dd51143381f9b",
                        "b00ccc28565d56ea0fc33b63697e194acc57a32b04c7bae5d565951a610a8022"),
    ("diffusion1d", 16): ("bee81c11b582d3e6b00f937e751f7b1a5bbe0c97cff8b9d0792a37a945365f42",
                          "fff562d3f9362a0a12e72e7706a5bfcfa2495e00bf6dd39454abed082036d860"),
    ("diffusion1d", 47): ("15379dadb8e35e3321502bc88ee9ceb78419db5ea9ca17d10a3c6bb3b3ea5dcb",
                          "2faaec82ae7aaaa226ccff71b510f639e6c1c21559592b7a53304128b1f37ab3"),
    ("source-only", 16): ("e52c32e0319407a443437dbe126c74081c3e0c1189db45d48d28fa6a41714683",
                          "a9336d4a9a4b5def932f079f3ba831592bc82672cc4f97fa098bfdb0c37493d8"),
    ("source-only", 47): ("c8630c1c6b659d7401a2058d939497d30c0ce4837559807251bdfbec5ff4f554",
                          "18afb3bac1f21f5de0a18ac1bfb324db1e977464d37e96a918d7c0f6d331c473"),
}


@pytest.mark.parametrize("preset, n", sorted(GOLDEN))
def test_preset_trajectory_digests(preset, n, tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--preset", preset, "--N", str(n), "--T", "1",
                 "--out", str(out), "--no-timestamp"]) == 0
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out, tmp_path / "traj.csv.summary.json")
    )
    assert digests == GOLDEN[preset, n]


IDENTITY_SOURCE_CONFIG = {
    "problem": "custom",
    "initial_measure": {
        "dim": 2,
        "atoms": [[(7 * k % 19) / 19 - 0.5, (11 * k % 17) / 17 - 0.5, (k % 5 + 1) / 60]
                  for k in range(20)],
    },
    "pvf": {"kind": "deterministic", "velocity": {"type": "identity"}, "C": 1.0},
    "source": {"kind": "proportional", "rate": 0.5, "R": 2.0},
    "N": 8, "T": 1.0, "adaptive_extent": True,
}


def _simulate_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--no-timestamp"]) == 0
    return out


def test_2d_identity_source_digests(tmp_path):
    """A 2D trajectory (20 atoms growing to 172), recorded from the csv.writer
    output: the identity field with a proportional source, as in the
    benchmark's simulate.identity_source at a smaller size.  The reference
    stepper reproduces these states (test_2d_identity_source_matches_reference)."""
    out = _simulate_config(tmp_path, IDENTITY_SOURCE_CONFIG)
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out, tmp_path / "traj.csv.summary.json")
    )
    assert digests == ("eedb10b27de07dc5b7f00078ce2c71f77fc1d0ca3fa9034c70228aaa06c803b4",
                       "31d889a36d505cdb01ccffa9f7dda65f7083148439904187eeb3407ec1656ebf")


def test_2d_identity_source_matches_reference(tmp_path):
    config = IDENTITY_SOURCE_CONFIG
    out = _simulate_config(tmp_path, config)
    states: dict[float, list] = {}
    for line in out.read_text().splitlines()[1:]:
        t, _, x1, x2, w = map(float, line.split(","))
        states.setdefault(t, []).append(((x1, x2), w))
    problem = _build_problem(config, tmp_path)
    grid = LatticeGrid(N=config["N"], dim=2, extent_radius=100.0)
    atoms, masses, _ = reference_run(grid, problem.initial, problem.pvf, problem.src, 8)
    assert [tuple(state) for state in states.values()] == atoms
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
    assert summary["masses"] == [float(m) for m in masses]


# -- array snap and profile -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 7, 40, 1000])
def test_array_snap_equals_scalar(n):
    n2 = n * n
    # large |t| up to 2**52 cells, the most the level bound admits
    values = [0.0, -0.0, 2.0**52 / n2, -(2.0**52) / n2, 12345.678, -98765.4321]
    for k in (-5 * n2 - 1, -n2, -7, -1, 1, 2, 7, n2 - 1, 3 * n2 + 1):
        anchor = round(k / n2, 12)
        values.append(anchor)
        up = down = anchor
        for _ in range(2):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
            values += [float(up), float(down)]
    for cells in (n, n2):
        got = _snap(np.array(values), cells).tolist()
        assert got == [snap_scalar(v * cells, cells) for v in values]


def _level_bound_cell(n2: int) -> int:
    """The largest cell index the level bound (``_check_level``) admits."""
    return int(min((0.5 - 1e-9) / (1e-12 * n2) - 1.5, 2.0**53 / n2) * n2)


def _near_tie(k: int, n2: int) -> bool:
    """Whether (k / n2) 1e12, taken exactly from the float k / n2, lies within
    one rounding of the product of a half-integer: there a rint of the
    rounded product may round the other way from round(k / n2, 12)."""
    t = Fraction(k / n2) * 10**12
    return abs(t - math.floor(t) - Fraction(1, 2)) <= math.ulp(float(t))


@pytest.mark.parametrize("n", [1, 3, 7, 40, 47, 1000, 8192])
def test_array_anchors_equal_scalar(n):
    n2 = n * n
    top = _level_bound_cell(n2)
    rng = np.random.default_rng(n)
    # every scale from one cell to the level bound, both signs
    pool = np.exp(rng.uniform(0.0, math.log(top), size=20000)).astype(np.int64)
    pool *= rng.choice([-1, 1], size=len(pool))
    near = [k for k in pool.tolist() if _near_tie(k, n2)]
    cells = [0, 1, -1, 7, -7, n2, -n2, n2 + 1, top, -top, *pool[:2000].tolist(), *near]
    if n == 8192:  # exact ties: k / n2 = odd / 2^13, which has 13 decimals
        odd = 2 * rng.integers(0, top // 2**14, size=500) + 1
        cells += (2**13 * odd).tolist() + (-(2**13) * odd).tolist()
    got = _anchors(np.array(cells, dtype=np.int64), n2).tolist()
    assert _hex(got) == _hex(_quantize(k / n2, 12) for k in cells)
    assert len(near) >= 50


def test_array_anchors_normalize_negative_zero():
    # round(-0.1e-12, 12) is -0.0; measure coordinates are +0.0
    got = _anchors(np.array([-1, 0, 1], dtype=np.int64), 10**13).tolist()
    assert _hex(got) == _hex([0.0, 0.0, 0.0])


def test_array_profile_equals_scalar_bitwise():
    phi = PiecewiseLinear.from_table([(0.0, -0.7), (0.3, -0.2), (0.55, 0.1),
                                      (0.9, 0.1), (1.7, 0.65)])
    knots = list(phi.knots)
    points = knots + [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    points += [knots[0] - 5e-13, knots[-1] + 5e-13, 1.0 / 3.0, 0.3000000000000001]
    got = phi.evaluate(np.array(points))
    want = [_scalar_phi(phi, s) for s in points]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert [phi(s).hex() for s in points] == [v.hex() for v in want]


def test_profile_out_of_range_raises_profile_range_error():
    with pytest.raises(ProfileRangeError, match="1.5"):
        PHI.evaluate(np.array([0.2, 1.5]))
    with pytest.raises(ValueError):
        PHI(-0.1)


# -- runs outside the representable regime --------------------------------------


def test_level_bound():
    # one step of unit speed: predicted reach 1 + 1/N, so the bound
    # 1e-12 N^2 (1.5 + reach) < 0.5 puts the largest level near 447213
    pvf = PvfSpec.deterministic(lambda x: (1.0,), growth_constant=1.0, velocity_bound=1.0)
    below, above = 447_000, 447_500
    traj = run_semigroup(LatticeGrid(N=below, dim=1), d([0.0]), pvf, None, 1 / below)
    assert traj.final_state.atoms == (((round(1 / below, 12),), 1.0),)
    grid = traj.grid
    n2 = below * below
    cells = np.linspace(-1.0 * n2, 1.0 * n2, 2001).astype(np.int64).reshape(-1, 1)
    assert (_space_cells(grid, _anchors(cells, n2)) == cells).all()
    with pytest.raises(ConfigError, match="too fine"):
        run_semigroup(LatticeGrid(N=above, dim=1), d([0.0]), pvf, None, 1 / above)


def test_cli_rejects_too_fine_level(tmp_path, capsys):
    code = main(["simulate", "--preset", "translate", "--N", "1000000", "--T", "1e-6",
                 "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ConfigError")


def test_cli_diffusion_with_source_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "problem": "diffusion1d",
        "source": {"kind": "constant", "measure": {"dim": 1, "atoms": [[0.0, 0.5]]}},
        "N": 8,
        "T": 1.0,
    }))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("error: ProfileRangeError: step 2: profile queried at 1.0078125")
