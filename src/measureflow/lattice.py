"""Lattice grids, snap operators and the explicit Euler stepper.

Level N uses time step 1/N, velocity step 1/N and space step 1/N^2, so one
Euler step maps grid-aligned measures to grid-aligned measures: moving a
space cell i by a velocity cell j lands on space cell i + j.  The stepper
exploits this by working on integer cell indices, and keeps atom weights as
exact rationals so that mass bookkeeping is exact over arbitrarily many
steps (the scheme conserves mass identically in exact arithmetic; floats
would drift at the ulp level after a few dozen quadrature splits).

One step, in order: lift the state through the PVF, quantize the lift in
space and velocity, move every quantized atom by dt * velocity, then add
dt times the space-quantized source.  No operator fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from .errors import SupportOverflow
from .fields import PvfSpec, SourceSpec
from .measures import DiscreteMeasure, LiftedMeasure

IndexVec = tuple[int, ...]

# Snap epsilon in index units: absorbs float noise and the 12-decimal
# position quantization (absolute error up to 5e-13, scaled by the cell
# count per unit length), so grid-aligned measures round-trip exactly.
_SNAP_ABS = 1e-9
_SNAP_REL = 1e-12


def _snap_scalar(t: float, cells_per_unit: int) -> int:
    eps = _SNAP_ABS + 1e-12 * cells_per_unit + _SNAP_REL * abs(t)
    return math.floor(t + eps)


@dataclass(frozen=True)
class LatticeGrid:
    """Refinement level N with its derived steps and extent convention.

    Cells are half-open boxes anchored at their lower-left corner: space
    cells have side 1/N^2, velocity cells side 1/N.  The literal extent is
    the box [-N, N]^n; ``adaptive_extent`` lets a runner widen it to the
    growth envelope of the initial data (cells are snapped arithmetically,
    never materialized, so a wide extent costs nothing).
    """

    N: int
    dim: int
    adaptive_extent: bool = False
    extent_radius: float | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    @property
    def dt(self) -> float:
        return 1.0 / self.N

    @property
    def dv(self) -> float:
        return 1.0 / self.N

    @property
    def dx(self) -> float:
        return 1.0 / (self.N * self.N)

    @property
    def space_extent(self) -> float:
        return float(self.N) if self.extent_radius is None else self.extent_radius

    @property
    def velocity_extent(self) -> float:
        return float(self.N)

    # -- snapping -----------------------------------------------------------

    def space_index(self, position: Iterable[float]) -> IndexVec:
        position = tuple(position)
        n2 = self.N * self.N
        idx = tuple(_snap_scalar(c * n2, n2) for c in position)
        bound = self.space_extent + 1e-9
        for c in position:
            if abs(c) > bound:
                raise SupportOverflow(
                    f"position {position} outside space extent "
                    f"[-{self.space_extent}, {self.space_extent}]^n"
                )
        return idx

    def space_anchor(self, idx: IndexVec) -> tuple[float, ...]:
        # quantized like measure coordinates, so anchors round-trip
        n2 = self.N * self.N
        return tuple(round(k / n2, 12) for k in idx)

    def velocity_index(self, velocity: Iterable[float]) -> IndexVec:
        velocity = tuple(velocity)
        idx = tuple(_snap_scalar(c * self.N, self.N) for c in velocity)
        bound = self.velocity_extent + 1e-9
        for c in velocity:
            if abs(c) > bound:
                raise SupportOverflow(
                    f"velocity {velocity} outside velocity extent [-{self.N}, {self.N}]^n"
                )
        return idx

    def velocity_anchor(self, idx: IndexVec) -> tuple[float, ...]:
        return tuple(round(k / self.N, 12) for k in idx)

    def is_aligned(self, mu: DiscreteMeasure) -> bool:
        try:
            return all(
                self.space_anchor(self.space_index(pos)) == pos for pos, _ in mu.atoms
            )
        except SupportOverflow:
            return False


# -- quantization operators ----------------------------------------------------


def ax_discretize(grid: LatticeGrid, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Snap every atom to its space-cell anchor.  Mass is preserved exactly
    (weights are regrouped, never rescaled)."""
    return DiscreteMeasure.from_atoms(
        ((grid.space_anchor(grid.space_index(pos)), w) for pos, w in mu.atoms),
        dim=mu.dim,
    )


def av_discretize(grid: LatticeGrid, lifted: LiftedMeasure) -> LiftedMeasure:
    """Joint snap of base to space cells and velocity to velocity cells."""
    return LiftedMeasure.from_atoms(
        (
            (
                grid.space_anchor(grid.space_index(base)),
                grid.velocity_anchor(grid.velocity_index(vel)),
                w,
            )
            for base, vel, w in lifted.atoms
        ),
        dim=lifted.dim,
    )


# -- exact stepping engine ------------------------------------------------------

ExactState = dict[IndexVec, Fraction]


def _ingest(grid: LatticeGrid, mu: DiscreteMeasure) -> ExactState:
    state: ExactState = {}
    for pos, w in mu.atoms:
        idx = grid.space_index(pos)
        state[idx] = state.get(idx, Fraction(0)) + Fraction(w)
    return {idx: w for idx, w in state.items() if w > 0}


def _emit(grid: LatticeGrid, state: ExactState, dim: int) -> DiscreteMeasure:
    return DiscreteMeasure.from_atoms(
        ((grid.space_anchor(idx), float(w)) for idx, w in state.items()), dim=dim
    )


def _quantized_lift(
    grid: LatticeGrid, state: ExactState, pvf: PvfSpec, dim: int
) -> dict[tuple[IndexVec, IndexVec], Fraction]:
    """Exact-weight version of av_discretize(pvf.evaluate(state))."""
    lift: dict[tuple[IndexVec, IndexVec], Fraction] = {}

    def put(space_idx: IndexVec, vel_idx: IndexVec, w: Fraction):
        key = (space_idx, vel_idx)
        lift[key] = lift.get(key, Fraction(0)) + w

    if pvf.kind == "deterministic":
        import numpy as np

        for idx, w in state.items():
            anchor = grid.space_anchor(idx)
            vel = tuple(float(c) for c in pvf.velocity(np.asarray(anchor)))
            put(idx, grid.velocity_index(vel), w)
    elif pvf.kind == "diffusion1d":
        if dim != 1:
            raise ValueError("diffusion1d requires dim 1")
        atoms = sorted(
            ((grid.space_anchor(idx), w, idx) for idx, w in state.items()),
            key=lambda item: item[0],
        )
        for pos, vel, w in pvf._diffusion_pieces([(p, w) for p, w, _ in atoms]):
            idx = grid.space_index(pos)
            put(idx, grid.velocity_index(vel), w)
    else:  # custom: float fallback, weights converted exactly afterwards
        snapshot = _emit(grid, state, dim)
        lifted = pvf.evaluate(snapshot)
        for base, vel, w in lifted.atoms:
            put(grid.space_index(base), grid.velocity_index(vel), Fraction(w))
    return lift


def _exact_step(
    grid: LatticeGrid,
    state: ExactState,
    pvf: PvfSpec | None,
    src: SourceSpec | None,
    dim: int,
) -> ExactState:
    new: ExactState = {}
    if pvf is None:
        new.update(state)
    else:
        for (space_idx, vel_idx), w in _quantized_lift(grid, state, pvf, dim).items():
            moved = tuple(i + j for i, j in zip(space_idx, vel_idx))
            # moved anchor = (i + j)/N^2 = x_i + dt * v_j, still on the grid
            new[moved] = new.get(moved, Fraction(0)) + w
    if src is not None:
        sigma = src.evaluate(_emit(grid, state, dim))
        dt = Fraction(1, grid.N)
        for pos, w in sigma.atoms:
            idx = grid.space_index(pos)
            new[idx] = new.get(idx, Fraction(0)) + Fraction(w) * dt
    for idx in new:
        anchor = grid.space_anchor(idx)
        if any(abs(c) > grid.space_extent + 1e-9 for c in anchor):
            raise SupportOverflow(f"atom at {anchor} left the space extent")
    return {idx: w for idx, w in new.items() if w > 0}


# -- public scheme operations ---------------------------------------------------


def las_step(
    grid: LatticeGrid,
    mu: DiscreteMeasure,
    pvf: PvfSpec | None,
    src: SourceSpec | None,
) -> DiscreteMeasure:
    """One explicit Euler step of the lattice scheme.

    ``mu`` must be grid-aligned (as produced by ax_discretize or a previous
    step).  With ``pvf=None`` this reduces to the pure source scheme; with
    ``src=None`` to pure transport.
    """
    if not grid.is_aligned(mu):
        raise ValueError("las_step requires a grid-aligned measure; apply ax_discretize first")
    state = _ingest(grid, mu)
    return _emit(grid, _exact_step(grid, state, pvf, src, mu.dim), mu.dim)


def interpolate(
    grid: LatticeGrid,
    mu: DiscreteMeasure,
    pvf: PvfSpec | None,
    src: SourceSpec | None,
    tau: float,
) -> DiscreteMeasure:
    """State at intermediate time tau in [0, dt] past the grid-aligned ``mu``.

    Same construction as las_step with dt replaced by tau; the result need
    not be grid-aligned.
    """
    if tau < -1e-12 or tau > grid.dt + 1e-12:
        raise ValueError(f"tau={tau} outside [0, {grid.dt}]")
    if not grid.is_aligned(mu):
        raise ValueError("interpolate requires a grid-aligned measure")
    atoms: list[tuple[tuple[float, ...], float]] = []
    if pvf is None:
        atoms.extend(mu.atoms)
    else:
        lifted = av_discretize(grid, pvf.evaluate(mu))
        for base, vel, w in lifted.atoms:
            moved = tuple(x + tau * v for x, v in zip(base, vel))
            atoms.append((moved, w))
    if src is not None:
        sigma = ax_discretize(grid, src.evaluate(mu))
        for pos, w in sigma.atoms:
            atoms.append((pos, w * tau))
    return DiscreteMeasure.from_atoms(atoms, dim=mu.dim)


@dataclass(frozen=True)
class Trajectory:
    """Recorded lattice run: states at every step time k/N with diagnostics.

    ``exact_masses`` are the stepper's rational masses; their differences
    are the literal per-step mass defects (zero without a source)."""

    grid: LatticeGrid
    pvf: PvfSpec | None
    src: SourceSpec | None
    times: tuple[float, ...]
    states: tuple[DiscreteMeasure, ...]
    masses: tuple[float, ...]
    support_radii: tuple[float, ...]
    exact_masses: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.states)

    @property
    def final_state(self) -> DiscreteMeasure:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return self.times[-1]

    def step_index(self, t: float) -> int:
        k = round(t * self.grid.N)
        if abs(t * self.grid.N - k) > 1e-9 * max(1.0, abs(t) * self.grid.N):
            raise ValueError(f"t={t} is not a recorded step time (step {1.0 / self.grid.N})")
        if not 0 <= k < len(self.states):
            raise ValueError(f"t={t} outside recorded span [0, {self.final_time}]")
        return k

    def state_at(self, t: float) -> DiscreteMeasure:
        return self.states[self.step_index(t)]

    def interpolate_at(self, t: float) -> DiscreteMeasure:
        """State at an arbitrary time in the span, interpolating inside steps."""
        k = math.floor(t * self.grid.N + 1e-12)
        k = min(max(k, 0), len(self.states) - 1)
        tau = t - k / self.grid.N
        if tau <= 1e-15:
            return self.states[k]
        return interpolate(self.grid, self.states[k], self.pvf, self.src, tau)

    def mass_defects(self) -> list[Fraction]:
        return [b - a for a, b in zip(self.exact_masses, self.exact_masses[1:])]


def predicted_reach(
    mu0: DiscreteMeasure,
    pvf: PvfSpec | None,
    src: SourceSpec | None,
    T: float,
) -> float:
    """Upper bound on the support radius over [0, T], plus one cell of slack.

    Uses the uniform speed bound when the PVF declares one, otherwise the
    Gronwall envelope of dr/dt = C (1 + r) from the sublinearity budget.
    """
    r0 = mu0.support_radius()
    if pvf is None:
        reach = r0
    elif pvf.velocity_bound is not None:
        reach = r0 + T * pvf.velocity_bound
    else:
        c = pvf.growth_constant
        reach = (r0 + 1.0) * math.exp(c * T) - 1.0
    if src is not None:
        reach = max(reach, src.support_radius)
    return reach + 1.0


def _step_count(T: float, N: int) -> int:
    """ceil(T N), except that a T N within 1e-9 relative of an integer is
    that integer: a decimal T such as 0.1 is stored a hair above its value,
    and the plain ceiling would take one step too many."""
    exact = Fraction(T) * N
    nearest = round(exact)
    if abs(exact - nearest) <= exact / 10**9:
        return nearest
    return math.ceil(exact)


def run_semigroup(
    grid: LatticeGrid,
    mu0: DiscreteMeasure,
    pvf: PvfSpec | None,
    src: SourceSpec | None,
    T: float,
) -> Trajectory:
    """Run the lattice scheme from ax_discretize(mu0) for ceil(T N) steps
    (T N within 1e-9 relative of an integer counts as that integer).

    Rejects upfront (SupportOverflow) when the growth envelope of the data
    cannot fit the extent; in adaptive-extent mode the extent is widened to
    the envelope instead.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if mu0.dim != grid.dim:
        raise ValueError(f"measure dim {mu0.dim} != grid dim {grid.dim}")
    reach = predicted_reach(mu0, pvf, src, T)
    if grid.adaptive_extent:
        if reach > grid.space_extent:
            grid = replace(grid, extent_radius=reach)
    elif reach > grid.space_extent:
        raise SupportOverflow(
            f"growth envelope radius {reach:.6g} exceeds the extent "
            f"[-{grid.space_extent}, {grid.space_extent}]^n; "
            "increase N or enable the adaptive extent",
            step_index=None,
        )

    steps = _step_count(T, grid.N)
    state = _ingest(grid, mu0)
    times, states, masses, radii, exact = [], [], [], [], []

    def record(k: int, current: ExactState):
        snapshot = _emit(grid, current, mu0.dim)
        for pos, _ in snapshot.atoms:
            if grid.space_anchor(grid.space_index(pos)) != pos:
                raise AssertionError(f"state left the lattice at step {k}: atom {pos}")
        total = sum(current.values(), Fraction(0))
        times.append(k / grid.N)
        states.append(snapshot)
        masses.append(float(total))
        radii.append(snapshot.support_radius())
        exact.append(total)

    record(0, state)
    for k in range(steps):
        try:
            state = _exact_step(grid, state, pvf, src, mu0.dim)
        except SupportOverflow as err:
            raise SupportOverflow(str(err), step_index=k + 1) from None
        record(k + 1, state)

    return Trajectory(
        grid=grid,
        pvf=pvf,
        src=src,
        times=tuple(times),
        states=tuple(states),
        masses=tuple(masses),
        support_radii=tuple(radii),
        exact_masses=tuple(exact),
    )
