"""Lattice grids, snap operators and the explicit Euler stepper.

Level N uses time step 1/N, velocity step 1/N and space step 1/N^2, so one
Euler step maps grid-aligned measures to grid-aligned measures: moving a
space cell i by a velocity cell j lands on space cell i + j.

One step, in order: lift the state through the PVF, quantize the lift in
space and velocity, move every quantized atom by dt * velocity, then add
dt times the space-quantized source.  No operator fusion.  A step copies
no array it does not change: a deterministic lift takes its space cells as
a view, ``_merge`` skips the common denominator and concatenation for one
part and the duplicate-cell sum when no cell repeats, a factor of 1 (the
step's 1/N on the source, a rate such as 1/2) multiplies no numerator, and
``_emit`` skips the floor filter when no atom is below it.  The gcd
reduction, the extent checks and the re-snap self-check run every step.

Fields.  Every PVF and source, ``custom`` kinds included, acts on the
exact state through its array form (``PvfSpec.lift``,
``SourceSpec.created``) on the cell anchors and exact weights: one call
per field and step.  A custom evaluator gets every atom of the state as a
DiscreteMeasure with each weight rounded once, and its float weights are
taken exactly.

State.  The stepper works on integer cell indices with exact weights: an
int64 array of unique space cells, shape (n, dim), in lexicographic order,
and one positive Python-int numerator per cell over one shared
denominator.  The weights stay exact over any number of steps (the scheme
conserves mass identically; floats would drift at the ulp level after a
few dozen quadrature splits).  A quadrature split multiplies the
denominator by q and the source by N and a power of two, and the fraction
is reduced by the gcd once per step.  Numerators are Python ints because
the denominator outgrows 64 bits within a few dozen steps.

Same floats as a stepper over per-atom Fractions, the oracle the tests
keep with the per-point snap and anchor (``tests/conftest.py``).  A weight
is emitted as the correctly rounded ``num / den``, so it is float(Fraction)
whatever factors the shared denominator carries; ``_ratios`` converts a
whole array at once (float(num) scaled by 2^-k when den = 2^k, int / int
otherwise).
Diffusion quadrature abscissae are integers over 2 q den, built on object
arrays, and convert the same way.  The array snap (``_snap``) and profile
(``PiecewiseLinear.evaluate``) do the same float operations in the same
order as those per-point forms; the source balls (``Ball.contains_rows``)
hand rows within 1e-14 of the bound to the scalar ``math.dist`` test, and
the support radius rounds each row's sum of squares once, as fsum does.
The anchors round(k / N^2, 12) are computed on whole cell arrays
(``_anchors``): the integer R that ``rint`` gives for t = (k / N^2) 1e12 is
the one Python's correctly rounded ``round`` picks unless t lies within one
rounding error of a half-integer, and R / 1e12 is correctly rounded for
|R| < 2^53; those near-ties (every |t| >= 2^51 among them) take the scalar
``round``.  Below the level bound (``_check_level``) the anchors re-snap
to k and increase with k, so sorted cells give sorted positions and each
state is emitted once, as an already-canonical DiscreteMeasure.  The
quantizers ``ax_discretize`` and ``av_discretize`` run on the same
kernel: rounding the exact sum of a cell's weights gives the bits fsum
gives, since both are correctly rounded.

Sub-floor atoms.  An exact atom lighter than ``WEIGHT_FLOOR`` stays in the
state and keeps moving (its velocity is evaluated, it feeds the diffusion
quadrature, a proportional source and the custom evaluators), but the
recorded DiscreteMeasure leaves it out, as the canonical form does;
``Trajectory.exact_masses`` counts it.  A custom lift that drops it (as
``LiftedMeasure.from_atoms`` does) loses its mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ProfileRangeError, SupportOverflow
from .fields import PvfSpec, SourceSpec
from .measures import (
    POSITION_DECIMALS,
    WEIGHT_FLOOR,
    DiscreteMeasure,
    LiftedMeasure,
    _dyadic,
    _quantize,
    _ratios,
    _support_radius,
)

# Snap epsilon in index units: absorbs float noise and the 12-decimal
# position quantization (absolute error up to 5e-13, scaled by the cell
# count per unit length), so grid-aligned measures round-trip exactly.
_SNAP_ABS = 1e-9
_SNAP_REL = 1e-12


def _snap(values: np.ndarray, cells_per_unit: int) -> np.ndarray:
    """Cell indices floor(c N + eps) of the entries c of ``values`` at N =
    ``cells_per_unit`` cells per unit length, eps = 1e-9 + 1e-12 N +
    1e-12 |c N|."""
    t = values * cells_per_unit
    eps = (_SNAP_ABS + 1e-12 * cells_per_unit) + _SNAP_REL * np.abs(t)
    return np.floor(t + eps).astype(np.int64)


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

    def is_aligned(self, mu: DiscreteMeasure) -> bool:
        """Whether every atom sits on its space cell's anchor inside the extent.

        The stepper's snap (``_space_cells``) and anchors (``_anchors``) on
        the position array; a non-finite coordinate is never aligned, nor is
        one whose cell index is not an exact float (|x| N^2 >= 2^53).
        """
        positions = mu.positions_array()
        n2 = self.N * self.N
        if not (np.abs(positions) * n2 < 2.0**53).all():
            return False
        try:
            cells = _space_cells(self, positions)
        except SupportOverflow:
            return False
        return bool((_anchors(cells, n2) == positions).all())


# -- quantization operators ----------------------------------------------------


def ax_discretize(grid: LatticeGrid, mu: DiscreteMeasure) -> DiscreteMeasure:
    """Snap every atom to its space-cell anchor.  Mass is preserved exactly
    (weights are regrouped, never rescaled); a level too fine for the
    support raises ConfigError."""
    _check_level(grid, mu.support_radius())
    return _emit(grid, _ingest(grid, mu), 0)[1]


def av_discretize(grid: LatticeGrid, lifted: LiftedMeasure) -> LiftedMeasure:
    """Joint snap of base to space cells and velocity to velocity cells."""
    dim = lifted.dim
    rows = np.array([(*base, *vel) for base, vel, _ in lifted.atoms], dtype=float)
    rows = rows.reshape(-1, 2 * dim)
    bases, velocities = rows[:, :dim], rows[:, dim:]
    _check_level(grid, _support_radius(bases))
    cells = np.hstack([_space_cells(grid, bases), _velocity_cells(grid, velocities)])
    state = _merge([(cells, *_dyadic(w for _, _, w in lifted.atoms))])
    weights = _ratios(state.nums, state.den)
    kept = weights >= WEIGHT_FLOOR
    cells = state.cells[kept]
    atoms = zip(map(tuple, _anchors(cells[:, :dim], grid.N * grid.N).tolist()),
                map(tuple, _anchors(cells[:, dim:], grid.N).tolist()), weights[kept].tolist())
    return LiftedMeasure(atoms=tuple(atoms), dim=dim)


# -- exact stepping kernel -------------------------------------------------------


class _State(NamedTuple):
    """Exact lattice measure: atom i weighs nums[i] / den at space cell cells[i]."""

    cells: np.ndarray  # (n, dim) int64, unique rows in lexicographic order
    nums: np.ndarray  # (n,) object array of positive Python ints
    den: int


_DECIMAL_SCALE = 10.0**POSITION_DECIMALS


def _anchors(cells: np.ndarray, cells_per_unit: int) -> np.ndarray:
    """Anchor coordinates _quantize(k / cells_per_unit, 12) of the cell
    indices k in ``cells`` (|k| <= 2^53, so k / cells_per_unit is the
    correctly rounded quotient), with -0.0 normalized."""
    t = (cells / cells_per_unit) * _DECIMAL_SCALE
    anchors = np.rint(t) / _DECIMAL_SCALE + 0.0
    a = np.abs(t)
    # rint may round the other way from the exact product only this close
    # to a half-integer; from 2^51 on the spacing is at least 1/2, so every
    # such t is near and R / 1e12 stays below 2^53
    near = np.abs(a - np.floor(a) - 0.5) <= np.spacing(a)
    if near.any():
        anchors[near] = [
            _quantize(k / cells_per_unit, POSITION_DECIMALS) for k in cells[near].tolist()
        ]
    return anchors


def _check_level(grid: LatticeGrid, reach: float) -> None:
    """Reject levels whose anchors would not snap back to their cells.

    An anchor round(k/N^2, 12) lies within 5e-13 of k/N^2, so re-snapping
    it lands at most 1e-12 N^2 (1.5 + |x|) + 1e-9 index units above k
    (anchor error plus the snap epsilon).  Kept below half a cell over the
    radius ``reach``, every anchor re-snaps to its k and the anchors
    increase strictly with k; cell indices must also be exact in a float.
    """
    n2 = grid.N * grid.N
    # n2 >= 2^53 fails the next test too; as an integer test it comes first,
    # so that an N past the float range is rejected, not an OverflowError
    if n2 >= 2**53 or 1e-12 * n2 * (1.5 + reach) + 1e-9 >= 0.5 or reach * n2 >= 2.0**53:
        raise ConfigError(
            f"level N={grid.N} is too fine for support radius {reach:.6g}: grid "
            "anchors at 12 decimals would not snap back to their cells "
            "(need 1e-12 N^2 (1.5 + radius) < 0.5)"
        )


def _outside(values: np.ndarray, extent: float) -> tuple[float, ...] | None:
    """The first row of ``values`` with a coordinate beyond the extent, if any."""
    beyond = np.abs(values) > extent + 1e-9
    if not beyond.any():
        return None
    return tuple(values[np.argmax(beyond.any(axis=1))].tolist())


def _cells(values: np.ndarray, cells_per_unit: int, extent: float, name: str) -> np.ndarray:
    """Cell indices of the rows of ``values``, which must lie in the extent
    box."""
    row = _outside(values, extent)
    if row is not None:
        raise SupportOverflow(f"{name} {row} outside the extent [-{extent}, {extent}]^n")
    return _snap(values, cells_per_unit)


def _space_cells(grid: LatticeGrid, positions: np.ndarray) -> np.ndarray:
    return _cells(positions, grid.N * grid.N, grid.space_extent, "position")


def _velocity_cells(grid: LatticeGrid, velocities: np.ndarray) -> np.ndarray:
    return _cells(velocities, grid.N, grid.velocity_extent, "velocity")


def _merge(parts: list[tuple[np.ndarray, np.ndarray, int]]) -> _State:
    """Sum weighted cells (cells, nums, den) into one reduced state.

    Rows are sorted and grouped by one int64 key per cell, the digits k_i
    in base span = 2 max|k| + 1 (k_0 span^(dim-1) + ... + k_(dim-1)), which
    orders cells lexicographically; a repeated cell is a repeated key.
    Past |key| ~ span^dim / 2 >= 2^61 the rows take ``lexsort``.  Either
    sort is stable, and the exact sums of a cell's numerators do not depend
    on their order anyway."""
    if len(parts) == 1:
        cells, nums, den = parts[0]
    else:
        den = math.lcm(*(d for _, _, d in parts))
        cells = np.concatenate([c for c, _, _ in parts])
        nums = np.concatenate([n if d == den else n * (den // d) for _, n, d in parts])
    if not len(nums):
        return _State(cells, nums, 1)
    first = np.ones(len(cells), dtype=bool)
    span = 2 * max(int(cells.max()), -int(cells.min())) + 1
    if span ** cells.shape[1] < 2**62:
        key = cells[:, 0]
        for column in cells.T[1:]:
            key = key * span + column
        order = np.argsort(key, kind="stable")
        key = key[order]
        first[1:] = key[1:] != key[:-1]
    else:
        order = np.lexsort(cells.T[::-1])
        first[1:] = (cells[order[1:]] != cells[order[:-1]]).any(axis=1)
    cells, nums = cells[order], nums[order]
    if not first.all():
        starts = np.flatnonzero(first)
        cells, nums = cells[starts], np.add.reduceat(nums, starts)
    g = math.gcd(den, *nums.tolist())
    if g > 1:
        nums, den = nums // g, den // g
    return _State(cells, nums, den)


def _ingest(grid: LatticeGrid, mu: DiscreteMeasure) -> _State:
    nums, den = _dyadic(mu.weights())
    return _merge([(_space_cells(grid, mu.positions_array()), nums, den)])


def _emit(
    grid: LatticeGrid, state: _State, step: int
) -> tuple[np.ndarray, DiscreteMeasure, float]:
    """Anchor positions of all cells, the canonical measure of the atoms at
    or above WEIGHT_FLOOR, and its support radius, which the measure also
    keeps as the memo of its ``support_radius()``.  After a step (``step``
    > 0) every anchor must lie in the space extent."""
    n2 = grid.N * grid.N
    positions = _anchors(state.cells, n2)
    anchor = _outside(positions, grid.space_extent) if step > 0 else None
    if anchor is not None:
        raise SupportOverflow(f"atom at {anchor} left the space extent", step_index=step)
    weights = _ratios(state.nums, state.den)
    kept = weights >= WEIGHT_FLOOR
    recorded, cells = positions, state.cells
    if not kept.all():
        recorded, cells, weights = recorded[kept], cells[kept], weights[kept]
    snapped = _snap(recorded, n2)
    if not np.array_equal(snapped, cells):
        atom = tuple(recorded[np.argmax((snapped != cells).any(axis=1))].tolist())
        raise AssertionError(f"state left the lattice at step {step}: atom {atom}")
    atoms = tuple(zip(zip(*recorded.T.tolist()), weights.tolist()))
    snapshot = DiscreteMeasure(atoms=atoms, dim=state.cells.shape[1])
    radius = _support_radius(recorded)
    snapshot.__dict__["_support_radius"] = radius  # the memo of snapshot.support_radius()
    return positions, snapshot, radius


def _lift(
    grid: LatticeGrid, state: _State, positions: np.ndarray, pvf: PvfSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """av_discretize(V[state]) with exact weights: (space cells, velocity
    cells, nums, den).  ``positions`` are the anchors of ``state.cells``; a
    deterministic field's space cells are a view of them."""
    rows, velocities, nums, den = pvf.lift(positions, state.nums, state.den)
    return state.cells[rows], _velocity_cells(grid, velocities), nums, den


def _source(
    grid: LatticeGrid, state: _State, positions: np.ndarray, src: SourceSpec, factor: Fraction
) -> tuple[np.ndarray, np.ndarray, int]:
    """factor * ax_discretize(s[state]) with exact weights."""
    points, nums, den = src.created(positions, state.nums, state.den)
    if factor.numerator != 1:  # the step's 1/N needs no pass over the nums
        nums = nums * factor.numerator
    return _space_cells(grid, points), nums, den * factor.denominator


def _step(grid: LatticeGrid, state: _State, positions: np.ndarray,
          pvf: PvfSpec | None, src: SourceSpec | None) -> _State:
    if pvf is None:
        parts = [state]
    else:
        cells, vel_cells, nums, den = _lift(grid, state, positions, pvf)
        # moved anchor = (i + j)/N^2 = x_i + dt * v_j, still on the grid
        parts = [(cells + vel_cells, nums, den)]
    if src is not None:
        parts.append(_source(grid, state, positions, src, Fraction(1, grid.N)))
    return _merge(parts)


# -- public scheme operations ---------------------------------------------------


def _start(grid: LatticeGrid, mu: DiscreteMeasure, pvf: PvfSpec | None,
           src: SourceSpec | None, caller: str):
    """Checks on the grid-aligned ``mu``, then its exact state and anchor
    positions."""
    if mu.dim != grid.dim:
        raise ValueError(f"measure dim {mu.dim} != grid dim {grid.dim}")
    _check_level(grid, predicted_reach(mu, pvf, src, grid.dt))
    if not grid.is_aligned(mu):
        raise ValueError(
            f"{caller} requires a grid-aligned measure; apply ax_discretize first"
        )
    state = _ingest(grid, mu)
    return state, _anchors(state.cells, grid.N * grid.N)


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
    state, positions = _start(grid, mu, pvf, src, "las_step")
    new = _step(grid, state, positions, pvf, src)
    return _emit(grid, new, 1)[1]


def interpolate(
    grid: LatticeGrid,
    mu: DiscreteMeasure,
    pvf: PvfSpec | None,
    src: SourceSpec | None,
    tau: float,
) -> DiscreteMeasure:
    """State at intermediate time tau in [0, dt] past the grid-aligned ``mu``.

    Same construction as las_step with dt replaced by tau: the same exact
    lift, each piece moved to x + tau * v, and tau times the source.  The
    result need not be grid-aligned.
    """
    if tau < -1e-12 or tau > grid.dt + 1e-12:
        raise ValueError(f"tau={tau} outside [0, {grid.dt}]")
    state, positions = _start(grid, mu, pvf, src, "interpolate")
    n2 = grid.N * grid.N
    if pvf is None:
        parts = [(positions, state.nums, state.den)]
    else:
        cells, vel_cells, nums, den = _lift(grid, state, positions, pvf)
        velocities = _anchors(vel_cells, grid.N)
        parts = [(_anchors(cells, n2) + tau * velocities, nums, den)]
    if src is not None:
        cells, nums, den = _source(grid, state, positions, src, Fraction(tau))
        parts.append((_anchors(cells, n2), nums, den))
    den = math.lcm(*(d for _, _, d in parts))
    merged: dict[tuple[float, ...], int] = {}
    for points, nums, d in parts:
        for point, num in zip(points.tolist(), (nums * (den // d)).tolist()):
            key = tuple(_quantize(c, POSITION_DECIMALS) for c in point)
            merged[key] = merged.get(key, 0) + num
    return DiscreteMeasure.from_atoms(
        ((pos, num / den) for pos, num in merged.items()), dim=mu.dim
    )


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
    Gronwall envelope of dr/dt = C (1 + r) from the sublinearity budget (inf
    past the float range).  A constant or custom source may create mass
    anywhere in B(0, R); a proportional one only on atoms already there, so
    its R does not count.
    """
    r0 = mu0.support_radius()
    if pvf is None:
        reach = r0
    elif pvf.velocity_bound is not None:
        reach = r0 + T * pvf.velocity_bound
    else:
        try:
            reach = (r0 + 1.0) * math.exp(pvf.growth_constant * T) - 1.0
        except OverflowError:
            reach = math.inf
    if src is not None and src.kind != "proportional":
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


# The float range of a mass: a W^g solve adds two states' masses, and
# validate's budget takes up to ten times a step's created mass, so every
# mass stays at or below 2^1020, a sixteenth of the float maximum.
_MASS_LIMIT = 2**1020


def _mass(measure: DiscreteMeasure) -> float:
    """|measure|, correctly rounded (``mass``); inf past the float range."""
    try:
        return measure.mass()
    except OverflowError:  # fsum raises where the rounded sum is inf
        return math.inf


def _mass_text(measure: DiscreteMeasure) -> str:
    """|measure| as repr gives it, or to 6 digits past the float range."""
    mass = _mass(measure)
    return repr(mass) if mass < math.inf else f"{sum(map(Decimal, measure.weights())):.6g}"


def _checked_step_count(grid: LatticeGrid, mu0: DiscreteMeasure, src: SourceSpec | None,
                        T: float) -> int:
    """``_step_count(T, N)``, rejected (ConfigError) when the steps or the
    mass leave the float range.

    Step times k / N are exact floats only up to k = 2^53, and a run that
    long would not end anyway.  A mass leaves the float range past
    ``_MASS_LIMIT`` (2^1020): the initial mass |mu_0| and the mass envelope
    of the run.  A constant source adds dt |sigma| per step, so the
    envelope is |mu_0| + steps dt |sigma|; a proportional one multiplies the
    mass by at most 1 + rate / N per step, so it is |mu_0| (1 + rate /
    N)^steps, compared in logs with 1e-9 for their rounding.
    """
    steps = _step_count(T, grid.N)
    if steps > 2**53:
        raise ConfigError(
            f"T={T!r} at level N={grid.N} needs more than 2^53 steps, past which "
            "step times k/N are not exact floats"
        )
    mass = _mass(mu0)
    if mass > _MASS_LIMIT:
        raise ConfigError(f"the initial mass {_mass_text(mu0)} is past the float range")
    if src is None or src.kind == "custom":
        return steps
    if src.kind == "constant":
        if mass + steps / grid.N * _mass(src.measure) > _MASS_LIMIT:
            raise ConfigError(
                f"a constant source of mass {_mass_text(src.measure)} can grow the mass "
                f"{mass!r} past the float range in {steps} steps at level N={grid.N}"
            )
        return steps
    growth = steps * math.log1p(src.rate / grid.N)
    if mass > 0 and math.log(mass) + growth > math.log(_MASS_LIMIT) + 1e-9:
        raise ConfigError(
            f"a proportional source of rate {src.rate!r} can grow the mass "
            f"{mass!r} past the float range in {steps} steps at level N={grid.N}"
        )
    return steps


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
    the envelope instead, and a velocity field whose Gronwall envelope is
    infinite (no ``velocity_bound``, C T past the float range) is rejected
    (ConfigError) naming its C.  Also rejects upfront (ConfigError) a level N too
    fine for the envelope radius, where 12-decimal anchors stop snapping
    back to their cells (a level too fine for any radius, before the
    envelope is computed), and a run whose step count or proportional-source
    mass leaves the float range (``_checked_step_count``).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if mu0.dim != grid.dim:
        raise ValueError(f"measure dim {mu0.dim} != grid dim {grid.dim}")
    _check_level(grid, 0.0)  # too fine for any support; also an N past the float range
    reach = predicted_reach(mu0, pvf, src, T)
    if grid.adaptive_extent:
        if (pvf is not None and pvf.velocity_bound is None and mu0.support_radius() < math.inf
                and predicted_reach(mu0, pvf, None, T) == math.inf):
            raise ConfigError(
                f"the growth envelope (r0 + 1) exp(C T) - 1 of the velocity field is infinite "
                f"at C={pvf.growth_constant!r}, T={T!r}: no extent holds it (give the field "
                "a velocity_bound, or a smaller C or T)"
            )
        if reach > grid.space_extent:
            grid = replace(grid, extent_radius=reach)
    elif reach > grid.space_extent:
        raise SupportOverflow(
            f"growth envelope radius {reach:.6g} exceeds the extent "
            f"[-{grid.space_extent}, {grid.space_extent}]^n; "
            "increase N or enable the adaptive extent",
            step_index=None,
        )

    _check_level(grid, reach)

    steps = _checked_step_count(grid, mu0, src, T)
    state = _ingest(grid, mu0)
    positions, snapshot, radius = _emit(grid, state, 0)
    times, states, masses, radii, exact = [], [], [], [], []

    def record(k: int):
        total = Fraction(sum(state.nums.tolist()), state.den)
        times.append(k / grid.N)
        states.append(snapshot)
        masses.append(float(total))
        radii.append(radius)
        exact.append(total)

    record(0)
    for k in range(1, steps + 1):
        try:
            state = _step(grid, state, positions, pvf, src)
        except SupportOverflow as err:
            raise SupportOverflow(str(err), step_index=k) from None
        except ProfileRangeError as err:
            raise ProfileRangeError(f"step {k}: {err}") from None
        positions, snapshot, radius = _emit(grid, state, k)
        record(k)

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
