"""Probability vector fields and mass sources.

A PVF assigns to each measure mu a lifted measure V[mu] on the tangent
bundle projecting back onto mu; a source assigns a created-mass measure
s[mu] supported in a fixed ball.  Built-in kinds:

* deterministic transport: every atom moves with velocity v(x);
* finite-speed diffusion (dim 1): each atom's mass, occupying the jump
  interval [F(x-), F(x)] of the cumulative distribution, is pushed through
  a monotone profile phi and split into q equal quadrature pieces at the
  midpoint velocities;
* constant and proportional creation sources.

Every kind has one exact form on rows with weights nums / den:
``PvfSpec.lift`` and ``SourceSpec.created``.  The stepper calls them on its
exact state; ``evaluate`` calls them on a float measure's weights, taken
exactly, and rounds the result.  ``custom`` kinds call a user evaluator on
every row, weights rounded, and take its float weights exactly.

Sources are restricted to nonnegative measures (pure creation); sinks are
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, ProfileRangeError
from .flat import generalized_wasserstein
from .measures import WEIGHT_FLOOR, DiscreteMeasure, LiftedMeasure, _dyadic, _ratios
from .wasserstein import _distances


def _rows_measure(positions: np.ndarray, nums: np.ndarray, den: int) -> DiscreteMeasure:
    """Every row as an atom weighing nums / den rounded, sub-floor ones too."""
    atoms = tuple(zip(map(tuple, positions.tolist()), _ratios(nums, den).tolist()))
    return DiscreteMeasure(atoms=atoms, dim=positions.shape[1])


@dataclass(frozen=True)
class PiecewiseLinear:
    """Monotone nondecreasing profile given as a breakpoint table.

    Evaluation interpolates linearly between knots; querying outside the
    knot range raises ProfileRangeError (the table must cover [0, total
    mass] over the whole run when used as a diffusion profile).
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ValueError("need at least two (knot, value) pairs")
        for a, b in zip(self.knots, self.knots[1:]):
            if not b > a:
                raise ValueError("knots must be strictly increasing")
        for a, b in zip(self.values, self.values[1:]):
            if b < a:
                raise ValueError("values must be nondecreasing (monotone profile)")
        # the table as arrays, built once for ``evaluate``
        object.__setattr__(self, "_arrays", (np.asarray(self.knots), np.asarray(self.values)))

    @classmethod
    def from_table(cls, table: Iterable[Sequence[float]]) -> "PiecewiseLinear":
        pairs = sorted((float(s), float(v)) for s, v in table)
        return cls(knots=tuple(s for s, _ in pairs), values=tuple(v for _, v in pairs))

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """phi at every entry of ``s``.  Per entry: clamp to the knot range,
        take the first segment whose right knot is >= s, and return
        values[k] + t * (values[k+1] - values[k])."""
        s = np.asarray(s, dtype=float)
        lo, hi = self.knots[0], self.knots[-1]
        inside = (s >= lo - 1e-12) & (s <= hi + 1e-12)
        if not inside.all():
            bad = float(s[~inside].flat[0])
            raise ProfileRangeError(f"profile queried at {bad} outside table range [{lo}, {hi}]")
        s = np.minimum(np.maximum(s, lo), hi)
        knots, values = self._arrays
        k = np.searchsorted(knots[1:], s)
        t = (s - knots[k]) / (knots[k + 1] - knots[k])
        return values[k] + t * (values[k + 1] - values[k])

    def __call__(self, s: float) -> float:
        return float(self.evaluate(np.array([s], dtype=float))[0])

    def bound(self) -> float:
        return max(abs(v) for v in self.values)


@dataclass(frozen=True)
class PvfSpec:
    """A probability vector field with its growth budget.

    ``growth_constant`` is the sublinearity constant C in
    |v| <= C (1 + sup |x|); ``velocity_bound`` is an optional uniform speed
    bound (sharper than C for bounded fields, used by the support-envelope
    precheck).
    """

    kind: str
    growth_constant: float
    velocity: Callable[[np.ndarray], Sequence[float]] | None = None
    phi: PiecewiseLinear | None = None
    quadrature_points: int = 8
    evaluator: Callable[[DiscreteMeasure], LiftedMeasure] | None = None
    velocity_bound: float | None = None

    def __post_init__(self):
        if self.velocity_bound is not None and not self.velocity_bound >= 0:  # NaN too
            raise ValueError(f"velocity bound must be nonnegative, got {self.velocity_bound}")

    @classmethod
    def deterministic(
        cls,
        velocity: Callable[[np.ndarray], Sequence[float]],
        growth_constant: float,
        velocity_bound: float | None = None,
    ) -> "PvfSpec":
        return cls(
            kind="deterministic",
            growth_constant=float(growth_constant),
            velocity=velocity,
            velocity_bound=velocity_bound,
        )

    @classmethod
    def diffusion1d(
        cls,
        phi: PiecewiseLinear | Iterable[Sequence[float]],
        quadrature_points: int = 8,
    ) -> "PvfSpec":
        """Growth constant and speed bound: phi's largest |value| (C >= 1e-9).
        ``quadrature_points`` must lie in [1, 2^53): an exact float count,
        as the stepper's step counts are."""
        if not isinstance(phi, PiecewiseLinear):
            phi = PiecewiseLinear.from_table(phi)
        if not 1 <= quadrature_points < 2**53:
            raise ValueError(f"quadrature points q must be in [1, 2^53), got {quadrature_points}")
        bound = phi.bound()
        return cls(
            kind="diffusion1d",
            growth_constant=float(max(bound, 1e-9)),
            phi=phi,
            quadrature_points=int(quadrature_points),
            velocity_bound=bound,
        )

    @classmethod
    def custom(
        cls,
        evaluator: Callable[[DiscreteMeasure], LiftedMeasure],
        growth_constant: float,
        velocity_bound: float | None = None,
    ) -> "PvfSpec":
        """V[mu] = evaluator(mu), called on every exact atom (sub-floor ones
        included) with its weight rounded.  The bases must project back onto
        the atoms at or above WEIGHT_FLOOR, to 1e-12 relative in weight."""
        return cls(
            kind="custom",
            growth_constant=float(growth_constant),
            evaluator=evaluator,
            velocity_bound=velocity_bound,
        )

    # -- evaluation ---------------------------------------------------------

    def lift(
        self, positions: np.ndarray, nums: np.ndarray, den: int
    ) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray, int]:
        """Exact V[mu] of mu = sum_i nums[i] / den delta_{positions[i]}, rows
        in increasing order (the diffusion quadrature needs them sorted):
        (row of each piece, its velocity, piece nums, piece den).  A
        deterministic field gives one piece per row, as ``slice(None)``, so
        indexing with it takes a view."""
        if self.kind == "deterministic":
            velocities = np.array([self.velocity(x) for x in positions], dtype=float)
            if len(positions) and velocities.shape != positions.shape:
                raise DimensionMismatch(
                    f"velocity field returned shape {velocities.shape[1:]} "
                    f"in dim {positions.shape[1]}"
                )
            return slice(None), velocities.reshape(positions.shape), nums, den
        if self.kind == "diffusion1d":
            if positions.shape[1] != 1:
                raise DimensionMismatch("diffusion1d requires dim 1")
            # atom a splits into q pieces at the cumulative-mass midpoints
            # F(x_a-) + (2i - 1) w_a / 2q, i = 1..q: the integers
            # 2q F(x_a-) + w_a + 2(i - 1) w_a over 2 q den, row by row
            q = self.quadrature_points
            first = 2 * q * (np.cumsum(nums) - nums) + nums
            steps = np.array(range(0, 2 * q, 2), dtype=object)
            abscissae = (first[:, None] + nums[:, None] * steps).ravel()
            cumulative = _ratios(abscissae, 2 * q * den)
            velocities = self.phi.evaluate(cumulative).reshape(-1, 1)
            return np.repeat(np.arange(len(nums)), q), velocities, np.repeat(nums, q), q * den
        if self.kind == "custom":
            mu = _rows_measure(positions, nums, den)
            lifted = self.evaluator(mu)
            got = dict(lifted.base_projection().atoms)
            want = {p: w for p, w in mu.atoms if w >= WEIGHT_FLOOR}
            row = {p: i for i, (p, _) in enumerate(mu.atoms)}
            rows = [row.get(base) for base, _, _ in lifted.atoms]
            if None in rows or set(got) != set(want) or any(
                abs(got[p] - want[p]) > 1e-12 * (1 + want[p]) for p in want
            ):
                raise ValueError("custom PVF violates the projection condition")
            velocities = np.array([v for _, v, _ in lifted.atoms], dtype=float)
            return (np.array(rows, dtype=np.int64), velocities.reshape(-1, positions.shape[1]),
                    *_dyadic(w for _, _, w in lifted.atoms))
        raise ValueError(f"PVF kind {self.kind!r} has no exact lift")

    def evaluate(self, mu: DiscreteMeasure) -> LiftedMeasure:
        """V[mu]: ``lift`` of mu's weights taken exactly, rounded back."""
        positions = mu.positions_array()
        rows, velocities, nums, den = self.lift(positions, *_dyadic(mu.weights()))
        return LiftedMeasure.from_atoms(
            zip(positions[rows].tolist(), velocities.tolist(), _ratios(nums, den).tolist()),
            dim=mu.dim,
        )

    def check_growth(self, mu: DiscreteMeasure) -> bool:
        """Verify the sublinearity budget on V[mu]'s velocities, to 1e-9 relative."""
        lifted = self.evaluate(mu)
        if lifted.is_empty:
            return True
        sup_x = max(
            (max(abs(c) for c in pos) for pos, _ in mu.atoms), default=0.0
        )
        budget = self.growth_constant * (1.0 + sup_x)
        return lifted.max_speed() <= budget * (1 + 1e-9) + 1e-12


# -- sources ----------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius >= 0:  # NaN too; inf holds everything
            raise ValueError(f"ball radius must be nonnegative, got {self.radius}")

    def contains(self, point: Sequence[float]) -> bool:
        return math.dist(self.center, tuple(point)) <= self.radius + 1e-12

    def contains_rows(self, points: np.ndarray) -> np.ndarray:
        """``contains`` of every row of ``points``, as a boolean array."""
        if points.shape[1] != len(self.center):
            raise DimensionMismatch(
                f"ball of dim {len(self.center)} tested on points of dim {points.shape[1]}"
            )
        bound = self.radius + 1e-12
        # this norm (dim rounded squares, their sum and one sqrt) and
        # math.dist's (accurate to about one ulp) differ by a few ulps in the
        # dims the stepper runs, far inside 1e-14 relative (about 45 ulps);
        # rows that close to a finite bound, and inf or NaN norms, take the
        # scalar test.  Against an infinite bound the array test is exact.
        with np.errstate(over="ignore", invalid="ignore"):  # inf norms or radius
            norms = _distances(points, np.array([self.center]))[:, 0]
            inside = norms <= bound
            if bound == math.inf:
                return inside
            near = ~(np.abs(norms - bound) > 1e-14 * abs(bound)) | np.isinf(norms)
        if near.any():
            inside[near] = [self.contains(x) for x in points[near].tolist()]
        return inside


@dataclass(frozen=True)
class SourceSpec:
    """A mass-creation map mu -> s[mu] with support in B(0, R).

    The paper's existence theorem assumes a Lipschitz constant L with
    W^g(s[mu], s[nu]) <= L W^g(mu, nu); ``probe_s1_lipschitz`` estimates it
    on sample pairs.
    """

    kind: str
    support_radius: float
    measure: DiscreteMeasure | None = None
    rate: float = 0.0
    carrier: Ball | None = None
    evaluator: Callable[[DiscreteMeasure], DiscreteMeasure] | None = None

    def __post_init__(self):
        if not self.support_radius >= 0:
            raise ValueError(f"source radius R must be nonnegative, got {self.support_radius}")

    @classmethod
    def constant(
        cls, measure: DiscreteMeasure, support_radius: float | None = None
    ) -> "SourceSpec":
        radius = measure.support_radius()
        if support_radius is None:
            support_radius = max(radius, 1.0)
        elif radius > support_radius + 1e-12:
            raise ValueError(
                f"constant source support radius {radius} exceeds declared R={support_radius}"
            )
        return cls(
            kind="constant",
            support_radius=float(support_radius),
            measure=measure,
        )

    @classmethod
    def proportional(
        cls, rate: float, support_radius: float, carrier: Ball | None = None
    ) -> "SourceSpec":
        """s[mu] = rate * mu restricted to B(0, R) and to the carrier ball.

        Its Lipschitz constant is ``rate`` only for measures inside the open
        balls.  The cutoff at their boundaries is hard: two unit Diracs a
        distance g apart on either side of |x| = R give
        W^g(s[mu], s[nu]) = rate against W^g(mu, nu) = g.
        """
        if not 0 <= rate < math.inf:
            raise ValueError(
                f"proportional source rate must be finite and nonnegative (pure creation), "
                f"got {rate}"
            )
        return cls(
            kind="proportional",
            support_radius=float(support_radius),
            rate=float(rate),
            carrier=carrier,
        )

    @classmethod
    def custom(
        cls,
        evaluator: Callable[[DiscreteMeasure], DiscreteMeasure],
        support_radius: float,
    ) -> "SourceSpec":
        """s[mu] = evaluator(mu), called on every exact atom (sub-floor ones
        included) with its weight rounded; the result must stay in B(0, R)."""
        return cls(
            kind="custom",
            support_radius=float(support_radius),
            evaluator=evaluator,
        )

    def created(
        self, positions: np.ndarray, nums: np.ndarray, den: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact s[mu] of mu = sum_i nums[i] / den delta_{positions[i]}:
        (positions, nums, den).  A proportional source keeps the rows inside
        its balls (``Ball.contains_rows``) times its float rate, taken exactly."""
        dim = positions.shape[1]
        if self.kind == "constant":
            if self.measure.dim != dim:
                raise DimensionMismatch(f"source dim {self.measure.dim} vs state dim {dim}")
            return (self.measure.positions_array(), *_dyadic(self.measure.weights()))
        if self.kind == "proportional":
            p, q = self.rate.as_integer_ratio()
            if not p:  # a zero rate creates no atoms, not zero-weight ones
                return positions[:0], nums[:0], den
            inside = Ball(center=(0.0,) * dim, radius=self.support_radius).contains_rows(positions)
            if self.carrier is not None:
                inside &= self.carrier.contains_rows(positions)
            return positions[inside], nums[inside] * p, den * q
        if self.kind == "custom":
            sigma = self.evaluator(_rows_measure(positions, nums, den))
            if sigma.support_radius() > self.support_radius + 1e-9:
                raise ValueError("custom source leaked outside its declared support ball")
            if sigma.dim != dim:
                raise DimensionMismatch(f"source dim {sigma.dim} vs state dim {dim}")
            return (sigma.positions_array(), *_dyadic(sigma.weights()))
        raise ValueError(f"source kind {self.kind!r} has no exact form")

    def evaluate(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        """s[mu]: ``created`` from mu's weights taken exactly, rounded into a
        canonical measure."""
        points, nums, den = self.created(mu.positions_array(), *_dyadic(mu.weights()))
        return DiscreteMeasure.from_atoms(
            zip(points.tolist(), _ratios(nums, den).tolist()), dim=mu.dim
        )


def probe_v2_lipschitz(
    spec: PvfSpec, samples: Iterable[tuple[DiscreteMeasure, DiscreteMeasure]]
) -> float:
    """Largest observed ratio fiber_wg(V[mu], V[nu]) / W^g(mu, nu).

    Diagnostic estimate of the Lipschitz constant K, not a proof; pairs at
    zero base distance are skipped.
    """
    from .fiber import fiber_wg

    worst = 0.0
    for mu, nu in samples:
        denom = generalized_wasserstein(mu, nu).distance
        if denom < 1e-12:
            continue
        num = fiber_wg(spec.evaluate(mu), spec.evaluate(nu))
        worst = max(worst, num / denom)
    return worst


def probe_s1_lipschitz(
    spec: SourceSpec, samples: Iterable[tuple[DiscreteMeasure, DiscreteMeasure]]
) -> float:
    """Largest observed ratio W^g(s[mu], s[nu]) / W^g(mu, nu)."""
    worst = 0.0
    for mu, nu in samples:
        denom = generalized_wasserstein(mu, nu).distance
        if denom < 1e-12:
            continue
        num = generalized_wasserstein(spec.evaluate(mu), spec.evaluate(nu)).distance
        worst = max(worst, num / denom)
    return worst
