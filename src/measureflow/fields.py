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
from .measures import DiscreteMeasure, LiftedMeasure


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
        knots, values = np.asarray(self.knots), np.asarray(self.values)
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
        growth_constant: float | None = None,
    ) -> "PvfSpec":
        if not isinstance(phi, PiecewiseLinear):
            phi = PiecewiseLinear.from_table(phi)
        if quadrature_points < 1:
            raise ValueError("quadrature_points must be >= 1")
        bound = phi.bound()
        if growth_constant is None:
            growth_constant = max(bound, 1e-9)
        return cls(
            kind="diffusion1d",
            growth_constant=float(growth_constant),
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
        return cls(
            kind="custom",
            growth_constant=float(growth_constant),
            evaluator=evaluator,
            velocity_bound=velocity_bound,
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, mu: DiscreteMeasure) -> LiftedMeasure:
        """V[mu]; the base projection equals mu exactly for built-in kinds."""
        if self.kind == "deterministic":
            return LiftedMeasure.from_atoms(
                (
                    (pos, tuple(float(c) for c in self.velocity(np.asarray(pos))), w)
                    for pos, w in mu.atoms
                ),
                dim=mu.dim,
            )
        if self.kind == "diffusion1d":
            if mu.dim != 1:
                raise DimensionMismatch("diffusion1d requires dim 1")
            atoms = []
            for pos, vel, w in self._diffusion_pieces(mu.atoms):
                atoms.append((pos, vel, float(w)))
            return LiftedMeasure.from_atoms(atoms, dim=1)
        if self.kind == "custom":
            lifted = self.evaluator(mu)
            base = lifted.base_projection()
            if base.atoms != mu.atoms:
                got = {pos: w for pos, w in base.atoms}
                want = {pos: w for pos, w in mu.atoms}
                if set(got) != set(want) or any(
                    abs(got[p] - want[p]) > 1e-12 * (1 + want[p]) for p in want
                ):
                    raise ValueError("custom PVF violates the projection condition")
            return lifted
        raise ValueError(f"unknown PVF kind {self.kind!r}")

    def _diffusion_pieces(self, atoms):
        """Quadrature split of the diffusion lift.

        Atoms must be sorted by position (canonical measures are).  Weights
        may be floats or Fractions; pieces carry weight w / q so exact
        weight types stay exact.
        """
        q = self.quadrature_points
        pieces, abscissae = [], []
        cumulative = 0
        for pos, w in atoms:
            f_left = cumulative
            cumulative = cumulative + w
            for i in range(1, q + 1):
                abscissae.append(float(f_left + (2 * i - 1) * w / (2 * q)))
                pieces.append((pos, w / q))
        velocities = self.phi.evaluate(np.array(abscissae, dtype=float)).tolist()
        return [(pos, (v,), w) for (pos, w), v in zip(pieces, velocities)]

    def check_growth(self, mu: DiscreteMeasure, lifted: LiftedMeasure | None = None,
                     slack: float = 1e-9) -> bool:
        """Verify the sublinearity budget on the emitted velocities."""
        if lifted is None:
            lifted = self.evaluate(mu)
        if lifted.is_empty:
            return True
        sup_x = max(
            (max(abs(c) for c in pos) for pos, _ in mu.atoms), default=0.0
        )
        budget = self.growth_constant * (1.0 + sup_x)
        return lifted.max_speed() <= budget * (1 + slack) + 1e-12


# -- sources ----------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def contains(self, point: Sequence[float]) -> bool:
        return math.dist(self.center, tuple(point)) <= self.radius + 1e-12


@dataclass(frozen=True)
class SourceSpec:
    """A mass-creation map mu -> s[mu] with support in B(0, R).

    ``lipschitz_constant`` is the declared budget L for
    W^g(s[mu], s[nu]) <= L W^g(mu, nu); probes estimate it numerically.
    """

    kind: str
    support_radius: float
    lipschitz_constant: float
    measure: DiscreteMeasure | None = None
    rate: float = 0.0
    carrier: Ball | None = None
    evaluator: Callable[[DiscreteMeasure], DiscreteMeasure] | None = None

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
            lipschitz_constant=0.0,
            measure=measure,
        )

    @classmethod
    def proportional(
        cls, rate: float, support_radius: float, carrier: Ball | None = None
    ) -> "SourceSpec":
        """s[mu] = rate * mu restricted to B(0, R) and to the carrier ball.

        The declared ``lipschitz_constant = rate`` holds only for measures
        inside the open balls.  The cutoff at their boundaries is hard: two
        unit Diracs a distance g apart on either side of |x| = R give
        W^g(s[mu], s[nu]) = rate against W^g(mu, nu) = g.
        """
        if rate < 0:
            raise ValueError("proportional source rate must be nonnegative (pure creation)")
        return cls(
            kind="proportional",
            support_radius=float(support_radius),
            lipschitz_constant=float(rate),
            rate=float(rate),
            carrier=carrier,
        )

    @classmethod
    def custom(
        cls,
        evaluator: Callable[[DiscreteMeasure], DiscreteMeasure],
        lipschitz_constant: float,
        support_radius: float,
    ) -> "SourceSpec":
        return cls(
            kind="custom",
            support_radius=float(support_radius),
            lipschitz_constant=float(lipschitz_constant),
            evaluator=evaluator,
        )

    def evaluate(self, mu: DiscreteMeasure) -> DiscreteMeasure:
        if self.kind == "constant":
            if self.measure.dim != mu.dim:
                raise DimensionMismatch(
                    f"source dim {self.measure.dim} vs state dim {mu.dim}"
                )
            return self.measure
        if self.kind == "proportional":
            ball = Ball(center=(0.0,) * mu.dim, radius=self.support_radius)
            kept = mu.restrict(
                lambda p: ball.contains(p)
                and (self.carrier is None or self.carrier.contains(p))
            )
            return kept.scale(self.rate)
        if self.kind == "custom":
            out = self.evaluator(mu)
            if out.support_radius() > self.support_radius + 1e-9:
                raise ValueError("custom source leaked outside its declared support ball")
            return out
        raise ValueError(f"unknown source kind {self.kind!r}")


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
