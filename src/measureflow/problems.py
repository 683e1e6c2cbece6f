"""Built-in benchmark problems for simulation and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .errors import ConfigError
from .fields import PiecewiseLinear, PvfSpec, SourceSpec
from .measures import DiscreteMeasure


@dataclass(frozen=True)
class ProblemSpec:
    """An initial measure with its dynamics and an optional exact reference."""

    name: str
    initial: DiscreteMeasure
    pvf: PvfSpec | None
    src: SourceSpec | None
    reference: Callable[[float], DiscreteMeasure] | None = None

    def with_initial(self, mu0: DiscreteMeasure) -> "ProblemSpec":
        return replace(self, initial=mu0, reference=None)


def translate_problem() -> ProblemSpec:
    """Unit-speed transport of a unit Dirac at the origin; exact solution is
    the translated Dirac."""
    pvf = PvfSpec.deterministic(lambda x: (1.0,), growth_constant=1.0, velocity_bound=1.0)

    def reference(t: float) -> DiscreteMeasure:
        return DiscreteMeasure.dirac([t])

    return ProblemSpec(
        name="translate",
        initial=DiscreteMeasure.dirac([0.0]),
        pvf=pvf,
        src=None,
        reference=reference,
    )


def diffusion1d_problem() -> ProblemSpec:
    """Finite-speed diffusion of a unit Dirac through phi(s) = s - 1/2.

    No closed-form atomic reference; convergence is assessed through
    self-comparison across levels.  The limiting profile at time t is the
    uniform distribution on [-t/2, t/2] (each mass quantile s travels with
    constant speed phi(s)).
    """
    phi = PiecewiseLinear.from_table([(0.0, -0.5), (1.0, 0.5)])
    pvf = PvfSpec.diffusion1d(phi)
    return ProblemSpec(
        name="diffusion1d",
        initial=DiscreteMeasure.dirac([0.0]),
        pvf=pvf,
        src=None,
        reference=None,
    )


def source_only_problem() -> ProblemSpec:
    """Pure creation: unit Dirac source at the origin, no transport; exact
    solution is mu0 + t sigma."""
    sigma = DiscreteMeasure.dirac([0.0])
    src = SourceSpec.constant(sigma)
    mu0 = DiscreteMeasure.dirac([0.0])

    def reference(t: float) -> DiscreteMeasure:
        return mu0.add(sigma.scale(t)) if t > 0 else mu0

    return ProblemSpec(
        name="source_only", initial=mu0, pvf=None, src=src, reference=reference
    )


_BUILTINS = {
    "translate": translate_problem,
    "diffusion1d": diffusion1d_problem,
    "source-only": source_only_problem,
}


def builtin_problem(name: str) -> ProblemSpec:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: translate, diffusion1d, source-only"
        ) from None
    return factory()
