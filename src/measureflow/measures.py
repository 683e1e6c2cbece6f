"""Finite atomic measures on R^n and on the tangent bundle R^n x R^n.

Measures are immutable value objects.  Construction canonicalizes atoms:
positions are quantized to a fixed decimal precision, duplicates are merged
by summing weights (math.fsum, so the result does not depend on input
order), and weights below a floor are dropped.  All downstream solvers rely
on this canonical form for deterministic behaviour.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

# Construction-time quantization of coordinates (decimal digits) and the
# smallest weight kept.  Quantization makes float-noise duplicates merge;
# the floor keeps LP instances well conditioned.
POSITION_DECIMALS = 12
WEIGHT_FLOOR = 1e-15

Position = tuple[float, ...]


def _quantize(value: float, decimals: int) -> float:
    q = round(float(value), decimals)
    return 0.0 if q == 0.0 else q  # normalize -0.0


def _support_radius(positions: np.ndarray) -> float:
    """Largest Euclidean norm of the rows of ``positions``; 0.0 for none,
    inf when a sum of squares passes the float range."""
    if not len(positions):
        return 0.0
    # the sum of squares of each row is rounded once, as math.fsum rounds
    # it: a numpy row sum of at most two floats is one rounding, so it has
    # fsum's bits; from dim 3 on, fsum per row.  sqrt is monotone and
    # correctly rounded, so sqrt(max) == max(sqrt).
    with np.errstate(over="ignore"):
        squares = positions * positions
        if positions.shape[1] <= 2:
            return math.sqrt(squares.sum(axis=1).max())
    try:
        return math.sqrt(max(map(math.fsum, squares.tolist())))
    except OverflowError:  # fsum raises where the rounded sum is inf
        return math.inf


def _ratios(nums: np.ndarray, den: int) -> np.ndarray:
    """Float array of nums[i] / den (Python ints), each correctly rounded
    as int / int is.

    For den = 2^k, float(num) is correctly rounded (half to even) and the
    scaling by 2^-k is exact while the result stays normal, so ldexp gives
    the quotient's bits.  Any other den, a numerator whose float would pass
    the float range, or a result below 2^-1022 (where ldexp would round a
    second time) takes the division per atom."""
    k = den.bit_length() - 1
    if den == 1 << k:
        try:
            scaled = np.ldexp(nums.astype(float), -k)
        except OverflowError:
            pass
        else:
            if not ((scaled < 2.0**-1022) & (scaled != 0.0)).any():
                return scaled
    return np.array([num / den for num in nums.tolist()], dtype=float)


def _dyadic(weights: Iterable[float]) -> tuple[np.ndarray, int]:
    """Float weights as exact numerators over one power-of-two denominator."""
    ratios = [w.as_integer_ratio() for w in weights]
    den = max((d for _, d in ratios), default=1)
    return np.array([p * (den // d) for p, d in ratios], dtype=object), den


def _canonical_atoms(
    atoms: Iterable[tuple[Sequence[float], float]], dim: int | None
) -> tuple[tuple[Position, float], ...]:
    groups: dict[Position, list[float]] = {}
    for position, weight in atoms:
        pos = tuple(_quantize(c, POSITION_DECIMALS) for c in position)
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"non-finite atom coordinate in {pos}")
        if dim is None:
            dim = len(pos)
        elif len(pos) != dim:
            raise DimensionMismatch(
                f"atom of dimension {len(pos)} in a measure of dimension {dim}"
            )
        w = float(weight)
        if w < 0.0:
            raise ValueError(f"negative atom weight {w}")
        if not math.isfinite(w):
            raise ValueError(f"non-finite atom weight {w}")
        groups.setdefault(pos, []).append(w)
    merged = []
    for pos in sorted(groups):
        w = math.fsum(groups[pos])
        if w >= WEIGHT_FLOOR:
            merged.append((pos, w))
    return tuple(merged)


def _atom_rows(rows: Iterable[Sequence], dim, vectors: int) -> list[Sequence]:
    """The atom rows of a measure file, checked: ``dim`` is an integer >= 1
    and every row lists exactly ``vectors`` * dim + 1 numbers (a bool or a
    string is not one), so no value is silently dropped or coerced."""
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    width = vectors * dim + 1
    rows = list(rows)
    for row in rows:
        if len(row) != width or not all(type(v) in (int, float) for v in row):
            raise ValueError(f"each atom row must list {width} numbers, got {row!r}")
    return rows


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative measure sum_i w_i * delta_{x_i} with finitely many atoms."""

    atoms: tuple[tuple[Position, float], ...]
    dim: int

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[tuple[Sequence[float], float]],
        dim: int | None = None,
    ) -> "DiscreteMeasure":
        canonical = _canonical_atoms(atoms, dim)
        if dim is None:
            if not canonical:
                raise ValueError("dim is required for an empty measure")
            dim = len(canonical[0][0])
        return cls(atoms=canonical, dim=dim)

    @classmethod
    def dirac(cls, position: Sequence[float], weight: float = 1.0) -> "DiscreteMeasure":
        return cls.from_atoms([(tuple(position), weight)])

    @classmethod
    def empty(cls, dim: int) -> "DiscreteMeasure":
        return cls(atoms=(), dim=dim)

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def positions(self) -> tuple[Position, ...]:
        return tuple(pos for pos, _ in self.atoms)

    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)

    def positions_array(self) -> np.ndarray:
        coords = itertools.chain.from_iterable(pos for pos, _ in self.atoms)
        count = len(self.atoms) * self.dim
        return np.fromiter(coords, dtype=float, count=count).reshape(len(self.atoms), self.dim)

    def weights_array(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def mass(self) -> float:
        return math.fsum(w for _, w in self.atoms)

    def support_radius(self) -> float:
        return _support_radius(self.positions_array())

    def integrate(self, f: Callable[[np.ndarray], float]) -> float:
        return math.fsum(w * float(f(np.asarray(pos))) for pos, w in self.atoms)

    # -- algebra -----------------------------------------------------------

    def pushforward(self, mapping: Callable[[np.ndarray], Sequence[float]]) -> "DiscreteMeasure":
        """Image measure: atoms moved by ``mapping``, weights kept, collisions merged."""
        return DiscreteMeasure.from_atoms(
            ((tuple(float(c) for c in mapping(np.asarray(pos))), w) for pos, w in self.atoms),
            dim=self.dim,
        )

    def add(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if other.dim != self.dim:
            raise DimensionMismatch(f"cannot add measures of dim {self.dim} and {other.dim}")
        return DiscreteMeasure.from_atoms(list(self.atoms) + list(other.atoms), dim=self.dim)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return self.add(other)

    # scale keeps positions and order, so the atoms stay canonical

    def scale(self, factor: float) -> "DiscreteMeasure":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        atoms = []
        for pos, w in self.atoms:
            w = float(w * factor)
            if not math.isfinite(w):
                raise ValueError(f"non-finite atom weight {w}")
            if w >= WEIGHT_FLOOR:
                atoms.append((pos, w))
        return DiscreteMeasure(atoms=tuple(atoms), dim=self.dim)

    # -- one-dimensional CDF ------------------------------------------------

    def cdf(self, x: float) -> float:
        """Right-continuous cumulative distribution F(x) = mu((-inf, x]); dim 1 only."""
        if self.dim != 1:
            raise DimensionMismatch("cdf is defined for dim 1 only")
        return math.fsum(w for (p,), w in self.atoms if p <= x)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {"dim": self.dim, "atoms": [[*pos, w] for pos, w in self.atoms]}

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteMeasure":
        dim = data["dim"]
        rows = _atom_rows(data["atoms"], dim, 1)
        return cls.from_atoms(((row[:dim], row[dim]) for row in rows), dim=dim)

    @classmethod
    def from_csv(cls, text: str, dim: int) -> "DiscreteMeasure":
        rows = [[float(v) for v in row] for row in csv.reader(text.strip().splitlines()) if row]
        rows = _atom_rows(rows, dim, 1)
        return cls.from_atoms(((row[:dim], row[dim]) for row in rows), dim=dim)


@dataclass(frozen=True)
class LiftedMeasure:
    """Atomic measure sum w * delta_{(x, v)} on the tangent bundle R^n x R^n."""

    atoms: tuple[tuple[Position, Position, float], ...]
    dim: int

    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[tuple[Sequence[float], Sequence[float], float]],
        dim: int | None = None,
    ) -> "LiftedMeasure":
        joined = []
        for base, velocity, weight in atoms:
            base = tuple(base)
            velocity = tuple(velocity)
            if len(base) != len(velocity):
                raise DimensionMismatch(
                    f"base dim {len(base)} != velocity dim {len(velocity)}"
                )
            joined.append((base + velocity, weight))
        canonical = _canonical_atoms(joined, None if dim is None else 2 * dim)
        if dim is None:
            if not canonical:
                raise ValueError("dim is required for an empty lifted measure")
            dim = len(canonical[0][0]) // 2
        split = tuple((pos[:dim], pos[dim:], w) for pos, w in canonical)
        return cls(atoms=split, dim=dim)

    @classmethod
    def empty(cls, dim: int) -> "LiftedMeasure":
        return cls(atoms=(), dim=dim)

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def mass(self) -> float:
        return math.fsum(w for _, _, w in self.atoms)

    def base_projection(self) -> DiscreteMeasure:
        """Marginal over velocity: pi # V with pi(x, v) = x.  Mass preserved."""
        return DiscreteMeasure.from_atoms(
            ((base, w) for base, _, w in self.atoms), dim=self.dim
        )

    def as_joint(self) -> DiscreteMeasure:
        """The same measure viewed as an atomic measure on R^{2n}."""
        return DiscreteMeasure.from_atoms(
            ((base + vel, w) for base, vel, w in self.atoms), dim=2 * self.dim
        )

    def max_speed(self) -> float:
        if not self.atoms:
            return 0.0
        return max(math.sqrt(math.fsum(c * c for c in vel)) for _, vel, _ in self.atoms)

    def to_dict(self) -> dict:
        return {"dim": self.dim, "atoms": [[*base, *vel, w] for base, vel, w in self.atoms]}

    @classmethod
    def from_dict(cls, data: dict) -> "LiftedMeasure":
        dim = data["dim"]
        rows = _atom_rows(data["atoms"], dim, 2)
        atoms = ((row[:dim], row[dim : 2 * dim], row[2 * dim]) for row in rows)
        return cls.from_atoms(atoms, dim=dim)


@dataclass(frozen=True)
class SignedDecomposition:
    """A part kept from a measure (kept <= original) plus the removed mass."""

    kept: DiscreteMeasure
    removed_mass: float

    def __post_init__(self):
        if self.removed_mass < -1e-12:
            raise ValueError(f"negative removed mass {self.removed_mass}")

    def total_mass(self) -> float:
        return math.fsum([self.kept.mass(), self.removed_mass])

    def dominated_by(self, original: DiscreteMeasure) -> bool:
        """True iff kept <= original atomwise (within 1e-9) and masses add up."""
        original_weights = dict(original.atoms)
        for pos, w in self.kept.atoms:
            if w > original_weights.get(pos, 0.0) + 1e-9:
                return False
        return abs(self.total_mass() - original.mass()) <= 1e-9 * (1.0 + original.mass())
