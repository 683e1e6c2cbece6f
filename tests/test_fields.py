import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_measure
from measureflow.errors import DimensionMismatch
from measureflow.fields import (
    Ball,
    PiecewiseLinear,
    PvfSpec,
    SourceSpec,
    probe_s1_lipschitz,
    probe_v2_lipschitz,
)
from measureflow.measures import WEIGHT_FLOOR, DiscreteMeasure, LiftedMeasure
from measureflow.wasserstein import wasserstein1_1d

d = DiscreteMeasure.dirac
PHI = PiecewiseLinear.from_table([(0.0, -0.5), (1.0, 0.5)])


class TestPiecewiseLinear:
    def test_interpolates(self):
        assert PHI(0.5) == pytest.approx(0.0)
        assert PHI(0.25) == pytest.approx(-0.25)

    def test_monotone_validated(self):
        with pytest.raises(ValueError):
            PiecewiseLinear.from_table([(0.0, 1.0), (1.0, 0.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PHI(1.5)

    def test_bound(self):
        assert PHI.bound() == 0.5


class TestDeterministicPvf:
    def test_identity_velocity(self):
        pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
        assert pvf.evaluate(d([2.0])).atoms == (((2.0,), (2.0,), 1.0),)

    def test_projection_identity(self, rng):
        pvf = PvfSpec.deterministic(lambda x: np.sin(x), growth_constant=1.0)
        for _ in range(10):
            mu = random_measure(rng, int(rng.integers(1, 7)))
            assert pvf.evaluate(mu).base_projection() == mu

    def test_growth_budget(self, rng):
        pvf = PvfSpec.deterministic(lambda x: 0.5 * x, growth_constant=0.5)
        for _ in range(10):
            mu = random_measure(rng, 4)
            assert pvf.check_growth(mu)

    def test_growth_violation_detected(self):
        lying = PvfSpec.deterministic(lambda x: 100.0 * x, growth_constant=1.0)
        assert not lying.check_growth(d([2.0]))


class TestDiffusionPvf:
    def test_single_atom_q2(self):
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=2)
        lifted = pvf.evaluate(d([0.0]))
        assert lifted.atoms == (
            ((0.0,), (-0.25,), 0.5),
            ((0.0,), (0.25,), 0.5),
        )

    def test_two_atoms_q1(self):
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=1)
        mu = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.5)])
        assert pvf.evaluate(mu).atoms == (
            ((0.0,), (-0.25,), 0.5),
            ((1.0,), (0.25,), 0.5),
        )

    def test_requires_dim1(self):
        pvf = PvfSpec.diffusion1d(PHI)
        with pytest.raises(DimensionMismatch):
            pvf.evaluate(d([0.0, 0.0]))

    def test_projection_identity(self, rng):
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        for _ in range(10):
            k = int(rng.integers(1, 6))
            weights = rng.integers(1, 8, k) / 16.0  # total mass <= 1 keeps phi in range
            weights = weights / weights.sum()
            mu = DiscreteMeasure.from_atoms(
                [((float(x),), float(w)) for x, w in zip(rng.uniform(-3, 3, k), weights)]
            )
            assert pvf.evaluate(mu).base_projection() == mu

    def test_velocity_bound_from_profile(self):
        pvf = PvfSpec.diffusion1d(PHI)
        assert pvf.velocity_bound == 0.5
        assert pvf.check_growth(d([0.0]))

    def test_quadrature_refinement_halves_w1(self):
        # midpoint quadrature of the fiber distribution: for the affine
        # profile, doubling q halves the W1 gap between successive levels
        mu = d([0.0])
        gaps = []
        for q in (1, 2, 4, 8, 16):
            pvf = PvfSpec.diffusion1d(PHI, quadrature_points=q)
            atoms = [((v[0],), w) for _, v, w in pvf.evaluate(mu).atoms]
            gaps.append(DiscreteMeasure.from_atoms(atoms, dim=1))
        ratios = []
        for a, b in zip(gaps, gaps[1:]):
            ratios.append(wasserstein1_1d(a, b))
        for coarse, fine in zip(ratios, ratios[1:]):
            assert fine == pytest.approx(0.5 * coarse, rel=1e-9)

    def test_exact_fraction_pieces(self):
        # the exact lift splits each atom into q pieces of nums / (q den)
        # whose sum is the atom's weight, and the pieces of all atoms sum to
        # the mass, with no rounding
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=8)
        positions = np.array([[-0.5], [0.0], [0.25]])
        nums = np.array([1, 3, 2**70 + 1], dtype=object)
        den = 2**71 + 7
        rows, velocities, piece_nums, piece_den = pvf.lift(positions, nums, den)
        assert rows.tolist() == [0] * 8 + [1] * 8 + [2] * 8
        assert velocities.shape == (24, 1)
        assert piece_den == 8 * den
        for a, num in enumerate(nums.tolist()):
            assert sum(Fraction(n, piece_den) for n in piece_nums[rows == a]) == Fraction(num, den)
        assert sum(Fraction(n, piece_den) for n in piece_nums) == Fraction(sum(nums), den)
        assert all(type(n) is int for n in piece_nums)

    @staticmethod
    def old_abscissae(nums, q):
        """The per-piece loop the array quadrature replaced: integers over 2 q den."""
        abscissae, below = [], 0
        for w in nums:
            s = 2 * q * below + w
            for _ in range(q):
                abscissae.append(s)
                s += 2 * w
            below += w
        return abscissae

    @pytest.mark.parametrize("q", [1, 3, 8])
    @pytest.mark.parametrize("den", [2**60, 2**130, 3 * 2**40, 10**30],
                             ids=["2^60", "2^130", "3*2^40", "10^30"])
    def test_abscissae_match_the_piece_loop(self, q, den):
        # with the identity profile every velocity is its abscissa, so the
        # lift's velocities are the abscissae converted to floats
        pvf = PvfSpec.diffusion1d([(0.0, 0.0), (1.0, 1.0)], quadrature_points=q)
        rng = np.random.default_rng(q)
        cuts = sorted({int(c) for c in rng.integers(1, 2**62, 12)})
        cuts = [c * den // 2**62 for c in cuts]
        nums = [b - a for a, b in zip([0, *cuts], [*cuts, den]) if b > a]
        positions = np.arange(len(nums), dtype=float).reshape(-1, 1)
        rows, velocities, piece_nums, piece_den = pvf.lift(
            positions, np.array(nums, dtype=object), den)
        want = [(s / (2 * q * den)).hex() for s in self.old_abscissae(nums, q)]
        assert [v.hex() for v in velocities[:, 0].tolist()] == want
        assert rows.tolist() == np.repeat(np.arange(len(nums)), q).tolist()
        assert piece_nums.tolist() == np.repeat(np.array(nums, dtype=object), q).tolist()
        assert piece_den == q * den

    def test_custom_projection_enforced(self):
        bad = PvfSpec.custom(
            lambda mu: LiftedMeasure.from_atoms([([99.0], [0.0], mu.mass())], dim=1),
            growth_constant=1.0,
        )
        with pytest.raises(ValueError):
            bad.evaluate(d([0.0]))


# exact rows: a unit atom at 0 and a sub-floor one at 0.5, weights over 2^60
SUB_FLOOR_ROWS = (np.array([[0.0], [0.5]]), np.array([2**60, 1], dtype=object), 2**60)


class TestCustomPvf:
    @staticmethod
    def drift(offset=0.0, keep_sub_floor=False):
        def lift(mu):
            atoms = tuple(((x + offset * (w >= WEIGHT_FLOOR),), (1.0,), w) for (x,), w in mu.atoms)
            if keep_sub_floor:
                return LiftedMeasure(atoms=atoms, dim=1)
            return LiftedMeasure.from_atoms(atoms, dim=1)
        return PvfSpec.custom(lift, growth_constant=1.0)

    def test_custom_lift_sees_every_row(self):
        rows, velocities, nums, den = self.drift(keep_sub_floor=True).lift(*SUB_FLOOR_ROWS)
        assert rows.tolist() == [0, 1]
        assert velocities.tolist() == [[1.0], [1.0]]
        assert [Fraction(int(n), den) for n in nums] == [1, Fraction(1, 2**60)]

    def test_custom_lift_may_drop_a_sub_floor_row(self):
        rows, velocities, nums, den = self.drift().lift(*SUB_FLOOR_ROWS)
        assert rows.tolist() == [0] and velocities.tolist() == [[1.0]]
        assert nums.tolist() == [1] and den == 1

    @pytest.mark.parametrize("keep", [False, True])
    def test_custom_lift_with_a_moved_base_rejected(self, keep):
        # an above-floor base moved, with or without the sub-floor piece
        with pytest.raises(ValueError, match="projection condition"):
            self.drift(0.25, keep).lift(*SUB_FLOOR_ROWS)

    def test_custom_lift_off_the_rows_rejected(self):
        # a sub-floor piece at a base that is no row
        def lift(mu):
            return LiftedMeasure(atoms=(((0.0,), (1.0,), 1.0), ((0.75,), (1.0,), 1e-18)), dim=1)
        with pytest.raises(ValueError, match="projection condition"):
            PvfSpec.custom(lift, growth_constant=1.0).lift(*SUB_FLOOR_ROWS)

    def test_custom_evaluate_returns_the_lift(self, rng):
        mu = random_measure(rng, 5)
        pvf = self.drift()
        assert pvf.evaluate(mu) == pvf.evaluator(mu)


class TestSources:
    def test_constant_ignores_state(self, rng):
        src = SourceSpec.constant(d([1.0]))
        assert src.evaluate(random_measure(rng, 3)) == d([1.0])

    def test_constant_radius_validated(self):
        with pytest.raises(ValueError):
            SourceSpec.constant(d([5.0]), support_radius=1.0)

    def test_proportional_zero_rate(self):
        src = SourceSpec.proportional(0.0, support_radius=2.0)
        assert src.evaluate(d([0.0])).is_empty

    def test_proportional_scales_inside_ball(self):
        src = SourceSpec.proportional(0.5, support_radius=2.0)
        out = src.evaluate(d([0.0]))
        assert out.atoms == (((0.0,), 0.5),)

    def test_proportional_clips_to_ball(self):
        src = SourceSpec.proportional(1.0, support_radius=1.0)
        mu = DiscreteMeasure.from_atoms([([0.0], 1.0), ([5.0], 1.0)])
        assert src.evaluate(mu).atoms == (((0.0,), 1.0),)

    def test_carrier_restriction(self):
        src = SourceSpec.proportional(
            1.0, support_radius=10.0, carrier=Ball(center=(0.0,), radius=1.0)
        )
        mu = DiscreteMeasure.from_atoms([([0.5], 1.0), ([3.0], 1.0)])
        assert src.evaluate(mu).atoms == (((0.5,), 1.0),)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SourceSpec.proportional(-1.0, support_radius=1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            SourceSpec.proportional(rate, support_radius=1.0)

    def test_carrier_of_another_dim_rejected(self):
        src = SourceSpec.proportional(0.5, support_radius=2.0, carrier=Ball((0.0, 0.0), 1.0))
        with pytest.raises(DimensionMismatch):
            src.evaluate(d([0.0]))
        with pytest.raises(DimensionMismatch):
            src.created(np.zeros((0, 1)), np.zeros(0, dtype=object), 1)

    def test_custom_source_sees_every_row(self):
        seen = []
        src = SourceSpec.custom(lambda mu: seen.append(mu) or mu, support_radius=1.0)
        points, nums, den = src.created(*SUB_FLOOR_ROWS)
        assert seen[0].atoms == (((0.0,), 1.0), ((0.5,), 2.0**-60))
        assert points.tolist() == [[0.0], [0.5]]
        assert [Fraction(int(n), den) for n in nums] == [1, Fraction(1, 2**60)]

    def test_custom_source_of_another_dim_rejected(self):
        src = SourceSpec.custom(lambda mu: d([0.0, 0.0]), support_radius=1.0)
        with pytest.raises(DimensionMismatch):
            src.evaluate(d([0.0]))

    @pytest.mark.parametrize("radius", [math.nan, -1.0])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="must be nonnegative"):
            Ball((0.0,), radius)
        with pytest.raises(ValueError, match="must be nonnegative"):
            SourceSpec.proportional(0.5, radius)
        with pytest.raises(ValueError):
            SourceSpec.constant(d([0.0]), radius)
        with pytest.raises(ValueError, match="must be nonnegative"):
            SourceSpec.custom(lambda mu: mu, support_radius=radius)

    def test_infinite_radius_allowed(self):
        src = SourceSpec.proportional(0.5, math.inf, carrier=Ball((0.0,), math.inf))
        assert src.evaluate(d([1e300])).atoms == (((1e300,), 0.5),)

    def test_custom_leak_detected(self):
        src = SourceSpec.custom(lambda mu: d([9.0]), support_radius=1.0)
        with pytest.raises(ValueError):
            src.evaluate(d([0.0]))


class TestBallRows:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("center", ["zero", "offset"])
    def test_contains_rows_matches_contains_near_the_bound(self, dim, center):
        # points within +-8 ulps of radius + 1e-12 from the centre, where the
        # numpy norm and math.dist can disagree, and points far from it
        rng = np.random.default_rng(dim)
        c = np.zeros(dim) if center == "zero" else rng.uniform(-3, 3, dim)
        for radius in (0.75, 2.0, 1e3):
            ball = Ball(tuple(c.tolist()), radius)
            bound = radius + 1e-12
            u = rng.standard_normal((5600, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = bound + np.spacing(bound) * rng.integers(-8, 9, len(u))
            r[:200] *= rng.uniform(0.0, 2.0, 200)
            points = c + u * r[:, None]
            want = [ball.contains(p) for p in points.tolist()]
            assert ball.contains_rows(points).tolist() == want
            assert 0 < sum(want) < len(want)

    def test_contains_rows_edges(self):
        ball = Ball((0.0, 0.0), 1.0)
        assert ball.contains_rows(np.zeros((0, 2))).tolist() == []
        points = np.array([[1e200, 0.0], [1e-200, 0.0], [math.nan, 0.0]])
        assert ball.contains_rows(points).tolist() == [False, True, False]
        huge = Ball((0.0, 0.0), 1e300)
        assert huge.contains_rows(np.array([[1e200, 1e200]])).tolist() == [True]
        with pytest.raises(DimensionMismatch):
            ball.contains_rows(np.zeros((3, 1)))

    def test_infinite_radius_takes_no_scalar_test(self, monkeypatch):
        # every row went through the scalar test (1e-14 x inf = inf)
        ball = Ball((0.5, -1.0), math.inf)
        points = np.concatenate([np.linspace(-10.0, 10.0, 2000).reshape(-1, 2),
                                 [[1e300, 1e300], [math.inf, 0.0], [-math.inf, 1.0],
                                  [math.nan, 0.0]]])
        want = [ball.contains(p) for p in points.tolist()]
        calls = []
        contains = Ball.contains
        monkeypatch.setattr(Ball, "contains", lambda self, p: calls.append(p) or contains(self, p))
        assert ball.contains_rows(points).tolist() == want
        assert want == [True] * 1003 + [False] and calls == []
        # a finite bound still takes it at the bound and for an inf norm
        finite = Ball((0.0,), 1.0).contains_rows(np.array([[1.0 + 1e-12], [math.inf]]))
        assert finite.tolist() == [True, False] and len(calls) == 2


class TestProbes:
    def test_constant_source_estimate_zero(self, rng):
        src = SourceSpec.constant(d([0.0]))
        pairs = [(random_measure(rng, 3), random_measure(rng, 3)) for _ in range(5)]
        assert probe_s1_lipschitz(src, pairs) == 0.0

    def test_identical_pairs_skipped(self):
        src = SourceSpec.proportional(1.0, support_radius=5.0)
        mu = d([0.0])
        assert probe_s1_lipschitz(src, [(mu, mu)]) == 0.0

    def test_proportional_estimate_near_rate(self, rng):
        rate = 0.75
        src = SourceSpec.proportional(rate, support_radius=50.0)
        pairs = [(random_measure(rng, 3), random_measure(rng, 3)) for _ in range(10)]
        estimate = probe_s1_lipschitz(src, pairs)
        assert estimate <= rate + 1e-9

    def test_proportional_constant_holds_only_inside_the_ball(self, rng):
        # the Lipschitz constant rate holds for measures inside B(0, R) ...
        src = SourceSpec.proportional(1.0, support_radius=1.0)
        pairs = [(random_measure(rng, 3, span=0.5), random_measure(rng, 3, span=0.5))
                 for _ in range(10)]
        assert probe_s1_lipschitz(src, pairs) <= 1.0 + 1e-9
        # ... but not across its boundary: the hard cutoff keeps all of one
        # Dirac and none of the other, at any distance between them
        for gap in (2e-3, 2e-4, 2e-5):
            pair = (d([1.0 - gap / 2]), d([1.0 + gap / 2]))
            assert probe_s1_lipschitz(src, [pair]) == pytest.approx(1.0 / gap, rel=1e-6)

    def test_v2_deterministic_identity_flow(self):
        pvf = PvfSpec.deterministic(lambda x: x, growth_constant=1.0)
        pairs = [(d([0.3]), d([0.8])), (d([-0.5]), d([0.25]))]
        estimate = probe_v2_lipschitz(pvf, pairs)
        # single-atom pairs closer than the removal threshold: the forced
        # plan gives ratio |a-b| / |a-b| = 1
        assert estimate == pytest.approx(1.0, abs=1e-6)

    def test_v2_diffusion_finite(self, rng):
        pvf = PvfSpec.diffusion1d(PHI, quadrature_points=4)
        pairs = []
        for _ in range(4):
            w = rng.integers(1, 4, 2) / 8.0
            w = w / w.sum()
            pairs.append(
                (
                    DiscreteMeasure.from_atoms(
                        [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-2, 2, 2), w)]
                    ),
                    DiscreteMeasure.from_atoms(
                        [((float(x),), float(wi)) for x, wi in zip(rng.uniform(-2, 2, 2), w)]
                    ),
                )
            )
        estimate = probe_v2_lipschitz(pvf, pairs)
        assert math.isfinite(estimate) and estimate >= 0.0
