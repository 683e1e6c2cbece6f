import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import grid_weights, measures_1d
from measureflow.errors import DimensionMismatch
from measureflow.measures import (
    DiscreteMeasure,
    LiftedMeasure,
    SignedDecomposition,
    _ratios,
    _support_radius,
)


class TestConstruction:
    def test_duplicates_merge(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([0.0], 0.5), ([1.0], 1.0)])
        assert len(m) == 2
        assert m.atoms[0] == ((0.0,), 1.0)

    def test_float_noise_quantized(self):
        m = DiscreteMeasure.from_atoms([([0.1 + 1e-14], 1.0), ([0.1], 1.0)])
        assert len(m) == 1
        assert m.mass() == 2.0

    def test_zero_and_tiny_weights_dropped(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.0), ([1.0], 1e-16), ([2.0], 1.0)])
        assert m.positions() == ((2.0,),)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_atoms([([0.0], -0.1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite atom coordinate"):
            DiscreteMeasure.from_atoms([([0.0, bad], 1.0)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            DiscreteMeasure.from_atoms([([0.0], 1.0), ([0.0, 1.0], 1.0)])

    def test_canonical_order_independent_of_input(self):
        atoms = [([3.0], 0.25), ([-1.0], 0.5), ([0.5], 0.75)]
        a = DiscreteMeasure.from_atoms(atoms)
        b = DiscreteMeasure.from_atoms(list(reversed(atoms)))
        assert a == b

    def test_empty_needs_dim(self):
        assert DiscreteMeasure.empty(2).dim == 2
        with pytest.raises(ValueError):
            DiscreteMeasure.from_atoms([])


class TestMass:
    def test_unit_dirac(self):
        assert DiscreteMeasure.dirac([0.0]).mass() == 1.0

    def test_two_halves(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.5)])
        assert m.mass() == 1.0

    def test_empty(self):
        assert DiscreteMeasure.empty(1).mass() == 0.0


class TestSupportRadius:
    @staticmethod
    def _per_atom(measure):
        return max(math.sqrt(math.fsum(c * c for c in pos)) for pos, _ in measure.atoms)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_per_atom_form(self, dim):
        rng = np.random.default_rng(dim)
        specials = [-0.0, 0.0, 1e-160, 3e153, -7e150, 1e200, 0.1, -2.5]
        for trial in range(40):
            n = int(rng.integers(1, 30))
            scale = 10.0 ** rng.integers(-8, 9, size=(n, dim))
            coords = rng.standard_normal((n, dim)) * scale
            if trial % 2:
                mask = rng.random((n, dim)) < 0.3
                coords[mask] = rng.choice(specials, size=int(mask.sum()))
            # built directly: from_atoms would quantize and drop -0.0
            measure = DiscreteMeasure(
                atoms=tuple((tuple(row), 1.0) for row in coords.tolist()), dim=dim
            )
            assert measure.support_radius() == self._per_atom(measure)

    def test_three_squares_round_as_one_sum(self):
        # each b*b is under half an ulp of a*a but both together are over it,
        # so a left-to-right float sum of the squares rounds differently
        rng = np.random.default_rng(0)
        differs = 0
        for _ in range(50):
            a = float(rng.uniform(1.42, 1.99))
            b = math.sqrt(0.4 * math.ulp(a * a))
            measure = DiscreteMeasure(atoms=(((0.5, -b, b), 1.0), ((a, b, b), 1.0)), dim=3)
            assert measure.support_radius() == self._per_atom(measure)
            differs += math.sqrt(a * a + b * b + b * b) != measure.support_radius()
        assert differs > 10

    def test_empty(self):
        assert DiscreteMeasure.empty(2).support_radius() == 0.0


class TestPositionsArray:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_list_form(self, dim):
        rng = np.random.default_rng(10 + dim)
        for n in (1, 2, 17):
            coords = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, dim))
            coords[rng.random((n, dim)) < 0.3] = -0.0
            # built directly: from_atoms would quantize and drop -0.0
            measure = DiscreteMeasure(
                atoms=tuple((tuple(row), 0.5) for row in coords.tolist()), dim=dim
            )
            got = measure.positions_array()
            want = np.array([pos for pos, _ in measure.atoms], dtype=float)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty(self, dim):
        got = DiscreteMeasure.empty(dim).positions_array()
        assert got.dtype == np.float64 and got.shape == (0, dim)


class TestPushforward:
    def test_translation(self):
        m = DiscreteMeasure.dirac([0.0]).pushforward(lambda x: x + 1)
        assert m.atoms == (((1.0,), 1.0),)

    def test_collision_merges(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.5)])
        out = m.pushforward(lambda x: np.zeros_like(x))
        assert out.atoms == (((0.0,), 1.0),)

    def test_identity(self):
        m = DiscreteMeasure.from_atoms([([0.25], 0.5), ([3.5], 1.5)])
        assert m.pushforward(lambda x: x) == m

    @given(measures_1d())
    def test_mass_preserved(self, m):
        out = m.pushforward(lambda x: np.round(x))  # heavy collisions
        assert out.mass() == pytest.approx(m.mass(), abs=1e-12)


class TestAlgebra:
    def test_add_merges(self):
        d0 = DiscreteMeasure.dirac([0.0])
        assert (d0 + d0).atoms == (((0.0,), 2.0),)

    def test_add_disjoint(self):
        d0, d1 = DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([1.0])
        assert len(d0 + d1) == 2

    def test_scale_zero_empties(self):
        assert DiscreteMeasure.dirac([0.0]).scale(0.0).is_empty

    def test_add_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DiscreteMeasure.dirac([0.0]).add(DiscreteMeasure.dirac([0.0, 0.0]))

    @given(measures_1d(), measures_1d(), grid_weights)
    def test_conical_monoid(self, a, b, k):
        assert a.add(b) == b.add(a)
        assert a.scale(k).scale(0.5) == a.scale(0.5 * k)
        assert a.add(b).mass() == pytest.approx(a.mass() + b.mass(), rel=1e-12)


class TestCdf:
    def test_jump_at_atom(self):
        d0 = DiscreteMeasure.dirac([0.0])
        assert d0.cdf(0.0) == 1.0
        assert d0.cdf(math.nextafter(0.0, -math.inf)) == 0.0

    def test_between_atoms(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([2.0], 0.5)])
        assert m.cdf(1.0) == 0.5

    def test_total_mass_at_infinity(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([2.0], 0.75)])
        assert m.cdf(math.inf) == m.mass()

    def test_requires_dim1(self):
        with pytest.raises(DimensionMismatch):
            DiscreteMeasure.dirac([0.0, 0.0]).cdf(0.0)

    @given(measures_1d(), st.integers(-50, 50))
    def test_monotone_right_continuous(self, m, k):
        x = k / 8.0
        left = m.cdf(math.nextafter(x, -math.inf))  # F(x-): atoms sit on floats
        assert left <= m.cdf(x) + 1e-15
        jump = math.fsum(w for (p,), w in m.atoms if p == x)
        assert m.cdf(x) - left == pytest.approx(jump, abs=1e-12)
        assert m.cdf(x) <= m.cdf(x + 0.25) + 1e-15


class TestLiftedMeasure:
    def test_single_atom_projection(self):
        v = LiftedMeasure.from_atoms([([0.0], [3.0], 1.0)])
        assert v.base_projection() == DiscreteMeasure.dirac([0.0])

    def test_fiber_merge(self):
        v = LiftedMeasure.from_atoms([([0.0], [1.0], 0.5), ([0.0], [2.0], 0.5)])
        assert v.base_projection().atoms == (((0.0,), 1.0),)

    def test_distinct_bases(self):
        v = LiftedMeasure.from_atoms([([0.0], [1.0], 0.5), ([1.0], [1.0], 0.5)])
        assert len(v.base_projection()) == 2

    def test_projection_preserves_mass(self):
        v = LiftedMeasure.from_atoms(
            [([0.0], [1.0], 0.25), ([0.0], [-1.0], 0.5), ([2.0], [0.5], 0.75)]
        )
        assert v.base_projection().mass() == pytest.approx(v.mass(), abs=1e-15)

    def test_as_joint_doubles_dim(self):
        v = LiftedMeasure.from_atoms([([0.0], [1.0], 1.0)])
        joint = v.as_joint()
        assert joint.dim == 2 and joint.atoms == (((0.0, 1.0), 1.0),)

    def test_base_velocity_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LiftedMeasure.from_atoms([([0.0], [1.0, 2.0], 1.0)])


class TestSignedDecomposition:
    def test_masses_add_up(self):
        m = DiscreteMeasure.from_atoms([([0.0], 0.5), ([1.0], 0.5)])
        kept = DiscreteMeasure.from_atoms([([0.0], 0.25), ([1.0], 0.5)])
        dec = SignedDecomposition(kept=kept, removed_mass=0.25)
        assert dec.total_mass() == pytest.approx(m.mass())
        assert dec.dominated_by(m)

    def test_not_dominated(self):
        m = DiscreteMeasure.dirac([0.0])
        dec = SignedDecomposition(kept=DiscreteMeasure.dirac([0.0], 2.0), removed_mass=0.0)
        assert not dec.dominated_by(m)

    def test_negative_removed_rejected(self):
        with pytest.raises(ValueError):
            SignedDecomposition(kept=DiscreteMeasure.dirac([0.0]), removed_mass=-0.5)


class TestSerialization:
    def test_json_roundtrip(self):
        m = DiscreteMeasure.from_atoms([([0.5, -1.0], 0.25), ([2.0, 3.0], 1.5)])
        assert DiscreteMeasure.from_dict(json.loads(json.dumps(m.to_dict()))) == m

    def test_schema_shape(self):
        m = DiscreteMeasure.dirac([1.0, 2.0], 0.5)
        assert json.loads(json.dumps(m.to_dict())) == {"dim": 2, "atoms": [[1.0, 2.0, 0.5]]}

    def test_csv_roundtrip(self):
        m = DiscreteMeasure.from_atoms([([0.5], 0.25), ([2.0], 1.5)])
        text = "\n".join(",".join(repr(v) for v in (*pos, w)) for pos, w in m.atoms)
        assert DiscreteMeasure.from_csv(text, dim=1) == m

    def test_lifted_roundtrip(self):
        v = LiftedMeasure.from_atoms([([0.0], [1.5], 0.5), ([1.0], [-0.5], 0.5)])
        assert LiftedMeasure.from_dict(v.to_dict()) == v

    # each of these read as a unit Dirac before: dim truncated or coerced,
    # the extra value dropped, the bool or string taken as a number
    @pytest.mark.parametrize("data", [
        {"dim": 1.9, "atoms": [[1.0, 1.0]]},
        {"dim": True, "atoms": [[1.0, 1.0]]},
        {"dim": "1", "atoms": [[1.0, 1.0]]},
        {"dim": 0, "atoms": [[1.0]]},
        {"dim": 1, "atoms": [[1.0, 1.0, 5.0]]},
        {"dim": 1, "atoms": [[1.0]]},
        {"dim": 1, "atoms": [[1.0, True]]},
        {"dim": 1, "atoms": [["1.0", 1.0]]},
    ], ids=["float_dim", "bool_dim", "text_dim", "zero_dim", "long_row", "short_row",
            "bool_weight", "text_coordinate"])
    def test_from_dict_rejects_a_wrong_schema(self, data):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_dict(data)

    @pytest.mark.parametrize("row", [[0.0, 1.0], [0.0, 1.0, 1.0, 1.0], [0.0, False, 1.0]])
    def test_lifted_from_dict_rejects_a_wrong_row(self, row):
        with pytest.raises(ValueError, match="must list 3 numbers"):
            LiftedMeasure.from_dict({"dim": 1, "atoms": [row]})

    def test_from_csv_rejects_rows_of_another_length(self):
        with pytest.raises(ValueError, match="must list 2 numbers"):
            DiscreteMeasure.from_csv("0.0,1.0\n1.0,1.0,5.0\n", dim=1)


class TestKernels:
    """The array kernels against their scalar oracles, bit for bit."""

    @staticmethod
    def assert_ratios(nums, den):
        got = _ratios(np.array(nums, dtype=object), den)
        assert got.dtype == np.float64 and got.shape == (len(nums),)
        assert [v.hex() for v in got.tolist()] == [(n / den).hex() for n in nums]

    @pytest.mark.parametrize("k", [0, 1, 52, 53, 64, 100, 500, 1021, 1022, 1023, 1074, 1100])
    def test_ratios_power_of_two_dens(self, k):
        rng = np.random.default_rng(k)
        nums = [int(rng.integers(1, 2**62)) * 2**int(b) + int(rng.integers(0, 2**40))
                for b in rng.integers(0, 80, 200)]
        den = 2**k
        self.assert_ratios([0, 1, *nums, den, den - 1, den + 1], den)

    @pytest.mark.parametrize("k", [0, 3, 60, 1000, 1074, 1100])
    def test_ratios_half_way_ties(self, k):
        # 2^53 + 1 and 2^53 + 3 sit half-way between floats: half to even
        # rounds the first down and the second up
        self.assert_ratios([2**53 + 1, 2**53 + 3, 2**54 + 2, 2**54 + 6, 3 * 2**70 + 2**17], 2**k)

    def test_ratios_numerators_past_the_float_range(self):
        # float(num) overflows, num / 2^k does not
        self.assert_ratios([1, 2**1024 - 1, 2**1024, 2**1024 + 1], 2)
        for k in (100, 1100):
            self.assert_ratios([1, 2**1024 - 1, 2**1030 + 12345, 7 * 2**1100], 2**k)

    def test_ratios_subnormal_results(self):
        # (2.5 + 2^-60) 2^-1074 is 3 * 2^-1074 correctly rounded; scaling
        # the rounded 2.5 * 2^60 by 2^-1134 would tie to 2 * 2^-1074
        den = 2**1134
        self.assert_ratios([2**61 + 2**59 + 1, 1, 2**60, 2**110 + 1, 2**112 - 1], den)
        self.assert_ratios([1, 3, 2**52 - 1, 2**52 + 1], 2**1074)
        self.assert_ratios([1, 2**1000], 2**2100)

    def test_ratios_zero_and_empty(self):
        self.assert_ratios([0, 0], 2**40)
        self.assert_ratios([0, 0], 3)
        self.assert_ratios([], 2**40)
        self.assert_ratios([], 10)

    @pytest.mark.parametrize("den", [3, 3 * 2**40, 3 * 2**1100, 10, 10**20, 10**400],
                             ids=["3", "3*2^40", "3*2^1100", "10", "10^20", "10^400"])
    def test_ratios_other_dens(self, den):
        rng = np.random.default_rng(den % 1000)
        top = den.bit_length() + 900  # quotients below 2^962 stay finite
        nums = [int(rng.integers(1, 2**62)) * 2**int(b) for b in rng.integers(0, top, 100)]
        self.assert_ratios([0, 1, den, *nums], den)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_support_radius_matches_fsum(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-8, 8, size=(n, 1))
            positions = rng.standard_normal((n, dim)) * scale
            want = math.sqrt(max(math.fsum(c * c for c in row) for row in positions.tolist()))
            assert _support_radius(positions).hex() == want.hex()
        assert _support_radius(np.zeros((0, dim))) == 0.0

    @pytest.mark.parametrize("row", [(1e154, 1e154), (1e200, 0.0), (1e154, 1e154, 0.0),
                                     (1e200,), (0.0, 1e300, 0.0)])
    def test_support_radius_overflow_is_inf(self, row):
        positions = np.array([(0.0,) * len(row), row])
        assert _support_radius(positions) == math.inf
