"""Tests for domain types: potentials, momenta, grids, serialization."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra import (
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    RelativeMomentum,
    load_potential,
)
from lattice_spectra.errors import EvennessError, InputError, PotentialFormatError

from oracles import momentum_kernel, save_potential

TWO_PI_POW = (2.0 * math.pi) ** -1.5


class TestMassPair:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            MassPair(0.0, 1.0)
        with pytest.raises(ValueError):
            MassPair(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            MassPair(bad, 1.0)
        with pytest.raises(ValueError):
            MassPair(1.0, bad)

    def test_equal_masses(self):
        assert MassPair(1.0, 1.0).equal_masses()
        assert not MassPair(1.0, 2.0).equal_masses()
        assert MassPair(1.0, 1.0 + 1e-14).equal_masses()


class TestTorusNormalization:
    def test_pi_maps_to_pi(self):
        k = Quasimomentum(math.pi, -math.pi, 3 * math.pi)
        assert k.components == (math.pi, math.pi, math.pi)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        # reduction mod 2*pi would otherwise map these silently to pi
        with pytest.raises(ValueError):
            Quasimomentum(bad, 0.0, 0.0)
        with pytest.raises(ValueError):
            RelativeMomentum(0.0, 0.0, bad)

    def test_components_in_range_kept_as_given(self):
        # pi - (pi - x) mod 2 pi rounds: 0.3 became 0.2999999999999998
        assert Quasimomentum(0.3, -1.0, 0.2).components == (0.3, -1.0, 0.2)
        assert RelativeMomentum(-3.0, 1e-300, math.pi).components == (-3.0, 1e-300, math.pi)

    def test_interior(self):
        assert Quasimomentum(0.1, -0.2, 3.0).is_interior()
        assert not Quasimomentum(math.pi, 0.0, 0.0).is_interior()

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_normalization_idempotent(self, a, b, c):
        k = Quasimomentum(a, b, c)
        k2 = Quasimomentum(*k.components)
        assert k.components == k2.components
        assert all(-math.pi < x <= math.pi for x in k.components)


class TestPotential:
    def test_singleton_origin(self):
        pot = load_potential('{"sites": [{"s": [0,0,0], "v": 2.0}]}')
        assert pot.entries == {(0, 0, 0): 2.0}
        assert pot.support_radius == 0

    def test_auto_symmetrization(self):
        pot = load_potential('{"sites": [{"s": [1,0,0], "v": 1.0}]}')
        assert pot.value((1, 0, 0)) == 1.0
        assert pot.value((-1, 0, 0)) == 1.0
        assert pot.support_radius == 1

    def test_evenness_conflict_rejected(self):
        doc = '{"sites": [{"s": [1,0,0], "v": 1.0}, {"s": [-1,0,0], "v": 2.0}]}'
        with pytest.raises(EvennessError):
            load_potential(doc)

    @pytest.mark.parametrize("entries", [
        {(1, 0, 0): 0.0, (-1, 0, 0): 1.0},
        {(-1, 0, 0): 1.0, (1, 0, 0): 0.0},
        {(0, 2, -1): 0.0, (0, -2, 1): -0.5},
    ])
    def test_explicit_zero_conflicting_with_its_pair_rejected(self, entries):
        # an explicit zero is a value like any other: it must match its pair
        with pytest.raises(EvennessError):
            Potential(entries)
        doc = {"sites": [{"s": list(s), "v": v} for s, v in entries.items()]}
        with pytest.raises(EvennessError):
            load_potential(json.dumps(doc))

    def test_explicit_zero_pair_dropped(self):
        pot = Potential({(1, 0, 0): 0.0, (-1, 0, 0): 0.0, (0, 0, 0): 2.0})
        assert dict(pot.entries) == {(0, 0, 0): 2.0}

    def test_duplicate_site_rejected(self):
        doc = '{"sites": [{"s": [1,0,0], "v": 1.0}, {"s": [1,0,0], "v": 1.0}]}'
        with pytest.raises(PotentialFormatError):
            load_potential(doc)

    def test_non_finite_rejected(self):
        with pytest.raises(PotentialFormatError):
            Potential({(0, 0, 0): float("nan")})

    def test_entries_read_only(self):
        pot = Potential({(1, 0, 0): 1.0})
        with pytest.raises(TypeError):
            pot.entries[(5, 0, 0)] = -2.0
        assert pot.support_radius == 1

    def test_malformed_json(self):
        with pytest.raises(PotentialFormatError):
            load_potential("{not json")
        with pytest.raises(PotentialFormatError):
            load_potential('{"sites": [{"s": [0,0], "v": 1}]}')

    def test_reads_byte_stream(self):
        pot = load_potential(io.BytesIO(b'{"sites": [{"s": [0,0,0], "v": 1.5}]}'))
        assert pot.value((0, 0, 0)) == 1.5

    def test_round_trip(self):
        pot = load_potential(
            '{"sites": [{"s": [1,0,0], "v": 1.0}, {"s": [0,0,0], "v": -2.5}]}'
        )
        again = load_potential(save_potential(pot))
        assert again.entries == pot.entries
        assert save_potential(again) == save_potential(pot)

    def test_nonnegative(self):
        assert Potential({(0, 0, 0): 2.0}).is_nonnegative()
        assert not Potential({(1, 0, 0): -1.0}).is_nonnegative()
        assert Potential({}).is_nonnegative()

    def test_axis_sites(self):
        pot = Potential({(0, 0, 0): 4.0, (1, 0, 0): 4.0, (0, 2, 0): 1.0})
        assert pot.axis_sites(0) == [-1, 0, 1]
        assert pot.axis_sites(1) == [-2, 0, 2]
        assert pot.axis_sites(2) == [0]


class TestMomentumKernel:
    def test_point_mass(self):
        pot = Potential({(0, 0, 0): 2.0})
        q = RelativeMomentum(0.7, -1.1, 2.0)
        assert momentum_kernel(pot, q) == pytest.approx(2.0 * TWO_PI_POW)
        assert momentum_kernel(pot, q) == pytest.approx(0.1269873, abs=1e-6)

    def test_axis_pair(self):
        pot = Potential({(1, 0, 0): 1.0})
        assert momentum_kernel(pot, RelativeMomentum(0, 0, 0)) == pytest.approx(
            2.0 * TWO_PI_POW
        )
        assert momentum_kernel(pot, RelativeMomentum(math.pi, 0, 0)) == pytest.approx(
            -2.0 * TWO_PI_POW
        )

    @given(
        st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
        st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
    )
    @settings(max_examples=50)
    def test_even_in_q(self, a, b, c, v0, v1):
        pot = Potential({(0, 0, 0): v0, (1, 2, 0): v1})
        q = RelativeMomentum(a, b, c)
        assert momentum_kernel(pot, q) == pytest.approx(
            momentum_kernel(pot, -q), abs=1e-12
        )


class TestMomentumGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentumGrid(1)
        with pytest.raises(ValueError):
            MomentumGrid(4, offset=1.0)

    @pytest.mark.parametrize("n", [4.5, 4.0, "8", None, np.float64(6.0)])
    def test_non_integer_size_rejected(self, n):
        # 4.5 used to give dim 91.125 and five axis nodes
        with pytest.raises(ValueError, match="integer"):
            MomentumGrid(n)

    def test_numpy_integer_size_accepted(self):
        grid = MomentumGrid(np.int64(6), 0.0)
        assert grid == MomentumGrid(6, 0.0) and type(grid.n_per_dim) is int
        assert grid.dim == 216 and len(grid.axis_nodes()) == 6

    @pytest.mark.parametrize("n,offset", [(2, 0.0), (3, 0.5), (5, 0.25), (8, 0.5)])
    def test_nodes_distinct_in_range(self, n, offset):
        grid = MomentumGrid(n, offset)
        nodes = grid.nodes()
        assert nodes.shape == (n**3, 3)
        assert np.all(nodes >= -math.pi) and np.all(nodes < math.pi)
        assert len({tuple(row) for row in nodes}) == n**3

    @pytest.mark.parametrize("n", [2, 4, 8, 10])
    def test_half_offset_avoids_zero_and_pi_even_n(self, n):
        # only even node counts keep the half-offset grid away from q = 0
        axis = MomentumGrid(n, 0.5).axis_nodes()
        assert np.abs(axis).min() > 1e-12
        assert np.abs(np.abs(axis) - math.pi).min() > 1e-12


class TestSiteCoordinates:
    """``Potential`` is the one gate for sites: three integers, no rounding."""

    @pytest.mark.parametrize("entries", [
        {(1.5, 0, 0): 1.0},
        {(1.5, 0, 0): 1.0, (1.2, 0, 0): 2.0},
        {(1, 0): 1.0},
        {(1, 0, 0, 0): 1.0},
        {(True, 0, 0): 1.0},
        {(np.float64(1.0), 0, 0): 1.0},
        {"abc": 1.0},
        {b"abc": 1.0},
        {5: 1.0},
    ])
    def test_python_api_refuses_non_integer_sites(self, entries):
        with pytest.raises(PotentialFormatError, match="triple of integers") as info:
            Potential(entries)
        assert type(info.value) is PotentialFormatError

    @pytest.mark.parametrize("site", [[True, 0, 0], [0, 0, False], [1.5, 0, 0], [1.0, 0, 0],
                                      ["1", 0, 0], [None, 0, 0], [1, 0], [[1], 0, 0]])
    def test_json_refuses_non_integer_sites(self, site):
        doc = json.dumps({"sites": [{"s": site, "v": 1.0}]})
        with pytest.raises(PotentialFormatError, match="triple of integers") as info:
            load_potential(doc)
        assert type(info.value) is PotentialFormatError

    def test_coordinate_too_long_to_print_is_a_format_error(self):
        # repr of an int beyond 4300 digits raises ValueError; the echo does not
        with pytest.raises(PotentialFormatError, match="triple of integers") as info:
            Potential({(10**5000, 1.5, 0): 1.0})
        assert type(info.value) is PotentialFormatError
        assert len(str(info.value)) < 100

    def test_coordinate_too_long_to_print_is_a_site(self):
        # sites are formatted only to refuse, so a valid one is never printed
        pot = Potential({(10**5000, 0, 0): 1.0})
        assert pot.support_radius == 10**5000
        for value in ["1", math.nan]:
            with pytest.raises(PotentialFormatError, match="at site <a value too large") as info:
                Potential({(10**5000, 0, 0): value})
            assert len(str(info.value)) < 100

    def test_numpy_integers_accepted_as_python_ints(self):
        pot = Potential({(np.int64(1), np.int32(0), 2): 1.5})
        assert dict(pot.entries) == {(1, 0, 2): 1.5, (-1, 0, -2): 1.5}
        assert all(type(c) is int for s in pot.entries for c in s)


class TestRecordsRefuseNonNumbers:
    """Numbers pass one gate: a Python or numpy int or float, never a bool or a str."""

    @pytest.mark.parametrize("make", [
        lambda: Quasimomentum("0.5", 0.0, 0.0),
        lambda: Quasimomentum(0.5, True, 0),
        lambda: RelativeMomentum(0.0, 0.0, None),
        lambda: MassPair(True, 1),
        lambda: MassPair(1.0, "2"),
        lambda: MomentumGrid(4, "0.5"),
        lambda: MomentumGrid(4, False),
    ])
    def test_refused_as_input_errors(self, make):
        with pytest.raises(InputError, match="must be a real number"):
            make()

    def test_numpy_scalars_accepted(self):
        assert Quasimomentum(np.float64(0.5), np.int64(1), 0) == (0.5, 1.0, 0.0)
        assert MassPair(np.float32(2.0), np.int64(1)) == (2.0, 1.0)
        assert MomentumGrid(4, np.float64(0.25)).offset == 0.25

    @pytest.mark.parametrize("make,message", [
        (lambda: MassPair(0.0, 1.0), "masses must be positive and finite, got 0.0, 1.0"),
        (lambda: MassPair(1e-320, 1.0), "mass reciprocals overflow to infinity"),
        (lambda: Quasimomentum(math.nan, 0.0, 0.0), "torus component c1 must be finite"),
        (lambda: MomentumGrid(1), "need an integer N >= 2, got 1"),
        (lambda: MomentumGrid(4, 1.5), r"offset must be in \[0, 1\), got 1.5"),
    ])
    def test_todays_refusals_are_input_errors(self, make, message):
        with pytest.raises(InputError, match=message):
            make()


class TestOneGateForEveryNumber:
    """Record fields and potential values pass the same number gate, which
    also refuses an integer beyond the float range."""

    @pytest.mark.parametrize("make", [
        lambda: Quasimomentum(10**400, 0, 0),
        lambda: MassPair(10**400, 1),
        lambda: MassPair(1, -(10**400)),
        lambda: MomentumGrid(4, 10**400),
    ])
    def test_integers_beyond_the_float_range_refused(self, make):
        with pytest.raises(InputError, match="beyond the float range"):
            make()

    @pytest.mark.parametrize("value", [True, False, "3", None, [1.0], 10**400, -(10**400)],
                             ids=["True", "False", "str", "None", "list", "huge", "-huge"])
    def test_potential_values_refused(self, value):
        with pytest.raises(PotentialFormatError, match=r"value at site \(0, 0, 0\)"):
            Potential({(0, 0, 0): value})

    @pytest.mark.parametrize("value", ['"3"', "true", "null", "[1.0]", "1" + "0" * 400],
                             ids=["str", "true", "null", "list", "huge"])
    def test_potential_file_values_refused(self, value):
        with pytest.raises(PotentialFormatError):
            load_potential('{"sites": [{"s": [0, 0, 0], "v": %s}]}' % value)

    def test_integer_literal_past_the_digit_limit_refused(self):
        # json.loads raises a plain ValueError for it where Python limits the digits
        with pytest.raises(PotentialFormatError):
            load_potential('{"sites": [{"s": [0, 0, 0], "v": 1%s}]}' % ("0" * 5000))

    def test_potential_values_stored_as_floats(self):
        pot = Potential({(0, 0, 0): 2, (1, 0, 0): np.float32(0.5), (0, 1, 0): np.int64(-3)})
        assert dict(pot.entries) == {(0, 0, 0): 2.0, (1, 0, 0): 0.5, (-1, 0, 0): 0.5,
                                     (0, 1, 0): -3.0, (0, -1, 0): -3.0}
        assert all(type(v) is float for v in pot.entries.values())
        assert dict(load_potential('{"sites": [{"s": [0, 0, 0], "v": 7}]}').entries) == {
            (0, 0, 0): 7.0}


class TestPotentialValueSites:
    @pytest.mark.parametrize("site", [(1.5, 0, 0), (True, 0, 0), (1, 0)])
    def test_value_refuses_what_construction_refuses(self, site):
        # int() would read 1.5 and True as 1, and return v(1, 0, 0)
        with pytest.raises(PotentialFormatError, match="triple of integers"):
            Potential({(1, 0, 0): 2.0}).value(site)

    def test_value_reads_integer_sites(self):
        pot = Potential({(1, 0, 0): 2.0})
        assert pot.value((np.int64(-1), 0, 0)) == 2.0 and pot.value([0, 0, 0]) == 0.0


class TestDeeplyNestedPotentialFile:
    # json.loads raises RecursionError, not ValueError, past the recursion limit
    DEPTH = 100000

    def test_nested_arrays_refused(self):
        nested = "[" * self.DEPTH + "]" * self.DEPTH
        with pytest.raises(PotentialFormatError, match="nested too deeply"):
            load_potential('{"sites": %s}' % nested)

    def test_nested_objects_refused(self):
        nested = '{"a": ' * self.DEPTH + "1" + "}" * self.DEPTH
        with pytest.raises(PotentialFormatError, match="nested too deeply"):
            load_potential('{"sites": %s}' % nested)
