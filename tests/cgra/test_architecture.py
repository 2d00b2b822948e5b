"""Tests for the CGRA architecture model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgra.architecture import CGRA
from repro.cgra.topology import Topology
from repro.exceptions import ArchitectureError


class TestConstruction:
    def test_defaults_match_paper_setup(self):
        cgra = CGRA()
        assert cgra.rows == 4 and cgra.cols == 4
        assert cgra.registers_per_pe == 4
        assert cgra.topology is Topology.MESH

    def test_square_factory(self):
        for size in (2, 3, 4, 5):
            cgra = CGRA.square(size)
            assert cgra.num_pes == size * size

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ArchitectureError):
            CGRA(rows=0, cols=3)

    def test_invalid_registers_rejected(self):
        with pytest.raises(ArchitectureError):
            CGRA(registers_per_pe=0)

    def test_name_and_describe(self):
        cgra = CGRA.square(3)
        assert cgra.name == "cgra_3x3"
        assert "9 PEs" in cgra.describe()
        assert str(cgra) == cgra.describe()

    def test_topology_accepts_string(self):
        cgra = CGRA(rows=2, cols=2, topology="torus")
        assert cgra.topology is Topology.TORUS


class TestGeometry:
    def test_pe_index_round_trip(self):
        cgra = CGRA(rows=3, cols=5)
        for pe in range(cgra.num_pes):
            assert cgra.pe_index(cgra.pe_position(pe)) == pe

    def test_row_major_order(self):
        cgra = CGRA(rows=2, cols=3)
        assert cgra.pe_index((0, 0)) == 0
        assert cgra.pe_index((0, 2)) == 2
        assert cgra.pe_index((1, 0)) == 3

    def test_pe_lookup_out_of_range(self):
        cgra = CGRA.square(2)
        with pytest.raises(ArchitectureError):
            cgra.pe(4)
        with pytest.raises(ArchitectureError):
            cgra.pe_index((2, 0))

    def test_pe_objects(self):
        cgra = CGRA.square(2)
        pe = cgra.pe(3)
        assert pe.position == (1, 1)
        assert pe.num_registers == 4
        assert pe.name == "PE[1,1]"


class TestConnectivity:
    def test_neighbours_include_self_by_default(self):
        cgra = CGRA.square(3)
        assert 4 in cgra.neighbours(4)
        assert 4 not in cgra.neighbours(4, include_self=False)

    def test_mesh_neighbours_of_centre(self):
        cgra = CGRA.square(3)
        assert set(cgra.neighbours(4, include_self=False)) == {1, 3, 5, 7}

    def test_are_neighbours_symmetric(self):
        cgra = CGRA.square(4)
        for a in range(cgra.num_pes):
            for b in range(cgra.num_pes):
                assert cgra.are_neighbours(a, b) == cgra.are_neighbours(b, a)

    def test_same_pe_controlled_by_flag(self):
        cgra = CGRA.square(2)
        assert cgra.are_neighbours(0, 0)
        assert not cgra.are_neighbours(0, 0, include_self=False)

    def test_distance(self):
        cgra = CGRA.square(4)
        assert cgra.distance(0, 15) == 6
        assert cgra.distance(5, 5) == 0

    def test_full_topology_all_neighbours(self):
        cgra = CGRA(rows=2, cols=2, topology=Topology.FULL)
        assert set(cgra.neighbours(0)) == {0, 1, 2, 3}


class TestSymmetries:
    def test_square_grid_has_eight_symmetries(self):
        assert len(CGRA.square(3).symmetries) == 8

    def test_rectangular_grid_has_four_symmetries(self):
        assert len(CGRA(rows=2, cols=3).symmetries) == 4

    def test_symmetries_are_permutations(self):
        cgra = CGRA.square(3)
        for permutation in cgra.symmetries:
            assert sorted(permutation) == list(range(cgra.num_pes))

    def test_symmetries_preserve_neighbourhood(self):
        """Every symmetry is a graph automorphism of the interconnect."""
        for cgra in (CGRA.square(3), CGRA(rows=2, cols=4), CGRA.square(4, topology="torus")):
            for permutation in cgra.symmetries:
                for a in range(cgra.num_pes):
                    for b in range(cgra.num_pes):
                        assert cgra.are_neighbours(a, b) == cgra.are_neighbours(
                            permutation[a], permutation[b]
                        )

    def test_fundamental_domain_covers_all_orbits(self):
        for size in (2, 3, 4, 5):
            cgra = CGRA.square(size)
            domain = set(cgra.symmetry_fundamental_domain())
            for pe in range(cgra.num_pes):
                orbit = {permutation[pe] for permutation in cgra.symmetries}
                assert orbit & domain, f"PE {pe} orbit misses the domain"

    def test_fundamental_domain_is_smaller_than_grid(self):
        cgra = CGRA.square(4)
        assert len(cgra.symmetry_fundamental_domain()) < cgra.num_pes

    def test_full_topology_domain_is_single_pe(self):
        cgra = CGRA(rows=2, cols=2, topology=Topology.FULL)
        assert cgra.symmetry_fundamental_domain() == (0,)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5))
def test_neighbour_table_consistent_with_topology(rows, cols):
    cgra = CGRA(rows=rows, cols=cols)
    for pe in range(cgra.num_pes):
        for other in cgra.neighbours(pe, include_self=False):
            assert cgra.distance(pe, other) == 1


class TestTopologyAwareDistance:
    def test_mesh_distance_is_manhattan(self):
        cgra = CGRA.square(4)
        assert cgra.distance(0, 15) == 6

    def test_torus_distance_accounts_for_wrap_around(self):
        cgra = CGRA.square(4, topology="torus")
        assert cgra.distance(0, 15) == 2  # both axes go the short way around
        assert cgra.distance(0, 3) == 1   # wrap link in one hop

    def test_diagonal_distance_is_chebyshev(self):
        cgra = CGRA.square(4, topology="diagonal")
        assert cgra.distance(0, 15) == 3

    def test_full_distance_is_one_hop(self):
        cgra = CGRA.square(4, topology=Topology.FULL)
        assert cgra.distance(0, 15) == 1
        assert cgra.distance(7, 7) == 0

    def test_distance_lower_bounds_hops_on_every_topology(self):
        """distance is 1 exactly on the one-hop neighbourhood."""
        for topology in Topology:
            cgra = CGRA(rows=3, cols=4, topology=topology)
            for a in range(cgra.num_pes):
                for b in range(cgra.num_pes):
                    if a == b:
                        assert cgra.distance(a, b) == 0
                    elif cgra.are_neighbours(a, b, include_self=False):
                        assert cgra.distance(a, b) == 1
                    else:
                        assert cgra.distance(a, b) >= 2


def _table_fabrics():
    """Every topology on square, rectangular and 1xN grids, plus a preset."""
    from repro.cgra.presets import mem_edge_4x4

    preset = mem_edge_4x4()
    for topology in Topology:
        for rows, cols in ((1, 1), (1, 5), (4, 1), (2, 2), (3, 3), (2, 4), (4, 3)):
            yield CGRA(rows=rows, cols=cols, topology=topology)
        yield CGRA.from_spec({**preset.to_spec(), "topology": topology.value})


def _fabric_id(cgra):
    return f"{cgra.name}-{cgra.topology.value}"


class TestGeometryTables:
    """The cached per-fabric tables answer exactly like the geometry."""

    @pytest.mark.parametrize("cgra", list(_table_fabrics()), ids=_fabric_id)
    def test_distance_matches_hop_distance(self, cgra):
        from repro.cgra.topology import hop_distance

        for a in range(cgra.num_pes):
            for b in range(cgra.num_pes):
                expected = hop_distance(
                    cgra.pe_position(a), cgra.pe_position(b),
                    cgra.rows, cgra.cols, cgra.topology,
                )
                assert cgra.distance(a, b) == expected
                assert cgra.hop_table[a][b] == expected

    @pytest.mark.parametrize("cgra", list(_table_fabrics()), ids=_fabric_id)
    def test_are_neighbours_matches_neighbour_list(self, cgra):
        for a in range(cgra.num_pes):
            for include_self in (True, False):
                listed = cgra.neighbours(a, include_self)
                assert list(listed) == sorted(listed)
                for b in range(cgra.num_pes):
                    assert cgra.are_neighbours(a, b, include_self) == (b in listed)

    @pytest.mark.parametrize("cgra", list(_table_fabrics()), ids=_fabric_id)
    def test_affinity_is_zero_on_the_neighbourhood_else_hops(self, cgra):
        for a in range(cgra.num_pes):
            for b in range(cgra.num_pes):
                expected = 0 if cgra.are_neighbours(a, b) else cgra.distance(a, b)
                assert cgra.affinity_table[a][b] == expected

    @pytest.mark.parametrize(
        "cgra", [CGRA.square(3), CGRA(rows=1, cols=4)], ids=_fabric_id
    )
    def test_out_of_range_indices_still_raise(self, cgra):
        for bad in (-1, cgra.num_pes):
            with pytest.raises(ArchitectureError):
                cgra.distance(bad, 0)
            with pytest.raises(ArchitectureError):
                cgra.distance(0, bad)
            with pytest.raises(ArchitectureError):
                cgra.are_neighbours(bad, 0)
            with pytest.raises(ArchitectureError):
                cgra.are_neighbours(bad, bad)
            with pytest.raises(ArchitectureError):
                cgra.neighbours(bad)

    def test_tables_do_not_change_equality(self):
        warm = CGRA.square(3)
        warm.distance(0, 8)
        _ = warm.affinity_table
        cold = CGRA.square(3)
        assert warm == cold and hash(warm) == hash(cold)
        assert warm.to_spec() == cold.to_spec()
