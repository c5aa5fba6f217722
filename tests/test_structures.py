import io
import random

import pytest

from pathgm import (
    Branching,
    GraphFormatError,
    HpInstance,
    InvalidStructureError,
    PathStructure,
    SolverLimitError,
    brute_force_hp,
    is_hamiltonian_path,
    load_graph,
    write_graph,
)
from pathgm.structures import find_cycle
from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph


class TestPathStructure:
    def test_parent_sets_by_variable(self):
        path = PathStructure((2, 0, 1))
        assert path.parent_sets() == ((2,), (0,), ())

    def test_single_vertex(self):
        path = PathStructure((0,))
        assert path.parent_sets() == ((),)

    def test_in_degree_profile(self):
        rng = random.Random(2)
        for n in range(1, 8):
            order = list(range(n))
            rng.shuffle(order)
            sets = PathStructure(tuple(order)).parent_sets()
            sizes = sorted(len(s) for s in sets)
            assert sizes == [0] + [1] * (n - 1)

    def test_rejects_non_permutations(self):
        with pytest.raises(InvalidStructureError):
            PathStructure(())
        with pytest.raises(InvalidStructureError):
            PathStructure((0, 0))
        with pytest.raises(InvalidStructureError):
            PathStructure((1, 2))


class TestBranching:
    def test_roots_and_parent_sets(self):
        b = Branching((None, 0, 0, None))
        assert b.roots == (0, 3)
        assert b.parent_sets() == ((), (0,), (0,), ())

    def test_cycle_rejected(self):
        with pytest.raises(InvalidStructureError, match="cycle"):
            Branching((1, 0))
        with pytest.raises(InvalidStructureError, match="cycle"):
            Branching((2, 0, 1))

    def test_cycle_error_names_the_vertex_where_it_closes(self):
        # 0 -> 1 -> 2 -> 3 -> 1: the walk from 0 first meets 1 again.
        with pytest.raises(InvalidStructureError, match="through vertex 1$"):
            Branching((1, 2, 3, 1, None))

    def test_find_cycle_returns_the_first_cycle_met(self):
        # Keys in order 4, 0, ...: the walk from 4 reaches the cycle {2, 3}
        # first; a walk stops at None or at a vertex with no entry.
        parent = {4: 3, 0: 1, 1: 0, 2: 3, 3: 2, 5: 9, 6: None}
        assert find_cycle(parent) == [3, 2]
        assert find_cycle({0: 1, 1: 0}) == [0, 1]
        assert find_cycle({0: 5, 1: 0, 2: None}) is None

    def test_self_parent_rejected(self):
        with pytest.raises(InvalidStructureError, match="own parent"):
            Branching((0,))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidStructureError, match="out of range"):
            Branching((None, 7))


class TestHpInstance:
    def test_normalizes_edge_orientation(self):
        g = HpInstance(3, frozenset({(2, 0)}))
        assert g.edges == frozenset({(0, 2)})
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidStructureError, match="self-loop"):
            HpInstance(3, frozenset({(1, 1)}))
        with pytest.raises(InvalidStructureError, match="out of range"):
            HpInstance(3, frozenset({(0, 3)}))
        with pytest.raises(InvalidStructureError, match="duplicate"):
            HpInstance(3, frozenset({(0, 2), (2, 0)}))
        with pytest.raises(InvalidStructureError, match="at least one vertex"):
            HpInstance(0, frozenset())


class TestHamiltonianPath:
    def test_triangle_any_order(self):
        g = complete_graph(3)
        assert is_hamiltonian_path(g, (0, 1, 2))
        assert is_hamiltonian_path(g, (2, 0, 1))

    def test_star_has_none(self):
        import itertools

        g = star_graph(4)
        assert not any(
            is_hamiltonian_path(g, order)
            for order in itertools.permutations(range(4))
        )

    def test_path_graph_detour_rejected(self):
        g = path_graph(4)
        assert is_hamiltonian_path(g, (0, 1, 2, 3))
        assert not is_hamiltonian_path(g, (0, 2, 1, 3))

    def test_reversal_invariance(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_graph(rng, 6)
            order = list(range(6))
            rng.shuffle(order)
            assert is_hamiltonian_path(g, order) == is_hamiltonian_path(
                g, order[::-1]
            )

    def test_single_vertex_is_trivially_a_path(self):
        assert is_hamiltonian_path(HpInstance(1, frozenset()), (0,))

    def test_non_permutation_witness_rejected(self):
        g = path_graph(3)
        with pytest.raises(InvalidStructureError, match="permutation"):
            is_hamiltonian_path(g, (0, 1))
        with pytest.raises(InvalidStructureError, match="permutation"):
            is_hamiltonian_path(g, (0, 1, 1))


class TestBruteForceHp:
    def test_known_families(self):
        assert brute_force_hp(complete_graph(4)) is not None
        assert brute_force_hp(star_graph(4)) is None
        assert brute_force_hp(cycle_graph(6)) is not None
        assert brute_force_hp(path_graph(5)) == (0, 1, 2, 3, 4)
        assert brute_force_hp(HpInstance(3, frozenset())) is None

    def test_witness_is_accepted_by_checker(self):
        rng = random.Random(8)
        found = 0
        for _ in range(40):
            g = random_graph(rng, 6)
            witness = brute_force_hp(g)
            if witness is not None:
                found += 1
                assert is_hamiltonian_path(g, witness)
        assert found > 0

    def test_limit_enforced(self):
        with pytest.raises(SolverLimitError):
            brute_force_hp(complete_graph(11))
        with pytest.raises(SolverLimitError):
            brute_force_hp(complete_graph(5), max_vertices=4)


class TestGraphIo:
    def test_parse_triangle(self):
        g = load_graph(io.StringIO("3 3\n0 1\n1 2\n0 2\n"))
        assert g == complete_graph(3)

    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8))
            sink = io.StringIO()
            write_graph(g, sink)
            assert load_graph(io.StringIO(sink.getvalue())) == g

    def test_file_path_round_trip(self, tmp_path):
        g = cycle_graph(5)
        target = tmp_path / "g.txt"
        write_graph(g, str(target))
        assert load_graph(str(target)) == g

    def test_errors_name_lines(self):
        with pytest.raises(GraphFormatError, match="empty file"):
            load_graph(io.StringIO(""))
        with pytest.raises(GraphFormatError, match="header"):
            load_graph(io.StringIO("3\n"))
        with pytest.raises(GraphFormatError, match="declares 2 edges"):
            load_graph(io.StringIO("3 2\n0 1\n"))
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(io.StringIO("3 1\n0 x\n"))
        with pytest.raises(GraphFormatError, match="out of range"):
            load_graph(io.StringIO("3 1\n0 3\n"))
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(io.StringIO("3 1\n2 2\n"))
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph(io.StringIO("3 2\n0 1\n1 0\n"))
        with pytest.raises(GraphFormatError, match="vertex count"):
            load_graph(io.StringIO("0 0\n"))
