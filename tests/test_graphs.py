import pytest

from ultraforest.core import diameter, spectrum
from ultraforest.errors import (
    AllVerticesIsolated,
    FormatMismatch,
    ValueNotInSpectrum,
    ZeroRadius,
)
from ultraforest.gen import enumerate_spaces
from ultraforest.graphs import (
    complete_multipartite_parts,
    connected_components,
    decompose_level_graph,
    level_graph,
    make_graph,
    strip_isolated,
)
from ultraforest.tree import multipartite_parts

from .oracles import multipartite_parts_brute


class TestLevelGraph:
    def test_isosceles_levels(self, isosceles):
        g1 = level_graph(isosceles, 1)
        assert g1.edges == frozenset({("a", "b")})
        g2 = level_graph(isosceles, 2)
        assert g2.edges == frozenset({("a", "c"), ("b", "c")})
        assert g2.vertices == frozenset({"a", "b", "c"})

    def test_zero_radius_rejected(self, isosceles):
        with pytest.raises(ZeroRadius):
            level_graph(isosceles, 0)

    def test_value_outside_spectrum_rejected(self, isosceles):
        with pytest.raises(ValueNotInSpectrum):
            level_graph(isosceles, 5)

    def test_edges_partition_the_pairs(self, figure16):
        seen = set()
        for r in spectrum(figure16)[1:]:
            edges = level_graph(figure16, r).edges
            assert not (seen & edges)
            seen |= edges
        n = len(figure16)
        assert len(seen) == n * (n - 1) // 2


class TestStripIsolated:
    def test_strips_to_edge_support(self, figure16):
        g = strip_isolated(level_graph(figure16, 1))
        assert g.vertices == frozenset(
            {"x8", "x9", "x10", "x11", "x12", "x13", "x14", "x15", "x16"}
        )

    def test_idempotent(self, figure16):
        g = strip_isolated(level_graph(figure16, 3))
        assert strip_isolated(g) == g

    def test_all_isolated_rejected(self):
        with pytest.raises(AllVerticesIsolated):
            strip_isolated(make_graph({"a", "b"}, []))


class TestMakeGraph:
    def test_rejects_loop(self):
        with pytest.raises(FormatMismatch):
            make_graph({"a"}, [("a", "a")])

    def test_rejects_stray_edge(self):
        with pytest.raises(FormatMismatch):
            make_graph({"a", "b"}, [("a", "z")])

    def test_normalizes_edge_direction(self):
        g = make_graph({"a", "b"}, [("b", "a")])
        assert g.edges == frozenset({("a", "b")})


class TestConnectedComponents:
    def test_figure_at_one_gives_four_pieces(self, figure16):
        comps = connected_components(strip_isolated(level_graph(figure16, 1)))
        assert sorted(len(c.vertices) for c in comps) == [2, 2, 2, 3]

    def test_sorted_by_size_then_vertex(self):
        g = make_graph({"a", "b", "c", "d", "e"}, [("d", "e"), ("a", "b"), ("b", "c")])
        comps = connected_components(g)
        assert [sorted(c.vertices) for c in comps] == [["d", "e"], ["a", "b", "c"]]


class TestCompleteMultipartite:
    def test_complete_bipartite(self):
        g = make_graph(
            {"a", "b", "x", "y", "z"},
            [(u, v) for u in ("a", "b") for v in ("x", "y", "z")],
        )
        assert complete_multipartite_parts(g) == [
            frozenset({"a", "b"}),
            frozenset({"x", "y", "z"}),
        ]

    def test_triangle_is_three_singletons(self):
        g = make_graph({"a", "b", "c"}, [("a", "b"), ("b", "c"), ("a", "c")])
        parts = complete_multipartite_parts(g)
        assert parts is not None and len(parts) == 3

    def test_three_path_is_a_star(self):
        g = make_graph({"a", "b", "c"}, [("a", "b"), ("b", "c")])
        assert complete_multipartite_parts(g) == [
            frozenset({"b"}),
            frozenset({"a", "c"}),
        ]

    def test_four_path_is_not_multipartite(self):
        g = make_graph({"a", "b", "c", "d"}, [("a", "b"), ("b", "c"), ("c", "d")])
        assert complete_multipartite_parts(g) is None

    def test_five_cycle_is_not_multipartite(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")]
        assert complete_multipartite_parts(make_graph("abcde", edges)) is None

    def test_single_part_returns_none(self):
        assert complete_multipartite_parts(make_graph({"a"}, [])) is None

    def test_empty_graph_rejected(self):
        with pytest.raises(FormatMismatch):
            complete_multipartite_parts(make_graph([], []))

    def test_agrees_with_partition_search(self):
        cases = [
            make_graph("ab", [("a", "b")]),
            make_graph("abc", [("a", "b"), ("b", "c")]),
            make_graph("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
            make_graph("abcd", [("a", "b"), ("c", "d")]),
            make_graph(
                "abcdef",
                [
                    (u, v)
                    for i, u in enumerate("abcdef")
                    for v in "abcdef"[i + 1 :]
                    if {u, v} not in ({"a", "b"}, {"c", "d"}, {"e", "f"})
                ],
            ),
        ]
        for g in cases:
            assert complete_multipartite_parts(g) == multipartite_parts_brute(
                g.vertices, g.edges
            )

    def test_level_components_agree_with_partition_search(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                for r in spectrum(space)[1:]:
                    stripped = strip_isolated(level_graph(space, r))
                    for comp in connected_components(stripped):
                        assert complete_multipartite_parts(
                            comp
                        ) == multipartite_parts_brute(comp.vertices, comp.edges)


class TestDecomposeLevelGraph:
    def test_figure_at_one(self, figure16):
        pieces = decompose_level_graph(figure16, 1)
        assert len(pieces) == 4
        part_shapes = sorted(sorted(len(p) for p in parts) for _, parts in pieces)
        assert part_shapes == [[1, 1], [1, 1], [1, 1], [1, 1, 1]]

    def test_matches_graph_components(self, figure16):
        for r in spectrum(figure16)[1:]:
            pieces = decompose_level_graph(figure16, r)
            comps = connected_components(strip_isolated(level_graph(figure16, r)))
            assert len(pieces) == len(comps)
            piece_parts = sorted(
                sorted(sorted(p) for p in parts) for _, parts in pieces
            )
            comp_parts = sorted(
                sorted(sorted(p) for p in complete_multipartite_parts(c))
                for c in comps
            )
            assert piece_parts == comp_parts

    def test_bad_radius(self, figure16):
        with pytest.raises(ZeroRadius):
            decompose_level_graph(figure16, 0)
        with pytest.raises(ValueNotInSpectrum):
            decompose_level_graph(figure16, 99)


class TestDiametricalGraph:
    def test_equals_multipartite_parts(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                g = level_graph(space, diameter(space))
                assert complete_multipartite_parts(g) == multipartite_parts(space)
