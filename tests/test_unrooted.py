from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ultraforest.canonical import canonical_code
from ultraforest.core import Space, rank_matrix, spectrum
from ultraforest.errors import (
    FormatMismatch,
    MissingLeafChild,
    NotUltrametricGenerating,
    UnknownVertex,
)
from ultraforest.gen import enumerate_spaces, random_unrooted
from ultraforest.tree import build_representing_tree, tree_to_space
from ultraforest.unrooted import (
    UnrootedTree,
    generates_ultrametric,
    has_leaf_child_everywhere,
    path_max_distance,
    space_from_unrooted,
    unrooted_from_representing,
)

from .conftest import FIGURE16_EDGES, FIGURE16_LABELS
from .oracles import path_max_distance_brute


@st.composite
def generating_trees(draw):
    """An unrooted tree of 1..14 vertices (a path, a star or a random
    shape, vertices listed in a drawn order) whose zero labels sit on an
    independent set."""
    n = draw(st.integers(min_value=1, max_value=14))
    shape = draw(st.sampled_from(("path", "star", "random")))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    labels = {}
    edges = []
    for i in range(n):
        q = Fraction(draw(st.sampled_from((0, 0, 1, 2, Fraction(5, 2), 3))))
        if i:
            p = i - 1 if shape == "path" else 0 if shape == "star" else draw(st.integers(0, i - 1))
            edges.append((f"v{p}", f"v{i}"))
            if q == 0 and labels[f"v{p}"] == 0:
                q = Fraction(1)
        labels[f"v{i}"] = q
    return UnrootedTree(names, edges, labels)


def _path3():
    return UnrootedTree(
        ["u", "v", "w"],
        [("u", "v"), ("v", "w")],
        {"u": Fraction(1), "v": Fraction(0), "w": Fraction(2)},
    )


class TestUnrootedTreeValidation:
    def test_rejects_loop(self):
        with pytest.raises(FormatMismatch):
            UnrootedTree(["a"], [("a", "a")], {"a": Fraction(1)})

    def test_rejects_stray_edge(self):
        with pytest.raises(FormatMismatch):
            UnrootedTree(["a", "b"], [("a", "z")], {"a": Fraction(1), "b": Fraction(1)})

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(FormatMismatch):
            UnrootedTree(["a", "a"], [], {"a": Fraction(1)})

    def test_rejects_missing_label(self):
        with pytest.raises(FormatMismatch):
            UnrootedTree(["a", "b"], [("a", "b")], {"a": Fraction(1)})

    def test_rejects_negative_label(self):
        with pytest.raises(FormatMismatch):
            UnrootedTree(["a", "b"], [("a", "b")], {"a": Fraction(1), "b": Fraction(-1)})

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(FormatMismatch):
            UnrootedTree(["a", "b", "c"], [("a", "b")], dict.fromkeys("abc", Fraction(1)))

    def test_rejects_cycle(self):
        with pytest.raises(FormatMismatch, match="tree is not connected"):
            UnrootedTree(
                ["a", "b", "c", "d"],
                [("a", "b"), ("b", "c"), ("c", "a")],
                dict.fromkeys("abcd", Fraction(1)),
            )


class TestPathMaxDistance:
    def test_three_vertex_path(self):
        t = _path3()
        assert path_max_distance(t, "u", "v") == 1
        assert path_max_distance(t, "u", "w") == 2
        assert path_max_distance(t, "v", "w") == 2
        assert path_max_distance(t, "v", "v") == 0

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            path_max_distance(_path3(), "u", "nope")

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=300))
    def test_agrees_with_dfs_oracle(self, n, seed):
        t = random_unrooted(n, seed)
        verts = t.vertices
        u, v = verts[seed % n], verts[(seed // n) % n]
        assert path_max_distance(t, u, v) == path_max_distance_brute(
            verts, t.edges, t.labels, u, v
        )


class TestGeneratesUltrametric:
    def test_adjacent_zeros_fail(self):
        t = UnrootedTree(
            ["a", "b"], [("a", "b")], {"a": Fraction(0), "b": Fraction(0)}
        )
        verdict = generates_ultrametric(t)
        assert not verdict and verdict.witness == ("a", "b")
        with pytest.raises(NotUltrametricGenerating):
            space_from_unrooted(t)

    def test_zero_on_independent_set_is_fine(self):
        assert generates_ultrametric(_path3())

    @given(st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=300))
    def test_random_unrooted_always_generates(self, n, seed):
        assert generates_ultrametric(random_unrooted(n, seed))


class TestSpaceFromUnrooted:
    def test_path3_space(self):
        space = space_from_unrooted(_path3())
        assert space.distance("u", "v") == 1
        assert space.distance("u", "w") == 2

    def test_figure(self, figure16_unrooted, figure16):
        assert space_from_unrooted(figure16_unrooted) == figure16

    def test_two_trees_one_space(self, figure16):
        """Re-hanging chains at other same-label vertices changes the tree
        but not the space it generates."""
        swaps = {("x2", "x3"): ("x1", "x3"), ("x7", "x14"): ("x5", "x14")}
        edges = [swaps.get(e, e) for e in FIGURE16_EDGES]
        alt = UnrootedTree(
            list(FIGURE16_LABELS),
            edges,
            {v: Fraction(l) for v, l in FIGURE16_LABELS.items()},
        )
        assert alt.edges != frozenset(
            tuple(sorted(e)) for e in FIGURE16_EDGES
        )
        assert space_from_unrooted(alt) == figure16

    def test_is_ultrametric(self):
        from ultraforest.core import validate_space

        for seed in range(30):
            space = space_from_unrooted(random_unrooted(2 + seed % 9, seed))
            assert validate_space(space.dist, space.points) == space

    @given(generating_trees())
    def test_one_walk_matches_the_brute_oracle(self, t):
        space = space_from_unrooted(t)
        pts = space.points
        assert pts == t.vertices
        for u in pts:
            for v in pts:
                brute = path_max_distance_brute(pts, t.edges, t.labels, u, v)
                assert space.distance(u, v) == brute
                assert path_max_distance(t, u, v) == brute
        fresh = Space(pts, space.dist)
        assert space._ranks == rank_matrix(fresh)
        assert space._spectrum == spectrum(fresh)


class TestLeafChildCriterion:
    def test_figure_has_leaf_children(self, figure16):
        assert has_leaf_child_everywhere(build_representing_tree(figure16))

    def test_perfect_binary_fails_at_root(self, perfect_binary4):
        tree = build_representing_tree(perfect_binary4)
        verdict = has_leaf_child_everywhere(tree)
        assert not verdict and verdict.witness == tree.root


class TestUnrootedFromRepresenting:
    def test_isosceles_becomes_a_chain(self, isosceles):
        t = unrooted_from_representing(build_representing_tree(isosceles))
        assert t.edges == frozenset({("a", "c"), ("a", "b")})
        assert t.labels == {"c": 2, "a": 1, "b": 1}

    def test_singleton(self, singleton):
        t = unrooted_from_representing(build_representing_tree(singleton))
        assert t.vertices == ("a",)
        assert space_from_unrooted(t) == singleton

    def test_rejected_without_leaf_child(self, perfect_binary4):
        with pytest.raises(MissingLeafChild):
            unrooted_from_representing(build_representing_tree(perfect_binary4))

    def test_figure_roundtrip(self, figure16):
        tree = build_representing_tree(figure16)
        again = space_from_unrooted(unrooted_from_representing(tree))
        assert again == figure16

    def test_roundtrip_on_all_eligible_enumerated(self):
        for n in range(2, 7):
            for space in enumerate_spaces(n):
                tree = build_representing_tree(space)
                if not has_leaf_child_everywhere(tree):
                    continue
                assert space_from_unrooted(unrooted_from_representing(tree)) == space

    @given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=300))
    def test_forward_then_back_on_random_unrooted(self, n, seed):
        """Any generated space is unrooted-generated, and converting again
        reproduces it."""
        space = space_from_unrooted(random_unrooted(n, seed))
        tree = build_representing_tree(space)
        assert has_leaf_child_everywhere(tree)
        again = space_from_unrooted(unrooted_from_representing(tree))
        assert again == space

    def test_result_depends_only_on_the_space(self, figure16):
        """Two isometric inputs produce identical unrooted output, thanks to
        canonical child ordering."""
        t1 = unrooted_from_representing(build_representing_tree(figure16))
        shuffled = figure16.points[::-1]
        idx = [figure16.index(p) for p in shuffled]
        from ultraforest.core import Space

        copy = Space(shuffled, [[figure16.dist[i][j] for j in idx] for i in idx])
        t2 = unrooted_from_representing(build_representing_tree(copy))
        assert t1.edges == t2.edges
        assert t1.labels == t2.labels

    def test_space_rebuilt_from_alt_tree_converts_to_same_unrooted(self, figure16):
        tree = build_representing_tree(figure16)
        code = canonical_code(tree)
        rebuilt = build_representing_tree(tree_to_space(tree))
        assert canonical_code(rebuilt) == code
