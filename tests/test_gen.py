import pytest
from hypothesis import given, strategies as st

from ultraforest.canonical import are_isometric, are_weakly_similar, canonical_code
from ultraforest.core import spectrum, validate_space
from ultraforest.errors import FormatMismatch
from ultraforest.gen import (
    enumerate_rank_trees,
    enumerate_shapes,
    enumerate_spaces,
    random_space,
    random_unrooted,
    shape_leaf_count,
)
from ultraforest.tree import build_representing_tree
from ultraforest.unrooted import generates_ultrametric, space_from_unrooted

from .oracles import all_small_ultrametrics, shape_count

SHAPE_COUNTS = [1, 1, 2, 5, 12, 33, 90, 261]  # OEIS A000669
SPACE_COUNTS = [1, 1, 2, 6, 20, 90, 468, 2910]


class TestShapes:
    def test_counts_match_recurrence(self):
        for n, expected in enumerate(SHAPE_COUNTS, start=1):
            shapes = enumerate_shapes(n)
            assert len(shapes) == expected
            assert shape_count(n) == expected
            assert all(shape_leaf_count(s) == n for s in shapes)

    def test_shapes_are_distinct_and_sorted(self):
        for n in range(1, 7):
            shapes = enumerate_shapes(n)
            assert len(set(shapes)) == len(shapes)
            assert list(shapes) == sorted(shapes)

    def test_no_unary_nodes(self):
        def check(shape):
            assert shape == () or len(shape) >= 2
            for child in shape:
                check(child)

        for n in range(1, 7):
            for shape in enumerate_shapes(n):
                check(shape)

    def test_zero_leaves_rejected(self):
        with pytest.raises(FormatMismatch):
            enumerate_shapes(0)


class TestEnumerateSpaces:
    def test_counts(self):
        for n, expected in enumerate(SPACE_COUNTS, start=1):
            assert len(enumerate_spaces(n)) == expected

    def test_representatives_are_valid(self):
        for n in range(1, 6):
            for space in enumerate_spaces(n):
                assert len(space) == n
                assert validate_space(space.dist, space.points) == space

    def test_pairwise_not_weakly_similar(self):
        for n in range(2, 6):
            reps = enumerate_spaces(n)
            codes = {
                canonical_code(build_representing_tree(s), "rank_labeled")
                for s in reps
            }
            assert len(codes) == len(reps)

    def test_labels_are_ranks(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                sp = spectrum(space)
                assert sp == tuple(range(len(sp)))

    def test_complete_up_to_weak_similarity(self):
        """Every small ultrametric matrix is weakly similar to exactly one
        enumerated representative."""
        for n in range(2, 5):
            reps = enumerate_spaces(n)
            for space in all_small_ultrametrics(n, (1, 2, 3)):
                matches = [r for r in reps if are_weakly_similar(space, r) is not None]
                assert len(matches) == 1

    def test_trees_match_spaces(self):
        for n in range(1, 6):
            trees = enumerate_rank_trees(n)
            spaces = enumerate_spaces(n)
            assert len(trees) == len(spaces)
            for tree, space in zip(trees, spaces):
                assert canonical_code(build_representing_tree(space)) == canonical_code(tree)


class TestRandomSpace:
    def test_deterministic(self):
        a = random_space(17, 42)
        b = random_space(17, 42)
        assert a == b and a.points == b.points and a.dist == b.dist

    def test_seeds_reach_several_similarity_classes(self):
        codes = {
            canonical_code(build_representing_tree(random_space(6, seed)), "rank_labeled")
            for seed in range(40)
        }
        assert len(codes) > 5

    def test_zero_points_rejected(self):
        with pytest.raises(FormatMismatch):
            random_space(0, 0)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2_000))
    def test_always_valid(self, n, seed):
        space = random_space(n, seed)
        assert len(space) == n
        assert validate_space(space.dist, space.points) == space

    def test_isometric_reps_do_repeat_labels(self):
        """The generator must produce spaces with repeated internal labels
        often, or the structure classes would never trigger."""
        repeats = 0
        for seed in range(30):
            tree = build_representing_tree(random_space(8, seed))
            labels = [tree.labels[v] for v in tree.internal_nodes()]
            if len(labels) != len(set(labels)):
                repeats += 1
        assert repeats > 5


class TestRandomUnrooted:
    def test_deterministic(self):
        a = random_unrooted(12, 5)
        b = random_unrooted(12, 5)
        assert a.vertices == b.vertices and a.edges == b.edges and a.labels == b.labels

    def test_zero_vertices_rejected(self):
        with pytest.raises(FormatMismatch):
            random_unrooted(0, 0)

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=1_000))
    def test_always_generates_an_ultrametric(self, n, seed):
        tree = random_unrooted(n, seed)
        assert generates_ultrametric(tree)
        space = space_from_unrooted(tree)
        assert len(space) == n

    def test_mixes_zero_labels(self):
        zeros = sum(
            1
            for seed in range(20)
            for v, l in random_unrooted(10, seed).labels.items()
            if l == 0
        )
        assert zeros > 0


class TestIsometryWithinEnumeration:
    def test_no_two_representatives_isometric(self):
        for n in range(2, 6):
            reps = enumerate_spaces(n)
            codes = {canonical_code(build_representing_tree(s)) for s in reps}
            assert len(codes) == len(reps)

    def test_distinct_sizes_never_isometric(self):
        assert not are_isometric(enumerate_spaces(3)[0], enumerate_spaces(4)[0])
