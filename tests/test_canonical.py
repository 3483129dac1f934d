from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ultraforest.canonical import (
    MODES,
    _subspace_rank_codes,
    are_isometric,
    are_weakly_similar,
    canonical_code,
    count_self_isometries,
    node_codes,
)
from ultraforest.core import Space, restrict, spectrum
from ultraforest.errors import FormatMismatch
from ultraforest.gen import enumerate_spaces, random_space
from ultraforest.tree import build_representing_tree

from .conftest import space_from_rows
from .oracles import count_isometries, find_isometry, find_weak_similarity


def _tree(space):
    return build_representing_tree(space)


class TestCanonicalCode:
    def test_labeled_isosceles(self, isosceles):
        assert canonical_code(_tree(isosceles), "labeled") == "2(0(),1(0(),0()))"

    def test_unlabeled_keeps_shape_only(self, isosceles, isosceles_scaled):
        assert canonical_code(_tree(isosceles), "unlabeled") == "(((),()),())"
        assert canonical_code(_tree(isosceles), "unlabeled") == canonical_code(
            _tree(isosceles_scaled), "unlabeled"
        )

    def test_rank_mode_forgets_scale(self, isosceles, isosceles_scaled):
        assert canonical_code(_tree(isosceles), "rank_labeled") == canonical_code(
            _tree(isosceles_scaled), "rank_labeled"
        )
        assert canonical_code(_tree(isosceles), "labeled") != canonical_code(
            _tree(isosceles_scaled), "labeled"
        )

    def test_unknown_mode(self, isosceles):
        with pytest.raises(FormatMismatch):
            canonical_code(_tree(isosceles), "prettified")

    def test_node_codes_parallel_to_nodes(self, figure16):
        tree = _tree(figure16)
        for mode in MODES:
            codes = node_codes(tree, mode)
            assert len(codes) == tree.n_nodes
            assert codes[tree.root] == canonical_code(tree, mode)

    def test_codes_separate_enumerated_spaces(self):
        codes = set()
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                codes.add(canonical_code(_tree(space), "labeled"))
        assert len(codes) == sum(len(enumerate_spaces(n)) for n in range(2, 6))


def _permuted_copy(space, seed):
    import random

    rng = random.Random(seed)
    order = list(range(len(space)))
    rng.shuffle(order)
    names = {p: f"y{i}" for i, p in enumerate(space.points)}
    pts = [names[space.points[i]] for i in order]
    dist = [[space.dist[i][j] for j in order] for i in order]
    return Space(pts, dist)


def _rebuilt_code(space, subset):
    return canonical_code(_tree(restrict(space, subset)), "rank_labeled")


class TestSubspaceRankCodes:
    def test_equals_the_rebuilt_subspace_on_every_small_subset(self):
        subsets = classes = 0
        for n in range(2, 7):
            for space in enumerate_spaces(n):
                classes += 1
                code = _subspace_rank_codes(_tree(space))
                for size in range(2, n + 1):
                    for subset in combinations(space.points, size):
                        subsets += 1
                        assert code(frozenset(subset)) == _rebuilt_code(space, subset)
        assert (subsets, classes) == (5725, 119)

    def test_whole_space_is_the_tree_code(self, figure16):
        code = _subspace_rank_codes(_tree(figure16))
        assert code(figure16.points) == canonical_code(_tree(figure16), "rank_labeled")

    def test_dropped_labels_are_reranked(self, isosceles):
        # {a, b} keeps only the label 1 of the tree 2(0(),1(0(),0()))
        code = _subspace_rank_codes(_tree(isosceles))
        assert code({"a", "b"}) == code({"a", "c"}) == "1(0(),0())"
        assert code({"a"}) == "0()"

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=300),
        st.data(),
    )
    def test_equals_the_rebuilt_subspace_on_random_spaces(self, n, seed, data):
        space = random_space(n, seed)
        code = _subspace_rank_codes(_tree(space))
        subset = data.draw(st.sets(st.sampled_from(space.points), min_size=2))
        assert code(subset) == _rebuilt_code(space, subset)


class TestIsometry:
    def test_permuted_copy_is_isometric(self, figure16):
        assert are_isometric(figure16, _permuted_copy(figure16, 7))

    def test_scaling_breaks_isometry(self, isosceles, isosceles_scaled):
        assert not are_isometric(isosceles, isosceles_scaled)

    def test_different_shapes(self, isosceles, equilateral):
        assert not are_isometric(isosceles, equilateral)

    def test_different_sizes(self, isosceles, two_points):
        assert not are_isometric(isosceles, two_points)

    def test_agrees_with_backtracking_on_enumerated_pairs(self):
        spaces = [s for n in range(2, 5) for s in enumerate_spaces(n)]
        for x, y in combinations(spaces, 2):
            assert are_isometric(x, y) == (find_isometry(x, y) is not None)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=400))
    def test_agrees_with_backtracking_on_random(self, n, seed):
        x = random_space(n, seed)
        y = _permuted_copy(x, seed + 1) if seed % 2 else random_space(n, seed + 1)
        assert are_isometric(x, y) == (find_isometry(x, y) is not None)


class TestWeakSimilarity:
    def test_scaling_map_is_forced(self, isosceles, isosceles_scaled):
        assert are_weakly_similar(isosceles, isosceles_scaled) == {0: 0, 1: 3, 2: 5}

    def test_isometric_pair_gets_identity_scaling(self, figure16):
        scaling = are_weakly_similar(figure16, _permuted_copy(figure16, 3))
        assert scaling == {v: v for v in spectrum(figure16)}

    def test_non_similar(self, isosceles, equilateral):
        assert are_weakly_similar(isosceles, equilateral) is None

    def test_equivalence_relation(self, isosceles, isosceles_scaled):
        third = space_from_rows([[0, 10, 70], [10, 0, 70], [70, 70, 0]], ["p", "q", "r"])
        ab = are_weakly_similar(isosceles, isosceles_scaled)
        bc = are_weakly_similar(isosceles_scaled, third)
        ac = are_weakly_similar(isosceles, third)
        assert ab and bc and ac
        assert {a: bc[b] for a, b in ab.items()} == ac  # transitivity
        back = are_weakly_similar(isosceles_scaled, isosceles)
        assert back == {b: a for a, b in ab.items()}  # symmetry

    def test_agrees_with_oracle_on_enumerated_pairs(self):
        spaces = [s for n in range(2, 5) for s in enumerate_spaces(n)]
        for x, y in combinations(spaces, 2):
            assert are_weakly_similar(x, y) == find_weak_similarity(x, y)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=300))
    def test_agrees_with_oracle_on_random(self, n, seed):
        x = random_space(n, seed)
        if seed % 3 == 0:
            y = random_space(n, seed + 1)
        else:
            factor = 2 if seed % 3 == 1 else 1
            y = _permuted_copy(
                Space(x.points, [[v * factor for v in row] for row in x.dist]), seed
            )
        assert are_weakly_similar(x, y) == find_weak_similarity(x, y)

    def test_isometric_implies_weakly_similar(self):
        for n in range(2, 5):
            for space in enumerate_spaces(n):
                copy = _permuted_copy(space, n)
                assert are_isometric(space, copy)
                assert are_weakly_similar(space, copy) is not None


class TestSelfIsometries:
    def test_examples(self, equilateral, isosceles, perfect_binary4, figure16):
        assert count_self_isometries(_tree(equilateral)) == 6
        assert count_self_isometries(_tree(isosceles)) == 2
        assert count_self_isometries(_tree(perfect_binary4)) == 8
        assert count_self_isometries(_tree(figure16)) == 6912

    def test_singleton(self, singleton):
        assert count_self_isometries(_tree(singleton)) == 1

    def test_agrees_with_brute_count_on_enumerated(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                assert count_self_isometries(_tree(space)) == count_isometries(space)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=200))
    def test_agrees_with_brute_count_on_random(self, n, seed):
        space = random_space(n, seed)
        assert count_self_isometries(_tree(space)) == count_isometries(space)
