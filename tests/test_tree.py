import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultraforest.canonical import canonical_code
from ultraforest.classify import CLASS_IDS, classify, membership
from ultraforest.core import Space, diameter, restrict, spectrum
from ultraforest.errors import (
    InvalidTree,
    LabelMonotonicityViolation,
    NotUltrametric,
    SingletonSpace,
    UltrametricError,
    UnknownNode,
)
from ultraforest.formats import tree_from_json_obj, tree_to_json_obj
from ultraforest.gen import enumerate_rank_trees, enumerate_spaces, random_space, random_unrooted
from ultraforest.tree import (
    RootedTree,
    ballean,
    build_representing_tree,
    height,
    max_out_degree,
    multipartite_parts,
    node_info,
    tree_to_space,
)
from ultraforest.unrooted import space_from_unrooted

from .conftest import build_uniform_tree, space_from_rows
from .oracles import all_balls, bucket_merge_tree, recursive_tree_code


class TestRootedTreeValidation:
    def test_leaf_needs_zero_label(self):
        with pytest.raises(InvalidTree):
            RootedTree([Fraction(1)], [()], ["a"])

    def test_leaf_needs_point_id(self):
        with pytest.raises(InvalidTree):
            RootedTree([Fraction(0)], [()], [None])

    def test_internal_out_degree_at_least_two(self):
        with pytest.raises(InvalidTree):
            RootedTree(
                [Fraction(1), Fraction(0)], [(1,), ()], [None, "a"], root=0
            )

    def test_internal_must_not_carry_point(self):
        with pytest.raises(InvalidTree):
            RootedTree(
                [Fraction(1), Fraction(0), Fraction(0)],
                [(1, 2), (), ()],
                ["oops", "a", "b"],
                root=0,
            )

    def test_labels_strictly_decrease(self):
        with pytest.raises(LabelMonotonicityViolation):
            RootedTree(
                [Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
                [(1, 4), (2, 3), (), (), ()],
                [None, None, "a", "b", "c"],
                root=0,
            )

    def test_duplicate_point_ids(self):
        with pytest.raises(InvalidTree):
            RootedTree(
                [Fraction(1), Fraction(0), Fraction(0)],
                [(1, 2), (), ()],
                [None, "a", "a"],
                root=0,
            )

    def test_node_referenced_twice(self):
        with pytest.raises(InvalidTree):
            RootedTree(
                [Fraction(1), Fraction(0)], [(1, 1), ()], [None, "a"], root=0
            )

    def test_unreachable_node(self):
        with pytest.raises(InvalidTree):
            RootedTree(
                [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
                [(1, 2), (), (), ()],
                [None, "a", "b", "c"],
                root=0,
            )

    def test_unknown_root(self):
        with pytest.raises(UnknownNode):
            RootedTree([Fraction(0)], [()], ["a"], root=5)

    def test_child_order_is_normalized(self):
        a = RootedTree(
            [Fraction(2), Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
            [(1, 2), (), (3, 4), (), ()],
            [None, "c", None, "a", "b"],
            root=0,
        )
        b = RootedTree(
            [Fraction(2), Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
            [(1, 4), (2, 3), (), (), ()],
            [None, None, "a", "b", "c"],
            root=0,
        )
        assert canonical_code(a) == canonical_code(b)
        assert [a.labels[v] for v in a.preorder()] == [b.labels[v] for v in b.preorder()]
        assert a.leaf_points() == b.leaf_points()

        for n in range(1, 7):
            for space in enumerate_spaces(n):
                tree = build_representing_tree(space)
                order = tree.preorder()
                assert order[0] == tree.root
                assert sorted(order) == list(range(tree.n_nodes))
                done = set()
                for v in reversed(order):
                    assert done.issuperset(tree.children[v])
                    done.add(v)
                assert tree.parent(tree.root) == -1 and tree.level(tree.root) == 0
                for v in order:
                    for c in tree.children[v]:
                        assert tree.parent(c) == v
                        assert tree.level(c) == tree.level(v) + 1
                    if tree.is_leaf(v):
                        assert tree.leaf_set(v) == {tree.points[v]}
                    else:
                        assert tree.leaf_set(v) == frozenset().union(
                            *(tree.leaf_set(c) for c in tree.children[v])
                        )


class TestBuildRepresentingTree:
    def test_isosceles_structure(self, isosceles):
        tree = build_representing_tree(isosceles)
        assert canonical_code(tree) == "2(0(),1(0(),0()))"
        assert tree.labels[tree.root] == diameter(isosceles)
        assert sorted(tree.leaf_points()) == ["a", "b", "c"]

    def test_two_point(self, two_points):
        tree = build_representing_tree(two_points)
        assert canonical_code(tree) == "1(0(),0())"

    def test_singleton(self, singleton):
        tree = build_representing_tree(singleton)
        assert tree.n_nodes == 1
        assert canonical_code(tree) == "0()"

    def test_equilateral_is_one_node_over_three_leaves(self, equilateral):
        tree = build_representing_tree(equilateral)
        assert tree.n_nodes == 4
        assert tree.out_degree(tree.root) == 3

    def test_unvalidated_non_ultrametric_raises_domain_error(self):
        # Space() skips validation; d(a,c) = 2 exceeds the chain a-b-c at 1
        space = Space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(NotUltrametric) as info:
            build_representing_tree(space)
        assert isinstance(info.value, UltrametricError)
        assert (info.value.x, info.value.y) == ("a", "c")

    def test_non_ultrametric_pair_inside_a_larger_merge_is_caught(self):
        # at value 2 the cluster {a,b,c} also merges with d, yet d(a,c) = 2
        # still exceeds the chain a-b-c at 1
        rows = [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 2], [2, 2, 2, 0]]
        with pytest.raises(NotUltrametric):
            build_representing_tree(Space(["a", "b", "c", "d"], rows))

    def test_figure16_roundtrip(self, figure16, figure16_tree):
        rebuilt = build_representing_tree(figure16)
        assert canonical_code(rebuilt) == canonical_code(figure16_tree)

    def test_agrees_with_recursive_construction_on_enumerated(self):
        for n in range(1, 6):
            for space in enumerate_spaces(n):
                tree = build_representing_tree(space)
                assert canonical_code(tree) == recursive_tree_code(space)

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=5_000))
    def test_agrees_with_recursive_construction_on_random(self, n, seed):
        space = random_space(n, seed)
        assert canonical_code(build_representing_tree(space)) == recursive_tree_code(space)


class TestTreeKeptOnSpace:
    def test_built_once(self, figure16):
        assert build_representing_tree(figure16) is build_representing_tree(figure16)

    def test_classify_and_membership_reuse_the_tree(self, monkeypatch):
        generated = random_space(6, 3)
        space = Space(generated.points, generated.dist)
        built = []
        init = RootedTree.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RootedTree, "__init__", counting)
        tree = build_representing_tree(space)
        classify(space)
        for cid in CLASS_IDS:
            membership(cid, space)
        assert built == [tree]

    def test_failed_build_keeps_nothing(self):
        space = Space(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        for _ in range(2):
            with pytest.raises(NotUltrametric):
                build_representing_tree(space)
        assert space._tree is None

    def test_restrict_does_not_pass_the_tree_on(self, figure16):
        build_representing_tree(figure16)
        sub = restrict(figure16, figure16.points[:5])
        assert sub._tree is None
        assert sorted(build_representing_tree(sub).leaf_points()) == sorted(figure16.points[:5])


def _outcome(build, space):
    """A tree as its parallel arrays and label types, or an exception as
    its class and message."""
    try:
        t = build(space)
    except Exception as exc:
        return type(exc), str(exc)
    return t.labels, tuple(map(type, t.labels)), t.children, t.points, t.root


def _assert_bucket_merge_tree(space):
    assert _outcome(build_representing_tree, space) == _outcome(bucket_merge_tree, space)


_ENTRIES = [-1, 0, 1, 2, 3] + [Fraction(v) for v in (-1, 0, "1/2", 1, 2, "5/2")]


@st.composite
def unvalidated_matrices(draw):
    """Small matrices as Space() takes them unchecked: int and Fraction
    entries mixed, zero or negative off the diagonal, not always ultrametric;
    often symmetric with a zero diagonal, so trees come out as well."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from(_ENTRIES)
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    return m


class TestAgainstBucketMerge:
    """The Prim-order build makes the bucket merge's tree node for node:
    labels and their types, children, points, root and so every node id."""

    def test_enumerated_spaces(self):
        for n in range(1, 9):
            for space in enumerate_spaces(n):
                _assert_bucket_merge_tree(space)

    def test_one_point_deletions_on_sliced_ranks(self):
        for n in range(2, 8):
            for space in enumerate_spaces(n):
                space = Space(space.points, space.dist)
                build_representing_tree(space)
                for x in space.points:
                    sub = restrict(space, set(space.points) - {x})
                    assert sub._ranks is not None
                    _assert_bucket_merge_tree(sub)

    def test_random_spaces(self):
        for n in list(range(1, 41)) + [100, 200]:
            for seed in range(3):
                _assert_bucket_merge_tree(random_space(n, seed))
                _assert_bucket_merge_tree(space_from_unrooted(random_unrooted(n, seed)))

    def test_caterpillar_and_star(self):
        for n in (2, 3, 50, 200):
            pts = [f"x{i}" for i in range(n)]
            values = [Fraction(k) for k in range(n)]
            caterpillar = [[values[max(i, j)] if i != j else values[0] for j in range(n)] for i in range(n)]
            star = [[values[min(1, abs(i - j))] for j in range(n)] for i in range(n)]
            _assert_bucket_merge_tree(Space(pts, caterpillar))
            _assert_bucket_merge_tree(Space(pts, star))

    @settings(max_examples=500)
    @given(unvalidated_matrices())
    def test_unvalidated_matrices(self, m):
        _assert_bucket_merge_tree(Space([f"p{i}" for i in range(len(m))], m))


def _preorder_walk(tree):
    order, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(tree.children[v]))
    return order


def _shuffled(obj, rng):
    """Tree JSON with every child list in a random order."""
    if "children" not in obj:
        return obj
    kids = [_shuffled(c, rng) for c in obj["children"]]
    rng.shuffle(kids)
    return {"label": obj["label"], "children": kids}


def _assert_keeps_its_tree(space):
    """The tree a space keeps is, node for node, the build from its matrix."""
    assert space._tree is not None
    fresh = Space(space.points, space.dist)
    assert _outcome(lambda s: s._tree, space) == _outcome(build_representing_tree, fresh)


class TestCanonicalIds:
    """Node v is the v-th node of the canonical preorder, whatever built
    the tree and however its input was numbered."""

    def test_ids_are_preorder_positions(self, figure16_tree):
        generated = random_space(30, 1)
        trees = [
            figure16_tree,
            *enumerate_rank_trees(5),
            build_representing_tree(Space(generated.points, generated.dist)),
            bucket_merge_tree(random_space(20, 2)),
            build_representing_tree(space_from_unrooted(random_unrooted(25, 3))),
        ]
        for tree in trees:
            assert tree.root == 0
            assert _preorder_walk(tree) == list(tree.preorder()) == list(range(tree.n_nodes))

    def test_errors_name_canonical_ids(self):
        # one tree numbered two ways, its root label negative
        for labels, children, points, root in (
            ([Fraction(0), Fraction(0), Fraction(-1)], [(), (), (0, 1)], ["a", "b", None], 2),
            ([Fraction(-1), Fraction(0), Fraction(0)], [(2, 1), (), ()], [None, "b", "a"], 0),
        ):
            with pytest.raises(InvalidTree, match="internal node 0 needs a positive label"):
                RootedTree(labels, children, points, root=root)


class TestKeptTree:
    """A space made from a tree keeps it, and it is the tree its matrix builds."""

    def test_enumerated_spaces(self):
        for n in range(1, 9):
            for space in enumerate_spaces(n):
                _assert_keeps_its_tree(space)

    def test_random_spaces(self):
        for n in list(range(1, 41)) + [100, 200]:
            for seed in range(3):
                _assert_keeps_its_tree(random_space(n, seed))

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
    def test_trees_parsed_from_json(self, n, seed):
        original = random_space(n, seed)._tree
        tree = tree_from_json_obj(_shuffled(tree_to_json_obj(original), random.Random(seed)))
        # the input's child order and numbering do not reach the ids
        assert (tree.labels, tree.children, tree.points) == (original.labels, original.children, original.points)
        space = tree_to_space(tree)
        assert space._tree is tree
        _assert_keeps_its_tree(space)


class TestTreeToSpace:
    def test_figure16_distances(self, figure16):
        assert figure16.distance("x8", "x9") == 1
        assert figure16.distance("x3", "x5") == 4
        assert figure16.distance("x5", "x14") == 2
        assert figure16.distance("x3", "x8") == 3
        assert figure16.distance("x1", "x16") == 4

    def test_roundtrip_from_space(self, figure16):
        assert tree_to_space(build_representing_tree(figure16)) == figure16

    def test_roundtrip_from_tree_on_enumerated(self):
        for n in range(1, 6):
            for tree in enumerate_rank_trees(n):
                rebuilt = build_representing_tree(tree_to_space(tree))
                assert canonical_code(rebuilt) == canonical_code(tree)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=5_000))
    def test_roundtrip_on_random(self, n, seed):
        space = random_space(n, seed)
        assert tree_to_space(build_representing_tree(space)) == space


class TestMultipartiteParts:
    def test_isosceles(self, isosceles):
        assert multipartite_parts(isosceles) == [
            frozenset({"c"}),
            frozenset({"a", "b"}),
        ]

    def test_equilateral(self, equilateral):
        assert multipartite_parts(equilateral) == [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]

    def test_singleton_rejected(self, singleton):
        with pytest.raises(SingletonSpace):
            multipartite_parts(singleton)

    def test_parts_sit_at_diameter(self, figure16):
        parts = multipartite_parts(figure16)
        diam = diameter(figure16)
        for i, p in enumerate(parts):
            for q in parts[i + 1 :]:
                assert all(figure16.distance(x, y) == diam for x in p for y in q)


class TestBallean:
    def test_perfect_binary_has_seven_balls(self, perfect_binary4):
        tree = build_representing_tree(perfect_binary4)
        balls = ballean(tree)
        assert len(balls) == 7
        assert set(balls) == {
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
            frozenset({"d"}),
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
            frozenset({"a", "b", "c", "d"}),
        }

    def test_isosceles_has_five_balls(self, isosceles):
        assert len(ballean(build_representing_tree(isosceles))) == 5

    def test_matches_matrix_side_oracle(self, figure16, homogeneous24):
        for space in (figure16, homogeneous24):
            tree = build_representing_tree(space)
            assert set(ballean(tree)) == all_balls(space)
            assert len(ballean(tree)) == tree.n_nodes

    def test_matches_oracle_on_enumerated(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                assert set(ballean(build_representing_tree(space))) == all_balls(space)


class TestNodeInfo:
    def test_homogeneous_figure(self, homogeneous24):
        tree = build_representing_tree(homogeneous24)
        assert height(tree) == 3
        assert max_out_degree(tree) == 4
        info = node_info(tree, tree.root)
        assert info.level == 0
        assert info.out_degree == 4
        assert len(info.leaf_set) == 24
        assert spectrum(homogeneous24) == (0, 1, 2, 3)

    def test_perfect_figure(self, perfect27):
        tree = build_representing_tree(perfect27)
        assert len(tree.leaves()) == 27
        assert height(tree) == 3
        assert {tree.out_degree(v) for v in tree.internal_nodes()} == {3}

    def test_figure16(self, figure16):
        tree = build_representing_tree(figure16)
        assert height(tree) == 3
        assert max_out_degree(tree) == 5

    def test_unknown_node(self, isosceles):
        tree = build_representing_tree(isosceles)
        with pytest.raises(UnknownNode):
            node_info(tree, 99)


class TestBallCountBounds:
    @staticmethod
    def _bounds_hold(space):
        tree = build_representing_tree(space)
        n = len(space)
        balls = tree.n_nodes
        delta = Fraction(max_out_degree(tree))
        bound1 = (delta * n - 1) / (delta - 1)
        degrees = {tree.out_degree(v) for v in tree.internal_nodes()}
        strictly_delta = degrees == {int(delta)}
        assert Fraction(balls) >= bound1
        assert (Fraction(balls) == bound1) == strictly_delta
        labels = [tree.labels[v] for v in tree.internal_nodes()]
        injective = len(labels) == len(set(labels))
        bound2 = len(spectrum(space)) + (2 * delta * n - delta - n) / (delta - 1)
        assert Fraction(2 * balls) >= bound2
        assert (Fraction(2 * balls) == bound2) == (strictly_delta and injective)

    def test_equilateral_attains_first_bound(self, equilateral):
        self._bounds_hold(equilateral)
        tree = build_representing_tree(equilateral)
        assert tree.n_nodes == 4  # (3*3 - 1) / (3 - 1)

    def test_perfect_binary_attains_first_bound_only(self, perfect_binary4):
        tree = build_representing_tree(perfect_binary4)
        assert tree.n_nodes == 7  # (2*4 - 1) / (2 - 1)
        # second bound strict: labels are not injective
        assert 2 * 7 > len(spectrum(perfect_binary4)) + (2 * 2 * 4 - 2 - 4)
        self._bounds_hold(perfect_binary4)

    def test_bounds_on_enumerated(self):
        for n in range(2, 7):
            for space in enumerate_spaces(n):
                self._bounds_hold(space)


class TestBallsArePreserved:
    def test_every_ball_is_a_subspace_ball_union(self, figure16):
        """Balls of a subspace are traces of balls of the whole space."""
        sub = restrict(figure16, {"x1", "x3", "x8", "x9", "x14", "x15"})
        sub_balls = all_balls(sub)
        whole = all_balls(figure16)
        for b in sub_balls:
            assert any(b == (w & frozenset(sub.points)) for w in whole)
