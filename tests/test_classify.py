import importlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ultraforest.classify import (
    CLASS_IDS,
    audit_equivalences,
    ball_count_formula_holds,
    ball_preserving_structure,
    brute_force_ballean,
    classify,
    equidistant_partition,
    hamilton_oracle_strictly_binary,
    has_injective_internal_labels,
    has_inner_chain,
    has_inner_chain_equal_tail,
    homogeneous_oracle,
    is_gomory_hu_extremal,
    is_homogeneous,
    is_rigid,
    is_shape_spectrum_determined,
    is_strictly_binary,
    is_strictly_nary,
    labels_same_level,
    leaves_same_level,
    level_graphs_cover_all_points,
    membership,
    no_equilateral_triangle,
    perfect_level_graph_oracle,
    perfect_nary_arity,
    point_spectra_all_equal,
    point_spectra_are_suffixes,
    point_spectra_sizes_equal,
    shape_spectrum_guarantee,
    shape_spectrum_injective_criterion,
    shape_spectrum_oracle,
    strict_arity,
)
from ultraforest.core import Space
from ultraforest.errors import (
    FormatMismatch,
    SingletonSpace,
    SingularBall,
    TooLarge,
    UnknownClass,
)
from ultraforest.gen import enumerate_spaces, random_space
from ultraforest.tree import RootedTree, build_representing_tree, tree_to_space

from .conftest import build_uniform_tree, space_from_rows
from .oracles import all_balls


def _tree(space):
    return build_representing_tree(space)


def _chain_space(labels):
    """Tree that is a single internal chain with the given labels."""
    rows = None
    space = None
    for l in reversed(labels):
        if space is None:
            space = space_from_rows([[0, l], [l, 0]], ["p0", "p1"])
        else:
            k = len(space)
            dist = [list(row) + [Fraction(l)] for row in space.dist]
            dist.append([Fraction(l)] * k + [Fraction(0)])
            space = Space(list(space.points) + [f"p{k}"], dist)
    return space


class TestGomoryHuExtremal:
    def test_isosceles_attains_the_bound(self, isosceles):
        verdict = is_gomory_hu_extremal(isosceles)
        assert verdict and verdict.witness == {"points": 3, "spectrum_size": 3}

    def test_equilateral_does_not(self, equilateral):
        assert not is_gomory_hu_extremal(equilateral)

    def test_singleton_rejected(self, singleton):
        with pytest.raises(SingletonSpace):
            is_gomory_hu_extremal(singleton)


class TestTreePredicates:
    def test_injective_labels(self, isosceles, perfect_binary4):
        assert has_injective_internal_labels(_tree(isosceles))
        verdict = has_injective_internal_labels(_tree(perfect_binary4))
        assert not verdict and verdict.witness["label"] == 1

    def test_strictly_binary(self, isosceles, equilateral):
        assert is_strictly_binary(_tree(isosceles))
        verdict = is_strictly_binary(_tree(equilateral))
        assert not verdict and verdict.witness["out_degree"] == 3

    def test_strict_arity(self, equilateral, perfect_binary4, figure16):
        assert strict_arity(_tree(equilateral)) == 3
        assert strict_arity(_tree(perfect_binary4)) == 2
        assert strict_arity(_tree(figure16)) is None

    def test_strictly_nary(self, equilateral):
        assert is_strictly_nary(_tree(equilateral), 3)
        assert not is_strictly_nary(_tree(equilateral), 4)
        with pytest.raises(FormatMismatch):
            is_strictly_nary(_tree(equilateral), 1)

    def test_inner_chain(self, isosceles, perfect_binary4):
        assert has_inner_chain(_tree(isosceles))
        verdict = has_inner_chain(_tree(perfect_binary4))
        assert not verdict and verdict.witness == {"level": 1, "internal_nodes": 2}

    def test_inner_chain_equal_tail(self, perfect_binary4):
        assert has_inner_chain_equal_tail(_tree(perfect_binary4))
        uneven = tree_to_space(
            RootedTree(
                [Fraction(0)] * 5 + [Fraction(1), Fraction(1), Fraction(2)],
                [(), (), (), (), (), (0, 1), (2, 3, 4), (5, 6)],
                ["a", "b", "c", "d", "e", None, None, None],
                root=7,
            )
        )
        verdict = has_inner_chain_equal_tail(_tree(uneven))
        assert not verdict and verdict.witness["out_degrees"] == [2, 3]

    def test_rigid(self, isosceles, perfect_binary4, equilateral):
        assert is_rigid(_tree(isosceles))
        assert not is_rigid(_tree(perfect_binary4))
        assert not is_rigid(_tree(equilateral))

    def test_rigid_chain_spaces(self):
        assert is_rigid(_tree(_chain_space([3, 2, 1])))

    def test_leaves_same_level(self, equilateral, perfect_binary4, isosceles):
        assert leaves_same_level(_tree(equilateral))
        assert leaves_same_level(_tree(perfect_binary4))
        verdict = leaves_same_level(_tree(isosceles))
        assert not verdict and set(verdict.witness["leaf_levels"]) == {1, 2}

    def test_labels_same_level(self, perfect_binary4, figure16):
        assert labels_same_level(_tree(perfect_binary4))
        verdict = labels_same_level(_tree(figure16))
        assert not verdict and verdict.witness["labels"] == [2, 3]

    def test_homogeneous(self, homogeneous24, equilateral, isosceles, figure16):
        assert is_homogeneous(_tree(homogeneous24))
        assert is_homogeneous(_tree(equilateral))
        assert not is_homogeneous(_tree(isosceles))
        assert not is_homogeneous(_tree(figure16))

    def test_perfect_nary_arity(self, perfect27, perfect_binary4, equilateral, isosceles):
        assert perfect_nary_arity(_tree(perfect27)) == 3
        assert perfect_nary_arity(_tree(perfect_binary4)) == 2
        assert perfect_nary_arity(_tree(equilateral)) == 3
        assert perfect_nary_arity(_tree(isosceles)) is None

    def test_ball_preserving(self, isosceles, perfect_binary4):
        assert ball_preserving_structure(_tree(isosceles)).witness == {
            "branch": "leaf_child_everywhere"
        }
        assert ball_preserving_structure(_tree(perfect_binary4)).witness == {
            "branch": "root_only_double_internal"
        }
        pb8 = tree_to_space(build_uniform_tree((2, 2, 2), (3, 2, 1)))
        assert not ball_preserving_structure(_tree(pb8))


class TestMatrixOracles:
    def test_no_equilateral_triangle(self, isosceles, equilateral, figure16):
        assert no_equilateral_triangle(isosceles)
        assert not no_equilateral_triangle(equilateral)
        assert not no_equilateral_triangle(figure16)

    def test_hamilton_oracle(self, isosceles, equilateral, two_points):
        assert hamilton_oracle_strictly_binary(isosceles)
        assert not hamilton_oracle_strictly_binary(equilateral)
        assert hamilton_oracle_strictly_binary(two_points)  # vacuous

    def test_hamilton_oracle_size_cutoff(self):
        with pytest.raises(TooLarge):
            hamilton_oracle_strictly_binary(random_space(8, 0))

    def test_hamilton_matches_binary_structure(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                assert hamilton_oracle_strictly_binary(space) == bool(
                    is_strictly_binary(_tree(space))
                )

    def test_ballean_matches_tree(self, figure16):
        assert brute_force_ballean(figure16) == all_balls(figure16)

    def test_ball_count_formula(self, equilateral, perfect_binary4):
        assert ball_count_formula_holds(_tree(equilateral), 3)  # 2*4+1 = 9 = 3*3
        assert not ball_count_formula_holds(_tree(equilateral), 2)
        assert ball_count_formula_holds(_tree(perfect_binary4), 2)

    def test_equidistant_partition(self, figure16):
        tree = _tree(figure16)
        parts = equidistant_partition(figure16, frozenset({"x8", "x9"}), tree)
        assert sorted(sorted(p) for p in parts) == [["x8"], ["x9"]]
        whole = equidistant_partition(figure16, frozenset(figure16.points), tree)
        assert sorted(len(p) for p in whole) == [1, 1, 6, 8]

    def test_equidistant_partition_without_tree(self, isosceles):
        parts = equidistant_partition(isosceles, frozenset({"a", "b", "c"}))
        assert sorted(sorted(p) for p in parts) == [["a", "b"], ["c"]]

    def test_equidistant_partition_errors(self, figure16):
        tree = _tree(figure16)
        with pytest.raises(SingularBall):
            equidistant_partition(figure16, frozenset({"x8"}), tree)
        with pytest.raises(FormatMismatch):
            equidistant_partition(figure16, frozenset({"x8", "x3"}), tree)

    def test_perfect_level_graph_oracle(self, perfect27, perfect_binary4, isosceles):
        assert perfect_level_graph_oracle(perfect27) == 3
        assert perfect_level_graph_oracle(perfect_binary4) == 2
        assert perfect_level_graph_oracle(isosceles) is None

    def test_point_spectra_helpers(self, homogeneous24, figure16, perfect_binary4):
        assert point_spectra_all_equal(homogeneous24)
        assert point_spectra_sizes_equal(homogeneous24)
        assert point_spectra_are_suffixes(homogeneous24)
        assert not point_spectra_sizes_equal(figure16)
        assert point_spectra_are_suffixes(perfect_binary4)

    def test_level_graphs_cover_all_points(self, homogeneous24, figure16):
        assert level_graphs_cover_all_points(homogeneous24)
        assert not level_graphs_cover_all_points(figure16)

    def test_homogeneous_oracle(self, homogeneous24, equilateral, isosceles):
        assert homogeneous_oracle(homogeneous24)
        assert homogeneous_oracle(equilateral)
        assert not homogeneous_oracle(isosceles)


def _two_tails_space(sizes, tail_labels, root_label=3):
    labels, children, points = [], [], []
    kids = []
    count = 0
    for size, lab in zip(sizes, tail_labels):
        leaf_ids = []
        for _ in range(size):
            count += 1
            labels.append(Fraction(0))
            children.append(())
            points.append(f"p{count}")
            leaf_ids.append(len(labels) - 1)
        labels.append(Fraction(lab))
        children.append(tuple(leaf_ids))
        points.append(None)
        kids.append(len(labels) - 1)
    labels.append(Fraction(root_label))
    children.append(tuple(kids))
    points.append(None)
    return tree_to_space(RootedTree(labels, children, points, root=len(labels) - 1))


class TestShapeSpectrum:
    def test_balanced_tails_are_determined(self):
        space = _two_tails_space((3, 3), (2, 1))
        assert shape_spectrum_oracle(space)
        verdict = is_shape_spectrum_determined(space)
        assert verdict and verdict.witness == {"basis": "oracle", "exact": True}

    def test_unbalanced_tails_are_not(self):
        space = _two_tails_space((3, 2), (2, 1))
        assert not shape_spectrum_oracle(space)
        assert not is_shape_spectrum_determined(space)

    def test_guarantee_and_criterion_on_examples(self, perfect_binary4, isosceles):
        assert shape_spectrum_guarantee(_tree(perfect_binary4))
        assert shape_spectrum_guarantee(_tree(isosceles))
        assert shape_spectrum_injective_criterion(_tree(perfect_binary4))
        space = _two_tails_space((3, 2), (2, 1))
        assert not shape_spectrum_injective_criterion(_tree(space))

    def test_three_tails_fail_the_guarantee(self):
        space = _two_tails_space((2, 2, 2), (2, 2, 2), root_label=3)
        tree = _tree(space)
        verdict = shape_spectrum_guarantee(tree)
        assert not verdict and verdict.witness == {"level": 1, "internal_nodes": 3}
        # but with equal labels the space is still spectrum-determined
        assert shape_spectrum_oracle(space)

    def test_oracle_cutoff(self):
        space = tree_to_space(build_uniform_tree((2, 2, 2), (3, 2, 1)))
        with pytest.raises(TooLarge):
            shape_spectrum_oracle(space)  # 7 internal nodes

    def test_fallback_bases_beyond_cutoff(self):
        chain = _chain_space([8, 7, 6, 5, 4, 3, 2, 1])
        verdict = is_shape_spectrum_determined(chain)
        assert verdict and verdict.witness["basis"] == "injective_labels"
        pb16 = tree_to_space(build_uniform_tree((2, 2, 2, 2), (4, 3, 2, 1)))
        verdict = is_shape_spectrum_determined(pb16)
        assert not verdict
        assert verdict.witness == {
            "basis": "shape_guarantee",
            "exact": False,
            "detail": {"level": 1, "internal_nodes": 2},
        }

    def test_criterion_matches_oracle_on_injective_enumerated(self):
        for n in range(2, 7):
            for space in enumerate_spaces(n):
                tree = _tree(space)
                if not has_injective_internal_labels(tree):
                    continue
                assert bool(shape_spectrum_injective_criterion(tree)) == (
                    shape_spectrum_oracle(space, tree)
                )


class TestMembershipAndClassify:
    def test_unknown_class(self, isosceles):
        with pytest.raises(UnknownClass):
            membership("nonsense", isosceles)

    def test_membership_vector_for_equilateral(self, equilateral):
        expected_true = {
            "strictly_nary",
            "inner_chain",
            "inner_chain_equal_tail",
            "shape_spectrum_determined",
            "homogeneous",
            "leaves_same_level",
            "labels_same_level",
            "perfect_nary",
            "unrooted_generated",
            "injective_labels",
        }
        for cid in CLASS_IDS:
            assert membership(cid, equilateral) == (cid in expected_true), cid

    def test_membership_vector_for_isosceles(self, isosceles):
        expected_true = {
            "gomory_hu_extremal",
            "injective_labels",
            "strictly_binary",
            "rigid",
            "inner_chain",
            "inner_chain_equal_tail",
            "shape_spectrum_determined",
            "labels_same_level",
            "ball_preserving",
            "unrooted_generated",
        }
        for cid in CLASS_IDS:
            assert membership(cid, isosceles) == (cid in expected_true), cid

    def test_membership_too_large_only_when_undecidable(self):
        pb16 = tree_to_space(build_uniform_tree((2, 2, 2, 2), (4, 3, 2, 1)))
        with pytest.raises(TooLarge):
            membership("shape_spectrum_determined", pb16)
        chain = _chain_space([8, 7, 6, 5, 4, 3, 2, 1])
        assert membership("shape_spectrum_determined", chain)

    def test_classify_report(self, figure16):
        report = classify(figure16)
        assert report.points == 16
        assert report.spectrum == (0, 1, 2, 3, 4)
        assert set(report.classes) == set(CLASS_IDS)
        members = {cid for cid, v in report.classes.items() if v.member}
        assert members == {"unrooted_generated"}
        assert report.extras["height"] == 3
        assert report.extras["max_out_degree"] == 5
        assert report.extras["self_isometries"] == 6912
        assert report.extras["ball_count"] == 23
        assert report.extras["level_graphs_cover_all_points"] is False

    def test_classify_certificates_are_dicts(self, perfect_binary4):
        report = classify(perfect_binary4)
        for verdict in report.classes.values():
            assert isinstance(verdict.certificate, dict)
        assert report.classes["perfect_nary"].certificate == {"arity": 2}
        assert report.classes["strictly_nary"].certificate == {"arity": 2}
        assert not report.classes["strictly_nary"].member

    def test_classify_singleton_rejected(self, singleton):
        with pytest.raises(SingletonSpace):
            classify(singleton)

    def test_catalog_calls_predicates_by_module_name(self, monkeypatch, perfect_binary4):
        """Rebinding a predicate in the module (as timing wrappers do)
        reaches classify and membership."""
        # the package's ``classify`` attribute is the function, not the module
        module = importlib.import_module("ultraforest.classify")
        names = (
            "is_gomory_hu_extremal",
            "has_injective_internal_labels",
            "is_strictly_binary",
            "strict_arity",
            "is_rigid",
            "has_inner_chain",
            "has_inner_chain_equal_tail",
            "is_shape_spectrum_determined",
            "is_homogeneous",
            "leaves_same_level",
            "labels_same_level",
            "perfect_nary_arity",
            "ball_preserving_structure",
            "has_leaf_child_everywhere",
        )
        calls = []
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        classify(perfect_binary4)
        assert set(calls) == set(names)
        calls.clear()
        for cid in CLASS_IDS:
            membership(cid, perfect_binary4)
        assert set(calls) == set(names)

    def test_classify_agrees_with_membership(self):
        for n in range(2, 6):
            for space in enumerate_spaces(n):
                report = classify(space)
                for cid in CLASS_IDS:
                    assert report.classes[cid].member == membership(cid, space), cid

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=0, max_value=300),
        st.data(),
    )
    def test_membership_is_scale_invariant(self, n, seed, data):
        """Every verdict survives weak similarity: a strictly increasing
        rescaling (linear or not) and a renaming of the points."""
        space = random_space(n, seed)
        order = data.draw(st.permutations(range(n)))
        images = [
            Space(space.points, [[v * 2 for v in row] for row in space.dist]),
            Space(space.points, [[v * v + v for v in row] for row in space.dist]),
            Space(
                [f"q{k}" for k in range(n)],
                [[space.dist[i][j] for j in order] for i in order],
            ),
        ]
        left = classify(space)
        for image in images:
            right = classify(image)
            for cid in CLASS_IDS:
                assert left.classes[cid].member == right.classes[cid].member, cid


class TestAudit:
    def test_clean_on_fixture_spaces(
        self, isosceles, equilateral, perfect_binary4, figure16, homogeneous24, perfect27
    ):
        for space in (isosceles, equilateral, perfect_binary4, figure16, homogeneous24, perfect27):
            assert audit_equivalences(space) == []

    def test_singleton_rejected(self, singleton):
        with pytest.raises(SingletonSpace):
            audit_equivalences(singleton)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=150))
    def test_clean_on_random_spaces(self, n, seed):
        assert audit_equivalences(random_space(n, seed)) == []
