from functools import partial
from itertools import combinations

import pytest

from ultraforest.classify import CLASS_IDS, membership
from ultraforest.core import restrict
from ultraforest.errors import (
    BudgetExhausted,
    NotInClass,
    SingletonSpace,
    UnknownClass,
)
from ultraforest.gen import enumerate_spaces
from ultraforest.hereditary import (
    hereditary_counterexample_search,
    hereditary_verify,
    is_hereditary_instance,
    one_point_deletions,
)

from .conftest import space_from_rows
from .oracles import hereditary_by_deletion_lattice

HEREDITARY_CLASSES = (
    "gomory_hu_extremal",
    "injective_labels",
    "strictly_binary",
    "rigid",
    "inner_chain",
    "ball_preserving",
)

# smallest (member size, violating subset size) per non-hereditary class
MINIMAL_COUNTEREXAMPLES = {
    "strictly_nary": (3, 2),
    "inner_chain_equal_tail": (6, 5),
    "shape_spectrum_determined": (6, 5),
    "homogeneous": (4, 3),
    "leaves_same_level": (4, 3),
    "labels_same_level": (5, 4),
    "perfect_nary": (4, 3),
    "unrooted_generated": (5, 4),
}


def label_level_break_space():
    """Five points whose representing tree keeps equal labels per level,
    while deleting the right point splits one level into two labels."""
    return space_from_rows(
        [
            [0, 2, 3, 3, 3],
            [2, 0, 3, 3, 3],
            [3, 3, 0, 2, 2],
            [3, 3, 2, 0, 1],
            [3, 3, 2, 1, 0],
        ],
        ["x1", "x2", "x3", "x4", "x5"],
    )


class TestOnePointDeletions:
    def test_triangle_gives_three_pairs(self, isosceles):
        subs = one_point_deletions(isosceles)
        assert len(subs) == 3
        assert sorted(sorted(s.points) for s in subs) == [
            ["a", "b"],
            ["a", "c"],
            ["b", "c"],
        ]

    def test_two_point_space_gives_singletons(self, two_points):
        subs = one_point_deletions(two_points)
        assert sorted(len(s) for s in subs) == [1, 1]

    def test_singleton_rejected(self, singleton):
        with pytest.raises(SingletonSpace):
            one_point_deletions(singleton)


class TestIsHereditaryInstance:
    def test_member_of_hereditary_class(self, isosceles):
        assert is_hereditary_instance(isosceles, "strictly_binary")

    def test_non_member_rejected(self, equilateral):
        with pytest.raises(NotInClass) as exc:
            is_hereditary_instance(equilateral, "strictly_binary")
        assert exc.value.class_id == "strictly_binary"

    def test_unknown_class(self, isosceles):
        with pytest.raises(UnknownClass):
            is_hereditary_instance(isosceles, "nonsense")

    def test_singleton_rejected(self, singleton):
        with pytest.raises(SingletonSpace):
            is_hereditary_instance(singleton, "strictly_binary")

    def test_violation_carries_minimal_subset(self):
        space = label_level_break_space()
        verdict = is_hereditary_instance(space, "labels_same_level")
        assert not verdict
        subset = verdict.witness["subset"]
        assert verdict.witness["size"] == len(subset) == 4
        assert membership("labels_same_level", space)
        assert not membership("labels_same_level", restrict(space, subset))
        # no smaller subset violates: 2- and 3-point spaces always keep
        # one label per level
        for sub in one_point_deletions(restrict(space, subset)):
            assert membership("labels_same_level", sub)

    def test_perfect_binary_keeps_or_loses_classes(self, perfect_binary4):
        assert not is_hereditary_instance(perfect_binary4, "leaves_same_level")
        assert is_hereditary_instance(perfect_binary4, "strictly_binary")

    def test_agrees_with_the_deletion_lattice_on_every_small_member(self):
        pairs = 0
        for n in range(2, 7):
            for space in enumerate_spaces(n):
                for cid in CLASS_IDS:
                    if not membership(cid, space):
                        continue
                    pairs += 1
                    verdict = is_hereditary_instance(space, cid)
                    member = partial(membership, cid)
                    assert bool(verdict) == hereditary_by_deletion_lattice(space, member)
                    if verdict:
                        continue
                    witness = verdict.witness["subset"]
                    assert verdict.witness["size"] == len(witness)
                    assert not member(restrict(space, witness))
                    # every subset before it, smaller or earlier in
                    # combinations order, keeps the class
                    for size in range(2, len(witness) + 1):
                        for subset in combinations(space.points, size):
                            if frozenset(subset) == witness:
                                break
                            assert member(restrict(space, subset))
        assert pairs == 453

    def test_large_space_gives_first_smallest_witness(self, figure16):
        verdict = is_hereditary_instance(figure16, "unrooted_generated")
        assert not verdict
        assert verdict.witness == {
            "subset": frozenset({"x3", "x4", "x5", "x6"}),
            "size": 4,
        }


class TestHereditaryVerify:
    @pytest.mark.parametrize("class_id", HEREDITARY_CLASSES)
    def test_hereditary_classes_pass_small_range(self, class_id):
        verdict = hereditary_verify(class_id, max_n=5)
        assert verdict and verdict.witness == {"max_n": 5}

    def test_label_levels_fail_with_witness(self):
        verdict = hereditary_verify("labels_same_level", max_n=5)
        assert not verdict
        w = verdict.witness
        assert len(w["space"]) == 5
        assert len(w["subspace"]) == 4
        assert membership("labels_same_level", w["space"])
        assert not membership("labels_same_level", w["subspace"])
        pts = set(w["space"].points) - {w["deleted"]}
        assert restrict(w["space"], pts) == w["subspace"]

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            hereditary_verify("nonsense")


class TestCounterexampleSearch:
    def test_minimal_sizes_are_frozen(self):
        for class_id, (space_size, subset_size) in MINIMAL_COUNTEREXAMPLES.items():
            found = hereditary_counterexample_search(class_id, max_n=6)
            assert found is not None, class_id
            space, subset = found
            assert (len(space), len(subset)) == (space_size, subset_size), class_id
            assert membership(class_id, space)
            assert not membership(class_id, restrict(space, subset))

    @pytest.mark.parametrize("class_id", HEREDITARY_CLASSES)
    def test_none_for_hereditary_classes(self, class_id):
        assert hereditary_counterexample_search(class_id, max_n=5) is None

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            hereditary_counterexample_search("strictly_binary", max_n=6, budget=10)

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            hereditary_counterexample_search("nonsense")

    def test_every_class_is_classified(self):
        assert set(MINIMAL_COUNTEREXAMPLES) | set(HEREDITARY_CLASSES) == set(CLASS_IDS)
        assert not set(MINIMAL_COUNTEREXAMPLES) & set(HEREDITARY_CLASSES)
