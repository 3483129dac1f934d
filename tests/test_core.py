from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultraforest import core
from ultraforest.core import (
    ZERO,
    Space,
    diameter,
    point_spectrum,
    prim_order,
    rank_matrix,
    restrict,
    spectrum,
    to_plain,
    validate_space,
)
from ultraforest.errors import (
    DiagonalNonzero,
    EmptySubset,
    FormatMismatch,
    NegativeDistance,
    NotSymmetric,
    OffDiagonalZero,
    StrongTriangleViolation,
    UnknownPoint,
)
from ultraforest.gen import enumerate_spaces, random_space
from ultraforest.tree import build_representing_tree

from .conftest import space_from_rows
from .oracles import first_strong_triangle_violation, ultrametric_violation


class TestValidate:
    def test_accepts_isosceles(self, isosceles):
        assert isosceles.points == ("a", "b", "c")
        assert isosceles.distance("a", "c") == 2

    def test_accepts_fractional_entries(self):
        s = space_from_rows(
            [[0, "1/2", "3/4"], ["1/2", 0, "3/4"], ["3/4", "3/4", 0]],
            ["a", "b", "c"],
        )
        assert s.distance("a", "b") == Fraction(1, 2)

    def test_triangle_violation_witness(self):
        with pytest.raises(StrongTriangleViolation) as exc:
            validate_space([[0, 1, 2], [1, 0, 3], [2, 3, 0]], ["a", "b", "c"])
        err = exc.value
        assert (err.x, err.y, err.z) == ("b", "c", "a")
        assert "d(b,c)" in str(err)

    def test_diagonal_nonzero(self):
        with pytest.raises(DiagonalNonzero) as exc:
            validate_space([[0, 1], [1, 2]], ["a", "b"])
        assert exc.value.x == "b"

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            validate_space([[0, 1], [2, 0]], ["a", "b"])

    def test_off_diagonal_zero(self):
        with pytest.raises(OffDiagonalZero):
            validate_space([[0, 0], [0, 0]], ["a", "b"])

    def test_negative_distance(self):
        with pytest.raises(NegativeDistance):
            validate_space([[0, -1], [-1, 0]], ["a", "b"])

    def test_rejects_empty_point_list(self):
        with pytest.raises(FormatMismatch):
            validate_space([], [])

    def test_rejects_duplicate_points(self):
        with pytest.raises(FormatMismatch):
            validate_space([[0, 1], [1, 0]], ["a", "a"])

    def test_rejects_non_square_matrix(self):
        with pytest.raises(FormatMismatch):
            validate_space([[0, 1]], ["a", "b"])

    def test_rejects_float_entries(self):
        with pytest.raises(FormatMismatch):
            validate_space([[0, 0.5], [0.5, 0]], ["a", "b"])

    def test_singleton_is_valid(self, singleton):
        assert len(singleton) == 1
        assert diameter(singleton) == 0


class TestSpace:
    def test_equality_ignores_point_order(self, isosceles):
        reordered = space_from_rows(
            [[0, 2, 2], [2, 0, 1], [2, 1, 0]], ["c", "a", "b"]
        )
        assert isosceles == reordered

    def test_inequality_on_distances(self, isosceles, equilateral):
        assert isosceles != equilateral
        renamed = space_from_rows([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "x"])
        assert isosceles != renamed

    def test_unknown_point(self, isosceles):
        with pytest.raises(UnknownPoint):
            isosceles.distance("a", "z")

    def test_unhashable(self, isosceles):
        with pytest.raises(TypeError):
            hash(isosceles)


class TestSpectrum:
    def test_isosceles(self, isosceles):
        assert spectrum(isosceles) == (0, 1, 2)

    def test_equilateral(self, equilateral):
        assert spectrum(equilateral) == (0, 1)

    def test_singleton(self, singleton):
        assert spectrum(singleton) == (0,)

    def test_point_spectrum_isosceles(self, isosceles):
        ps = point_spectrum(isosceles, "c")
        assert ps.center == "c"
        assert ps.values == (0, 2)
        assert point_spectrum(isosceles, "a").values == (0, 1, 2)

    def test_point_spectrum_figure(self, figure16):
        assert point_spectrum(figure16, "x8").values == (0, 1, 3, 4)
        assert point_spectrum(figure16, "x1").values == (0, 4)

    def test_diameter(self, figure16, isosceles):
        assert diameter(figure16) == 4
        assert diameter(isosceles) == 2


class TestRestrict:
    def test_figure_triple_is_isosceles(self, figure16):
        sub = restrict(figure16, {"x8", "x9", "x3"})
        assert len(sub) == 3
        assert sub.distance("x8", "x9") == 1
        assert sub.distance("x8", "x3") == 3
        assert sub.distance("x9", "x3") == 3

    def test_keeps_original_order(self, isosceles):
        sub = restrict(isosceles, {"c", "a"})
        assert sub.points == ("a", "c")

    def test_empty_subset(self, isosceles):
        with pytest.raises(EmptySubset):
            restrict(isosceles, set())

    def test_unknown_point(self, isosceles):
        with pytest.raises(UnknownPoint):
            restrict(isosceles, {"a", "z"})

    def test_restrict_is_functorial(self, figure16):
        outer = restrict(figure16, {"x1", "x3", "x8", "x9", "x14"})
        inner = restrict(outer, {"x3", "x8", "x14"})
        assert inner == restrict(figure16, {"x3", "x8", "x14"})


class TestGomoryHuBound:
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_spectrum_size_at_most_point_count(self, n, seed):
        space = random_space(n, seed)
        assert len(spectrum(space)) <= len(space)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
    def test_random_space_is_a_valid_ultrametric(self, n, seed):
        space = random_space(n, seed)
        rebuilt = validate_space(space.dist, space.points)
        assert rebuilt == space


def _fresh_spectrum(space):
    return tuple(sorted({ZERO}.union(*map(set, space.dist))))


def _ranks(matrix):
    values = sorted({v for row in matrix for v in row})
    return [[values.index(v) for v in row] for row in matrix]


def _expected_rejection(matrix):
    """The error class validate_space must raise on a zero-diagonal matrix,
    by its scan order, and the strong-triangle witness; (None, None) to accept."""
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return NotSymmetric, None
            if matrix[i][j] < 0:
                return NegativeDistance, None
            if matrix[i][j] == 0:
                return OffDiagonalZero, None
    triple = first_strong_triangle_violation(matrix)
    return (StrongTriangleViolation, triple) if triple else (None, None)


@st.composite
def perturbed_spaces(draw):
    """A random_space matrix with one symmetric pair raised, lowered or set
    to another spectrum value."""
    n = draw(st.integers(min_value=2, max_value=12))
    space = random_space(n, draw(st.integers(min_value=0, max_value=10_000)))
    matrix = [list(row) for row in space.dist]
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    old = matrix[i][j]
    how = draw(st.sampled_from(["raise", "lower", "respell"]))
    if how == "raise":
        new = old + Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    elif how == "lower":
        new = old * Fraction(draw(st.integers(1, 3)), 4)
    else:
        new = draw(st.sampled_from(spectrum(space)[1:]))
    matrix[i][j] = matrix[j][i] = new
    return matrix


@st.composite
def multiply_perturbed_spaces(draw):
    """A random_space matrix (n <= 30) with one to four symmetric pairs set
    to other positive values: many pairs then lie above their path maximum,
    most of them without a witness."""
    n = draw(st.integers(min_value=3, max_value=30))
    space = random_space(n, draw(st.integers(min_value=0, max_value=10_000)))
    matrix = [list(row) for row in space.dist]
    values = st.sampled_from(spectrum(space)[1:]) | st.fractions(min_value=Fraction(1, 8), max_value=30)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        matrix[i][j] = matrix[j][i] = draw(values.filter(lambda v: v > 0))
    return matrix


@st.composite
def small_matrices(draw):
    """Small zero-diagonal matrices over a few values, zeros and negatives
    among them; symmetric unless one cell is drawn apart."""
    n = draw(st.integers(min_value=1, max_value=6))
    value = st.sampled_from([Fraction(v) for v in (-1, 0, "1/2", 1, 2, 3)])
    matrix = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(value)
    if n > 1 and draw(st.booleans()):
        matrix[n - 1][0] = draw(value)
    return matrix


class TestFastValidation:
    """validate_space decides and names witnesses exactly as the cubic scan."""

    @settings(max_examples=400)
    @given(st.one_of(perturbed_spaces(), small_matrices()))
    def test_agrees_with_the_scan(self, matrix):
        points = [f"p{i}" for i in range(len(matrix))]
        expected, triple = _expected_rejection(matrix)
        if expected is None:
            assert ultrametric_violation(matrix) is None
            assert prim_order(_ranks(matrix)) is not None  # no cubic scan
            space = validate_space(matrix, points)
            assert spectrum(space) == _fresh_spectrum(space)
            assert diameter(space) == max(max(row) for row in matrix)
            return
        with pytest.raises(expected) as exc:
            validate_space(matrix, points)
        if expected is StrongTriangleViolation:
            assert ultrametric_violation(matrix) is not None
            assert prim_order(_ranks(matrix)) is None
            assert (exc.value.x, exc.value.y, exc.value.z) == tuple(points[t] for t in triple)

    @settings(max_examples=200)
    @given(multiply_perturbed_spaces())
    def test_names_the_first_witness_among_many_excess_pairs(self, matrix):
        points = [f"p{i}" for i in range(len(matrix))]
        triple = first_strong_triangle_violation(matrix)
        if triple is None:
            assert validate_space(matrix, points).dist == tuple(map(tuple, matrix))
            return
        with pytest.raises(StrongTriangleViolation) as exc:
            validate_space(matrix, points)
        assert (exc.value.x, exc.value.y, exc.value.z) == tuple(points[t] for t in triple)

    def test_only_violation_on_the_last_pair_in_scan_order(self):
        space = random_space(60, 11)
        matrix = [list(row) for row in space.dist]
        matrix[58][59] = matrix[59][58] = 2 * diameter(space)
        assert first_strong_triangle_violation(matrix) == (58, 59, 0)
        with pytest.raises(StrongTriangleViolation) as exc:
            validate_space(matrix, space.points)
        assert (exc.value.x, exc.value.y, exc.value.z) == (space.points[58], space.points[59], space.points[0])

    @settings(max_examples=100)
    @given(st.one_of(perturbed_spaces(), small_matrices()))
    def test_parsed_token_rows_validate_as_the_matrix(self, matrix):
        """Token rows with ``parsed`` (two spellings per value) give the same
        space or the same error as the matrix of values."""
        points = [f"p{i}" for i in range(len(matrix))]
        spell = {v: (str(v), f"{v.numerator * 2}/{v.denominator * 2}") for row in matrix for v in row}
        tokens = [[spell[v][(i + j) % 2] for j, v in enumerate(row)] for i, row in enumerate(matrix)]
        parsed = {tok: v for v, pair in spell.items() for tok in pair}
        outcomes = []
        for rows, given in ((matrix, None), (tokens, parsed)):
            try:
                space = validate_space(rows, points, parsed=given)
                outcomes.append((space.dist, space._ranks, spectrum(space)))
            except (NotSymmetric, NegativeDistance, OffDiagonalZero, StrongTriangleViolation) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_spectrum_is_computed_once(self, figure16):
        assert spectrum(figure16) is spectrum(figure16)
        assert diameter(figure16) == spectrum(figure16)[-1]


class TestRanks:
    """A space encodes its distances once; what it keeps matches a fresh
    recompute."""

    def test_prim_order(self, isosceles):
        order, parent, edge = prim_order(rank_matrix(isosceles))
        assert order == [0, 1, 2]
        assert (parent[1], edge[1]) == (0, 1) and (parent[2], edge[2]) == (0, 2)

    def test_build_seeds_ranks_and_spectrum(self):
        asymmetric = Space(["a", "b", "c"], [[0, 1, 2], [3, 0, 2], [Fraction(2), 2, 0]])
        generated = random_space(30, 5)
        for space in (Space(generated.points, generated.dist), asymmetric):
            assert space._ranks is None and space._spectrum is None
            build_representing_tree(space)
            fresh = Space(space.points, space.dist)
            assert space._spectrum == _fresh_spectrum(fresh) == spectrum(fresh)
            assert space._ranks == rank_matrix(fresh)
            sp, n = space._spectrum, len(space)
            # each pair by its upper-triangle entry, the only one the tree reads
            assert all(
                sp[space._ranks[i][j]] == space.dist[min(i, j)][max(i, j)]
                for i in range(n)
                for j in range(n)
            )
        assert asymmetric._spectrum == (0, 1, 2, 3)

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
    def test_restrict_slices_ranks(self, n, seed):
        generated = random_space(n, seed)
        space = validate_space(generated.dist, generated.points)
        sub = restrict(space, space.points[::2])
        fresh = Space(sub.points, sub.dist)
        sp, fresh_sp, fresh_rk = spectrum(space), spectrum(fresh), rank_matrix(fresh)
        # the parent's ranks keep their order in the subset
        assert [[sp[r] for r in row] for row in sub._ranks] == [list(row) for row in sub.dist]
        assert [[fresh_sp[r] for r in row] for row in fresh_rk] == [list(row) for row in sub.dist]
        assert spectrum(sub) == fresh_sp == _fresh_spectrum(sub)

    def test_restrict_without_ranks_encodes_later(self):
        space = random_space(9, 2)
        sub = restrict(space, space.points[:5])
        assert sub._ranks is None
        assert rank_matrix(sub) == rank_matrix(Space(sub.points, sub.dist))

    def test_deletions_are_not_encoded_again(self, monkeypatch):
        calls = []
        encode = core._encode
        monkeypatch.setattr(core, "_encode", lambda rows: calls.append(1) or encode(rows))
        for space in enumerate_spaces(6)[:20]:
            space = Space(space.points, space.dist)
            build_representing_tree(space)
            for x in space.points:
                build_representing_tree(restrict(space, set(space.points) - {x}))
        assert len(calls) == 20


class TestToPlain:
    def test_conversions(self):
        data = {
            "q": Fraction(3, 4),
            "set": frozenset({"b", "a"}),
            "tuple": (1, Fraction(2)),
        }
        assert to_plain(data) == {"q": "3/4", "set": ["a", "b"], "tuple": [1, "2"]}

    def test_any_depth(self):
        deep = Fraction(1, 2)
        for _ in range(5000):
            deep = ({"x": deep},)
        plain = to_plain(deep)
        for _ in range(5000):
            plain = plain[0]["x"]
        assert plain == "1/2"

    def test_sets_sort_after_conversion(self):
        assert to_plain({frozenset({"b"}), frozenset({"a", "c"})}) == [["a", "c"], ["b"]]
        assert to_plain({Fraction(1, 2): set(), (1, 2): []}) == {"1/2": [], "[1, 2]": []}
