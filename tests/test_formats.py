import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ultraforest.canonical import canonical_code
from ultraforest.core import spectrum
from ultraforest.errors import ParseError
from ultraforest.formats import (
    format_rational,
    parse_rational,
    parse_space,
    space_from_csv,
    space_from_json,
    space_to_csv,
    space_to_json,
    tree_from_json,
    tree_from_json_obj,
    tree_to_dot,
    tree_to_json,
    unrooted_from_json,
    unrooted_to_dot,
    unrooted_to_json,
)
from ultraforest.gen import enumerate_spaces, random_space, random_unrooted
from ultraforest.tree import build_representing_tree
from ultraforest.unrooted import space_from_unrooted

from .conftest import space_from_rows


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("2") == 2
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(" 7 ") == 7
        assert parse_rational(5) == 5

    def test_rejects_floats(self):
        with pytest.raises(ParseError, match="refusing inexact float"):
            parse_rational(0.5)

    def test_rejects_bools_and_garbage(self):
        with pytest.raises(ParseError):
            parse_rational(True)
        with pytest.raises(ParseError):
            parse_rational("three")
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational(None)

    @pytest.mark.parametrize(
        "token",
        ["1e5000", "1e-5000", "1e4300", "-1e-4300", "1" * 4301, 10**4300, "2/" + "3" * 4301],
        ids=["e5000", "e-5000", "e4300", "e-4300", "4301-digit", "int", "denominator"],
    )
    def test_rejects_more_digits_than_the_limit(self, token):
        with pytest.raises(ParseError):
            parse_rational(token)

    @pytest.mark.parametrize(
        "token",
        ["1" * 4301, "-" + "9" * 5000, "1" * 4301 + "/3", "0." + "0" * 4400 + "1", "1e" + "9" * 5000],
        ids=["integer", "negative", "numerator", "decimal", "exponent"],
    )
    def test_a_long_digit_run_is_too_many_digits(self, token):
        with pytest.raises(ParseError) as exc:
            parse_rational(token)
        assert str(exc.value) == "rational value with too many digits above or below the fraction bar"

    def test_a_long_bad_token_is_cut_with_its_length(self):
        for token in ("1" * 4301 + "x", "x" * 41, " " + "1" * 4400 + "..5"):
            with pytest.raises(ParseError) as exc:
                parse_rational(token)
            assert str(exc.value) == f"not a rational value: {token[:40]!r}... ({len(token)} characters)"

    def test_a_long_json_value_is_cut_with_its_length(self):
        with pytest.raises(ParseError) as exc:
            parse_rational(list(range(100)))
        shown = repr(list(range(100)))
        assert str(exc.value) == f"not a rational value: {shown[:40]!r}... ({len(shown)} characters)"

    @pytest.mark.parametrize("token", ["0..5", "x" * 40, "1/0", "three"])
    def test_short_bad_tokens_are_quoted_whole(self, token):
        with pytest.raises(ParseError) as exc:
            parse_rational(token)
        assert str(exc.value) == f"not a rational value: {token!r}"

    def test_accepts_up_to_the_limit(self):
        assert parse_rational("1e4299") == 10**4299
        assert parse_rational("-1e-4299") == Fraction(-1, 10**4299)
        assert parse_rational("9" * 4300) == 10**4300 - 1
        assert parse_rational("1000e-4302") == Fraction(1, 10**4299)
        # zero stays zero, however large its exponent
        assert parse_rational("0.00e5000") == parse_rational("-0e-9000") == 0

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit")
    def test_a_lower_interpreter_limit_wins(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            assert parse_rational("1e999") == 10**999
            with pytest.raises(ParseError, match="too many digits"):
                parse_rational("1e1000")
        finally:
            sys.set_int_max_str_digits(old)

    def test_format_roundtrip(self):
        for q in (Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(22, 7)):
            assert parse_rational(format_rational(q)) == q


class TestSpaceCsv:
    def test_roundtrip_bit_exact(self, figure16):
        text = space_to_csv(figure16)
        again = space_from_csv(text)
        assert again == figure16
        assert space_to_csv(again) == text

    def test_fractional_entries(self):
        space = space_from_rows(
            [[0, "1/2", "3/4"], ["1/2", 0, "3/4"], ["3/4", "3/4", 0]],
            ["a", "b", "c"],
        )
        text = space_to_csv(space)
        assert "1/2" in text and "3/4" in text
        assert space_from_csv(text) == space

    def test_header_is_point_row(self, isosceles):
        lines = space_to_csv(isosceles).splitlines()
        assert lines[0] == "a,b,c"
        assert len(lines) == 4

    def test_errors(self):
        with pytest.raises(ParseError):
            space_from_csv("")
        with pytest.raises(ParseError, match="matrix rows"):
            space_from_csv("a,b\n0,1\n")
        with pytest.raises(ParseError, match="at 2"):
            space_from_csv("a,b\n0,1,9\n1,0\n")


class TestSpaceJson:
    def test_roundtrip(self, figure16):
        text = space_to_json(figure16)
        assert space_from_json(text) == figure16

    def test_distances_travel_as_strings(self, isosceles):
        obj = json.loads(space_to_json(isosceles))
        assert obj["points"] == ["a", "b", "c"]
        assert all(isinstance(v, str) for row in obj["dist"] for v in row)

    def test_rejects_json_floats(self):
        text = '{"points": ["a", "b"], "dist": [[0, 0.5], [0.5, 0]]}'
        with pytest.raises(ParseError, match="refusing inexact float"):
            space_from_json(text)

    def test_accepts_json_integers(self):
        text = '{"points": ["a", "b"], "dist": [[0, 2], [2, 0]]}'
        assert space_from_json(text).distance("a", "b") == 2

    def test_structural_errors(self):
        with pytest.raises(ParseError):
            space_from_json("not json at all {")
        with pytest.raises(ParseError):
            space_from_json('["list", "not", "object"]')
        with pytest.raises(ParseError):
            space_from_json('{"points": ["a"]}')
        with pytest.raises(ParseError):
            space_from_json('{"points": [1], "dist": [[0]]}')
        with pytest.raises(ParseError):
            space_from_json('{"points": ["a"], "dist": "zero"}')


class TestTokenSpellings:
    """Each token spelling is parsed once; equal values stay one value."""

    def test_csv_spellings_of_one_half(self):
        text = "a,b,c,d\n0,1/2,1,1\n0.5,0,1,1\n1,1,0,2/4\n1,1, 1/2,0\n"
        space = space_from_csv(text)
        assert spectrum(space) == (0, Fraction(1, 2), 1)
        assert space.distance("c", "d") == space.distance("a", "b") == Fraction(1, 2)

    def test_json_integer_and_string(self):
        text = '{"points": ["a", "b", "c"], "dist": [[0, 1, "1"], [1, 0, "1"], ["1", 1, 0]]}'
        assert spectrum(space_from_json(text)) == (0, 1)

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("0.5", 'refusing inexact float 0.5; write it as a string, e.g. "1/4"'),
            ("true", "not a rational value: True"),
            ("[0]", "not a rational value: [0]"),
        ],
        ids=["float", "bool", "list"],
    )
    def test_other_json_tokens_keep_their_errors(self, cell, message):
        text = '{"points": ["a", "b"], "dist": [["0", "1"], ["1", %s]]}' % cell
        with pytest.raises(ParseError) as exc:
            space_from_json(text)
        assert str(exc.value) == message


class TestParseOrder:
    """CSV checks each row's length before it parses the row; JSON parses
    every token before it checks the shape.  The first fault in that order
    is the one reported."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b,c\n0,1,x\n1,0\n1,1,0\n", "not a rational value: 'x'"),
            ("a,b,c\n0,1,1\n1,0\n1,x,0\n", "row has 2 entries, expected 3 at 3"),
            ("a,b\n0,x\n x,0\n", "not a rational value: 'x'"),
            ('{"points": ["a", "b"], "dist": [[0, 1], [true, 0]]}', "not a rational value: True"),
            ('{"points": ["a", "b"], "dist": [[0, true], [1, 0]]}', "not a rational value: True"),
            ('{"points": ["a", "b"], "dist": [[0, "0..5"], [0.5, 0]]}', "not a rational value: '0..5'"),
            ('{"points": ["a", "b"], "dist": [[0], [1, "y"]]}', "not a rational value: 'y'"),
            ('{"points": ["a", "b"], "dist": [[0, [1]], ["z", 0]]}', "not a rational value: [1]"),
            ('{"points": ["a", "b"], "dist": [["q", [1]], [1, 0]]}', "not a rational value: 'q'"),
        ],
        ids=[
            "csv-token-before-short-row",
            "csv-short-row-before-token",
            "csv-respelled-token",
            "json-true-after-1",
            "json-true-before-1",
            "json-float-after-bad-string",
            "json-token-before-shape",
            "json-list-first",
            "json-string-before-list",
        ],
    )
    def test_first_fault_is_reported(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_space(text)
        assert str(exc.value) == message

    def test_json_string_and_integer_tokens_share_a_value(self):
        space = parse_space('{"points": ["a", "b", "c"], "dist": [[0, "1", 2], [1, 0, "2"], ["2", 2, 0]]}')
        assert spectrum(space) == (0, 1, 2)
        assert space.dist == ((0, 1, 2), (1, 0, 2), (2, 2, 0))


class TestParseSpaceSniffing:
    def test_sniffs_json(self, isosceles):
        assert parse_space(space_to_json(isosceles)) == isosceles

    def test_sniffs_csv(self, isosceles):
        assert parse_space(space_to_csv(isosceles)) == isosceles

    def test_explicit_format_wins(self, isosceles):
        with pytest.raises(ParseError):
            parse_space(space_to_json(isosceles), fmt="csv")

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            parse_space("a\n0\n", fmt="yaml")


class TestTreeJson:
    def test_roundtrip_preserves_code(self, figure16_tree):
        text = tree_to_json(figure16_tree)
        again = tree_from_json(text)
        assert canonical_code(again) == canonical_code(figure16_tree)

    def test_roundtrip_on_enumerated(self):
        for n in range(1, 6):
            for space in enumerate_spaces(n):
                tree = build_representing_tree(space)
                assert canonical_code(tree_from_json(tree_to_json(tree))) == canonical_code(tree)

    def test_leaf_and_internal_shapes(self, isosceles):
        obj = json.loads(tree_to_json(build_representing_tree(isosceles)))
        assert obj["label"] == "2"
        kinds = {("children" in child, "point" in child) for child in obj["children"]}
        assert kinds == {(True, False), (False, True)}

    def test_too_deep_to_read_is_a_parse_error(self):
        node = {"label": "0", "point": "p0"}
        for k in range(1, 2000):
            node = {"label": str(k), "children": [{"label": "0", "point": f"p{k}"}, node]}
        with pytest.raises(ParseError, match="nested too deeply"):
            tree_from_json_obj(node)

    def test_errors(self):
        with pytest.raises(ParseError):
            tree_from_json('{"children": []}')  # no label
        with pytest.raises(ParseError):
            tree_from_json('{"label": "1", "children": "x"}')
        with pytest.raises(ParseError):
            tree_from_json('{"label": "0"}')  # leaf without point
        with pytest.raises(ParseError):
            tree_from_json(
                '{"label": "1", "point": "a",'
                ' "children": [{"label": "0", "point": "b"},'
                ' {"label": "0", "point": "c"}]}'
            )


class TestUnrootedJson:
    def test_roundtrip(self, figure16_unrooted):
        text = unrooted_to_json(figure16_unrooted)
        again = unrooted_from_json(text)
        assert again.edges == figure16_unrooted.edges
        assert again.labels == figure16_unrooted.labels

    def test_roundtrip_on_random(self):
        for seed in range(10):
            tree = random_unrooted(2 + seed, seed)
            again = unrooted_from_json(unrooted_to_json(tree))
            assert again.edges == tree.edges and again.labels == tree.labels

    def test_errors(self):
        with pytest.raises(ParseError):
            unrooted_from_json('{"vertices": []}')
        with pytest.raises(ParseError, match="duplicate"):
            unrooted_from_json(
                '{"vertices": [{"id": "a", "label": "1"}, {"id": "a", "label": "2"}],'
                ' "edges": []}'
            )
        with pytest.raises(ParseError):
            unrooted_from_json(
                '{"vertices": [{"id": "a", "label": "1"}], "edges": [["a"]]}'
            )
        with pytest.raises(ParseError):
            unrooted_from_json(
                '{"vertices": [{"id": "a"}], "edges": []}'
            )


class TestDot:
    def test_tree_dot_tokens(self, isosceles):
        dot = tree_to_dot(build_representing_tree(isosceles))
        assert dot.startswith("digraph")
        assert 'label="c" shape=box' in dot
        assert 'label="2" shape=circle' in dot
        assert "->" in dot

    def test_unrooted_dot_tokens(self, isosceles):
        from ultraforest.unrooted import unrooted_from_representing

        dot = unrooted_to_dot(
            unrooted_from_representing(build_representing_tree(isosceles))
        )
        assert dot.startswith("graph")
        assert "--" in dot
        assert '"c:2"' in dot

    def test_quoting(self):
        space = space_from_rows([[0, 1], [1, 0]], ['say "hi"', "b"])
        dot = tree_to_dot(build_representing_tree(space))
        assert '\\"hi\\"' in dot


class TestCrossFormatAgreement:
    def test_csv_and_json_parse_identically(self):
        for seed in range(5):
            space = random_space(6 + seed, seed)
            assert space_from_csv(space_to_csv(space)) == space_from_json(
                space_to_json(space)
            )


def _tree_walk(tree):
    return [(tree.labels[v], tree.points[v], len(tree.children[v])) for v in tree.preorder()]


class TestRoundTripProperty:
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        from_unrooted=st.booleans(),
    )
    def test_every_format_round_trips(self, n, seed, from_unrooted):
        unrooted = random_unrooted(n, seed) if from_unrooted else None
        space = space_from_unrooted(unrooted) if from_unrooted else random_space(n, seed)

        for write, read in ((space_to_csv, space_from_csv), (space_to_json, space_from_json)):
            text = write(space)
            again = read(text)
            assert again == space
            assert write(again) == text

        tree = build_representing_tree(space)
        text = tree_to_json(tree)
        again = tree_from_json(text)
        assert _tree_walk(again) == _tree_walk(tree)
        assert tree_to_json(again) == text

        if unrooted is not None:
            text = unrooted_to_json(unrooted)
            again = unrooted_from_json(text)
            assert again.edges == unrooted.edges
            assert again.labels == unrooted.labels
            assert unrooted_to_json(again) == text
