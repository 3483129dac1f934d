"""Acceptance gate: seven end-to-end criteria, one test (and one printed
pass line) each.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from ultraforest.canonical import (
    are_isometric,
    are_weakly_similar,
    count_self_isometries,
)
from ultraforest.classify import (
    audit_equivalences,
    classify,
    has_injective_internal_labels,
    has_inner_chain_equal_tail,
    shape_spectrum_guarantee,
    shape_spectrum_oracle,
)
from ultraforest.cli import main
from ultraforest.core import Space, spectrum
from ultraforest.formats import parse_space, space_to_csv
from ultraforest.gen import enumerate_spaces, random_space
from ultraforest.graphs import complete_multipartite_parts, make_graph
from ultraforest.hereditary import (
    hereditary_counterexample_search,
    hereditary_verify,
)
from ultraforest.tree import build_representing_tree, max_out_degree, tree_to_space

from .conftest import figure16_tree
from .oracles import (
    count_isometries,
    find_isometry,
    find_weak_similarity,
    multipartite_parts_brute,
)

HEREDITARY_TRUE = (
    "gomory_hu_extremal",
    "injective_labels",
    "strictly_binary",
    "rigid",
    "inner_chain",
    "ball_preserving",
)
HEREDITARY_FALSE = (
    "strictly_nary",
    "inner_chain_equal_tail",
    "shape_spectrum_determined",
    "homogeneous",
    "leaves_same_level",
    "perfect_nary",
    "unrooted_generated",
)


def _permuted_copy(space, seed):
    rng = random.Random(seed)
    order = list(range(len(space)))
    rng.shuffle(order)
    pts = [f"y{i}" for i in range(len(space))]
    dist = [[space.dist[i][j] for j in order] for i in order]
    return Space(pts, dist)


def test_criterion_1_figure_roundtrip_via_cli(tmp_path, capsys):
    """The 16-point figure converts matrix -> unrooted -> matrix through the
    CLI, bit-identically, in under a second."""
    space = tree_to_space(figure16_tree())
    src = tmp_path / "figure.csv"
    src.write_text(space_to_csv(space))
    unrooted = tmp_path / "figure-unrooted.json"
    back = tmp_path / "figure-back.csv"

    start = time.perf_counter()
    assert main(["convert", str(src), "--to", "unrooted", "--out", str(unrooted)]) == 0
    assert main(["convert", str(unrooted), "--to", "matrix", "--out", str(back)]) == 0
    assert main(["tree", str(src), "--out", str(tmp_path / "figure-tree.json")]) == 0
    elapsed = time.perf_counter() - start

    capsys.readouterr()
    assert parse_space(back.read_text()) == space
    assert elapsed < 1.0
    print(
        f"\nPASS: criterion 1 — 16-point figure CLI roundtrip exact "
        f"({elapsed:.3f}s < 1s)"
    )


def test_criterion_2_audit_all_small_spaces():
    """Every characterization audit is clean on every space with 2..6
    points, within five minutes."""
    start = time.perf_counter()
    audited = 0
    failures = []
    for n in range(2, 7):
        for space in enumerate_spaces(n):
            found = audit_equivalences(space)
            audited += 1
            if found:
                failures.append((space.points, found))
    elapsed = time.perf_counter() - start
    assert audited == 119
    assert failures == []
    assert elapsed < 300.0
    print(
        f"\nPASS: criterion 2 — audit clean on all {audited} spaces "
        f"with 2..6 points ({elapsed:.1f}s < 300s)"
    )


def test_criterion_3_spectrum_and_ball_bounds():
    """|Sp(X)| <= |X| everywhere; both ball-count lower bounds hold with
    their exact equality characterizations, on enumerated plus 10,000
    random spaces of up to 50 points."""

    def check_bounds(space):
        n = len(space)
        sp = spectrum(space)
        assert len(sp) <= n
        if n < 2:
            return
        tree = build_representing_tree(space)
        balls = tree.n_nodes
        delta = Fraction(max_out_degree(tree))
        degrees = {tree.out_degree(v) for v in tree.internal_nodes()}
        strictly_delta = degrees == {int(delta)}
        labels = [tree.labels[v] for v in tree.internal_nodes()]
        injective = len(labels) == len(set(labels))

        bound1 = (delta * n - 1) / (delta - 1)
        assert Fraction(balls) >= bound1
        assert (Fraction(balls) == bound1) == strictly_delta

        bound2 = len(sp) + (2 * delta * n - delta - n) / (delta - 1)
        assert Fraction(2 * balls) >= bound2
        assert (Fraction(2 * balls) == bound2) == (strictly_delta and injective)

    checked = 0
    for n in range(1, 7):
        for space in enumerate_spaces(n):
            check_bounds(space)
            checked += 1
    for seed in range(10_000):
        check_bounds(random_space(2 + seed % 49, seed))
        checked += 1
    print(
        f"\nPASS: criterion 3 — spectrum bound and both ball bounds with "
        f"equality cases on {checked} spaces (sizes up to 50)"
    )


def test_criterion_4_hereditary_landscape():
    """Subspace closure decided exhaustively at six points: six classes
    hereditary, seven with counterexamples of at most six points."""
    start = time.perf_counter()
    for class_id in HEREDITARY_TRUE:
        assert hereditary_verify(class_id, max_n=6), class_id
    for class_id in HEREDITARY_FALSE:
        found = hereditary_counterexample_search(class_id, max_n=6)
        assert found is not None, class_id
        space, subset = found
        assert len(space) <= 6 and 2 <= len(subset) < len(space), class_id
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\nPASS: criterion 4 — {len(HEREDITARY_TRUE)} classes hereditary at "
        f"max_n=6, {len(HEREDITARY_FALSE)} counterexamples of <= 6 points "
        f"({elapsed:.1f}s < 300s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="equal-labels-per-level is not closed under subspaces: deleting "
    "one point of a five-point space can split a level into two labels; "
    "the claim this test encodes is disproved by that counterexample",
)
def test_criterion_4_label_levels_hereditary_claim():
    """Encodes the remaining positive claim as stated; the five-point
    counterexample makes it fail, so it is marked strict-xfail."""
    assert hereditary_verify("labels_same_level", max_n=6)


def test_criterion_5_oracle_agreement():
    """Fast decisions agree with brute-force oracles: isometry on 1,000
    random pairs, weak similarity, isometry counts, and complete
    multipartite part extraction."""
    for seed in range(1_000):
        n = 2 + seed % 6
        x = random_space(n, seed)
        if seed % 3 == 0:
            y = _permuted_copy(x, seed)
        elif seed % 3 == 1:
            y = random_space(n, seed + 10_000)
        else:
            doubled = Space(x.points, [[v * 2 for v in row] for row in x.dist])
            y = _permuted_copy(doubled, seed)
        assert are_isometric(x, y) == (find_isometry(x, y) is not None), seed

    for seed in range(300):
        n = 2 + seed % 5
        x = random_space(n, seed)
        if seed % 2:
            scaled = Space(x.points, [[v * 3 for v in row] for row in x.dist])
            y = _permuted_copy(scaled, seed)
        else:
            y = random_space(n, seed + 20_000)
        assert are_weakly_similar(x, y) == find_weak_similarity(x, y), seed

    for seed in range(300):
        space = random_space(2 + seed % 6, seed)
        tree = build_representing_tree(space)
        assert count_self_isometries(tree) == count_isometries(space), seed

    graphs = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = 2 + seed % 7
        verts = [f"v{i}" for i in range(n)]
        edges = [e for e in combinations(verts, 2) if rng.random() < 0.5]
        g = make_graph(verts, edges)
        assert complete_multipartite_parts(g) == multipartite_parts_brute(
            g.vertices, g.edges
        ), seed
        graphs += 1
    print(
        "\nPASS: criterion 5 — isometry (1000 pairs), weak similarity (300), "
        f"isometry counts (300), multipartite parts ({graphs} graphs) all "
        "match their oracles"
    )


def test_criterion_6_shape_spectrum_base_cases():
    """Every space with at most four points is determined by shape and
    spectrum; the sufficient shape condition never contradicts the
    exhaustive oracle on enumerated spaces."""
    small = 0
    for n in range(1, 5):
        for space in enumerate_spaces(n):
            assert shape_spectrum_oracle(space), space.points
            small += 1

    guaranteed = 0
    for n in range(1, 7):
        for space in enumerate_spaces(n):
            tree = build_representing_tree(space)
            if shape_spectrum_guarantee(tree):
                assert shape_spectrum_oracle(space), space.points
                guaranteed += 1
            if has_injective_internal_labels(tree):
                assert bool(has_inner_chain_equal_tail(tree)) == bool(
                    shape_spectrum_oracle(space)
                ), space.points
    print(
        f"\nPASS: criterion 6 — all {small} spaces of <= 4 points are "
        f"shape+spectrum determined; the shape guarantee held exactly on "
        f"{guaranteed} enumerated spaces and the injective criterion matched "
        "the oracle throughout"
    )


def test_criterion_7_performance_on_500_points():
    """A 500-point space is built and fully classified in under two
    seconds."""
    space = random_space(500, 0)
    start = time.perf_counter()
    tree = build_representing_tree(space)
    report = classify(space)
    elapsed = time.perf_counter() - start
    assert report.points == 500
    assert tree.n_nodes == report.extras["ball_count"]
    assert elapsed < 2.0
    print(
        f"\nPASS: criterion 7 — built and classified a 500-point space in "
        f"{elapsed:.3f}s (< 2s)"
    )
