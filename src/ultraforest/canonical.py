"""Canonical codes for representing trees; isometry and weak similarity.

Two spaces are isometric iff their representing trees are isomorphic as
labeled rooted trees, which the bottom-up codes below decide in linear
time.  Weak similarity (a bijection composed with a strictly increasing
rescaling of the spectrum) is the same comparison after replacing labels
by their ranks.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .core import Space, spectrum
from .errors import FormatMismatch
from .tree import RootedTree, build_representing_tree

MODES = ("labeled", "unlabeled", "rank_labeled")


def node_codes(tree: RootedTree, mode: str = "labeled") -> tuple[str, ...]:
    """Per-node canonical code strings for the requested mode."""
    if mode not in MODES:
        raise FormatMismatch(f"unknown canonical mode {mode!r}")
    cached = tree._code_cache.get(mode)
    if cached is not None:
        return cached
    if mode == "rank_labeled":
        ranks = {l: str(i) for i, l in enumerate(sorted(set(tree.labels)))}
        tokens = [ranks[l] for l in tree.labels]
    else:
        tokens = [""] * tree.n_nodes
    out = codes_from_tokens(tree, tokens)
    tree._code_cache[mode] = out
    return out


def codes_from_tokens(tree: RootedTree, tokens: Sequence[str]) -> tuple[str, ...]:
    """Bottom-up codes: node v reads ``tokens[v]`` followed by its
    children's codes, sorted, in parentheses."""
    code = [""] * tree.n_nodes
    for v in reversed(tree.preorder()):
        code[v] = tokens[v] + "(" + ",".join(sorted(code[c] for c in tree.children[v])) + ")"
    return tuple(code)


def canonical_code(tree: RootedTree, mode: str = "labeled") -> str:
    """Canonical code of the whole tree; equal codes iff isomorphic in the mode.

    Modes: "labeled" keeps exact labels, "unlabeled" keeps only the shape,
    "rank_labeled" replaces each label by its rank within the tree's label
    set, which is exactly invariance under strictly increasing rescaling.
    """
    return node_codes(tree, mode)[tree.root]


def are_isometric(x: Space, y: Space) -> bool:
    if len(x) != len(y):
        return False
    tx = build_representing_tree(x)
    ty = build_representing_tree(y)
    return canonical_code(tx, "labeled") == canonical_code(ty, "labeled")


def are_weakly_similar(x: Space, y: Space) -> dict[Fraction, Fraction] | None:
    """The scaling map Sp(X) -> Sp(Y) when the spaces are weakly similar, else None.

    A strictly increasing bijection between two finite chains is unique,
    so the scaling map is forced once the rank codes match.
    """
    if len(x) != len(y):
        return None
    spx, spy = spectrum(x), spectrum(y)
    if len(spx) != len(spy):
        return None
    tx = build_representing_tree(x)
    ty = build_representing_tree(y)
    if canonical_code(tx, "rank_labeled") != canonical_code(ty, "rank_labeled"):
        return None
    return dict(zip(spx, spy))


def count_self_isometries(tree: RootedTree) -> int:
    """Order of the isometry group of the space the tree represents.

    Equal to the number of automorphisms of the labeled tree: the product,
    over internal nodes, of m! for every group of m children with identical
    labeled codes.
    """
    codes = node_codes(tree, "labeled")
    total = 1
    for v in tree.internal_nodes():
        for mult in Counter(codes[c] for c in tree.children[v]).values():
            total *= math.factorial(mult)
    return total
