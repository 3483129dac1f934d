"""Enumeration and random generation of small ultrametric spaces.

A shape is a rooted tree with every internal out-degree >= 2, up to
isomorphism: a nested tuple, () for a leaf, otherwise the sorted tuple of
its child shapes.  A weak-similarity class is a shape whose internal nodes
carry ranks 1..m, strictly decreasing away from the root.  Its vector lists
the node labels, 0 at the leaves, in the preorder of its least arrangement:
equal-shaped siblings in the order that makes the vector lexicographically
least.  One multiset recursion generates every class once, with no
deduplication.  Classes come sorted by (shape, vector); each is realized
with its ranks as labels and its leaves named x1..xn in the preorder of its
least arrangement.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .core import ZERO, Space
from .errors import FormatMismatch
from .tree import RootedTree, tree_to_space
from .unrooted import UnrootedTree


def shape_leaf_count(shape) -> int:
    if shape == ():
        return 1
    return sum(shape_leaf_count(c) for c in shape)


def _classes(n_leaves: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """(shape, vector) of every class on n_leaves points, sorted; every
    table lives in this call.

    A class with ranks 1..m is a root ranked m over a multiset of at least
    two children, each a leaf or a smaller class moved by an order-preserving
    map onto ranks; together they cover 1..m-1, and equal children come in
    non-decreasing vectors.  The map keeps a child's shape and child order,
    so sorting the children by (shape, vector) gives the least arrangement.
    """
    if n_leaves < 1:
        raise FormatMismatch("shapes need at least one leaf")
    table = [[], [((), (0,))]]  # table[k]: the classes on k leaves
    for n in range(2, n_leaves + 1):
        pool = [(k, shape, vec) for k in range(n - 1, 0, -1) for shape, vec in table[k]]
        # pool[first[k]:] are the entries with at most k leaves
        first = [sum(map(len, table[k + 1 : n])) for k in range(n + 1)]
        found: list[tuple[tuple, tuple[int, ...]]] = []

        def grow(start, placed, left, taken):
            # placed: the children so far, each a (shape, vector) on its
            # ranks, drawn from pool[:start + 1] in pool order, largest
            # first; taken: the ranks they use, and 0
            if not left:
                shapes, vecs = zip(*sorted(placed))
                found.append((shapes, (max(taken) + 1,) + sum(vecs, ())))
                return
            for i in range(max(start, first[left]), len(pool)):
                k, shape, vec = pool[i]
                # a child on k leaves has at most k - 1 ranks, so the later
                # children add at most this many
                later = max(left - k - 1, 0)
                for a in combinations(range(1, len(taken) + max(vec) + later), max(vec)):
                    more = taken.union(a)
                    if max(more) < len(more) + later:  # the gaps can be filled
                        mapped = tuple([a[r - 1] if r else 0 for r in vec])
                        # equal children come in non-decreasing vectors
                        if i != start or not placed or mapped >= placed[-1][1]:
                            grow(i, placed + [(shape, mapped)], left - k, more)

        grow(0, [], n, {0})
        table.append(sorted(found))
    return table[n_leaves]


@lru_cache(maxsize=None)
def enumerate_shapes(n_leaves: int) -> tuple:
    """All shapes with the given number of leaves, sorted canonically."""
    return tuple(dict.fromkeys(shape for shape, _ in _classes(n_leaves)))


@lru_cache(maxsize=None)
def enumerate_rank_trees(n_leaves: int) -> tuple[RootedTree, ...]:
    """Representing trees of all weak-similarity classes on n_leaves
    points, in ``_classes`` order, the leaves named x1..xn in the preorder
    of each class's least arrangement."""
    ranks = [ZERO] + [Fraction(r) for r in range(1, n_leaves)]
    out = []
    drawn = None
    for shape, vec in _classes(n_leaves):
        if shape != drawn:
            # the children and points of the shape, nodes in preorder
            drawn, children, points, leaves = shape, [], [], 0
            stack = [(shape, [])]
            while stack:
                node, siblings = stack.pop()
                siblings.append(len(points))
                children.append([])
                stack.extend((c, children[-1]) for c in reversed(node))
                leaves += not node
                points.append(None if node else f"x{leaves}")
        out.append(RootedTree([ranks[r] for r in vec], children, points))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_spaces(n_leaves: int) -> tuple[Space, ...]:
    """One space per weak-similarity class, labels realized as ranks 1..m."""
    return tuple(tree_to_space(t) for t in enumerate_rank_trees(n_leaves))


_LABEL_STEPS = (
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(1, 4),
    Fraction(3, 4),
    Fraction(5, 6),
)


def random_space(n: int, seed) -> Space:
    """A pseudo-random n-point ultrametric space; same (n, seed) -> same space.

    Built by drawing a random shape and scaling each internal label down
    from its parent by a random rational step, so repeated labels across
    branches (and the structure classes that depend on them) occur often.
    """
    if n < 1:
        raise FormatMismatch("spaces need at least one point")
    rng = random.Random(seed)
    labels: list[Fraction] = []
    children: list[tuple[int, ...]] = []
    points: list[str | None] = []
    leaf_seen = 0
    # stack of (leaf budget, node id); labels assigned top-down
    labels.append(ZERO)
    children.append(())
    points.append(None)
    stack = [(n, 0, None)]
    while stack:
        budget, idx, parent_label = stack.pop()
        if budget == 1:
            leaf_seen += 1
            points[idx] = f"x{leaf_seen}"
            continue
        if parent_label is None:
            label = Fraction(rng.randint(4, 12))
        else:
            label = parent_label * rng.choice(_LABEL_STEPS)
        labels[idx] = label
        k = rng.randint(2, min(budget, 4))
        cuts = sorted(rng.sample(range(1, budget), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        kid_ids = []
        for size in sizes:
            cid = len(labels)
            labels.append(ZERO)
            children.append(())
            points.append(None)
            kid_ids.append(cid)
            stack.append((size, cid, label))
        children[idx] = tuple(kid_ids)
    return tree_to_space(RootedTree(labels, children, points, root=0))


def random_unrooted(n: int, seed) -> UnrootedTree:
    """A pseudo-random vertex-labeled free tree that generates an ultrametric."""
    if n < 1:
        raise FormatMismatch("trees need at least one vertex")
    rng = random.Random(seed)
    vertices = [f"x{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        edges.append((vertices[rng.randrange(i)], vertices[i]))
    labels = {v: Fraction(rng.randint(1, 9)) for v in vertices}
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = list(vertices)
    rng.shuffle(order)
    for v in order:
        # zero labels are allowed on an independent set only
        if rng.random() < 0.25 and all(labels[w] != 0 for w in adj[v]):
            labels[v] = ZERO
    return UnrootedTree(vertices, edges, labels)
