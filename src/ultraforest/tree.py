"""Canonical representing trees of finite ultrametric spaces.

Every finite ultrametric space X has a rooted tree whose leaves are the
points of X and whose internal nodes carry the diameters of the balls they
span: the root is labeled diam X, its children span the parts of the
diametrical graph (a complete multipartite graph), and so on recursively.
The distance between two points is then the label of their lowest common
ancestor, and the tree is unique up to isomorphism of labeled rooted trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import ZERO, Space
from .errors import (
    InvalidTree,
    LabelMonotonicityViolation,
    NotUltrametric,
    SingletonSpace,
    UnknownNode,
)


@dataclass(frozen=True)
class NodeInfo:
    level: int
    out_degree: int
    leaf_set: frozenset[str]


class RootedTree:
    """A labeled rooted tree stored as flat parallel arrays.

    Node ``v`` has label ``labels[v]``, ordered children ``children[v]`` and,
    when it is a leaf, the point id ``points[v]``.  Construction validates the
    shape (internal out-degree >= 2, leaf labels 0, labels strictly decreasing
    away from the root, pairwise distinct leaf points) and normalizes each
    child tuple into canonical order, so equal trees print and traverse
    identically no matter how they were assembled.
    """

    __slots__ = (
        "labels",
        "children",
        "points",
        "root",
        "_labeled_code",
        "_preorder",
        "_parent",
        "_level",
        "_leaf_sets",
        "_code_cache",
    )

    def __init__(
        self,
        labels: Sequence[Fraction],
        children: Sequence[Sequence[int]],
        points: Sequence[str | None],
        root: int = 0,
    ):
        n = len(labels)
        if not (len(children) == len(points) == n) or n == 0:
            raise InvalidTree("labels, children and points must be parallel nonempty arrays")
        if not 0 <= root < n:
            raise UnknownNode(root)
        self.labels = tuple(Fraction(l) for l in labels)
        kids = [tuple(ch) for ch in children]
        self.points = tuple(points)
        self.root = root

        seen = [False] * n
        order: list[int] = []  # preorder in input child order
        stack = [root]
        while stack:
            v = stack.pop()
            if seen[v]:
                raise InvalidTree(f"node {v} is referenced more than once")
            seen[v] = True
            order.append(v)
            for c in kids[v]:
                if not 0 <= c < n:
                    raise UnknownNode(c)
            stack.extend(reversed(kids[v]))
        if not all(seen):
            stray = seen.index(False)
            raise InvalidTree(f"node {stray} is not reachable from the root")

        code: list[str] = [""] * n
        minleaf: list[str] = [""] * n
        pointset: set[str] = set()
        for v in reversed(order):
            ch = kids[v]
            if not ch:
                if self.labels[v] != 0:
                    raise InvalidTree(f"leaf {v} must carry label 0, got {self.labels[v]}")
                p = self.points[v]
                if p is None:
                    raise InvalidTree(f"leaf {v} carries no point id")
                if p in pointset:
                    raise InvalidTree(f"point id {p!r} appears on two leaves")
                pointset.add(p)
                code[v] = "0()"
                minleaf[v] = p
            else:
                if len(ch) < 2:
                    raise InvalidTree(f"internal node {v} has out-degree {len(ch)}")
                if self.points[v] is not None:
                    raise InvalidTree(f"internal node {v} must not carry a point id")
                if self.labels[v] <= 0:
                    raise InvalidTree(f"internal node {v} needs a positive label")
                for c in ch:
                    if self.labels[v] <= self.labels[c]:
                        raise LabelMonotonicityViolation(self.labels[v], self.labels[c])
                ordered = sorted(ch, key=lambda c: (code[c], minleaf[c]))
                kids[v] = tuple(ordered)
                code[v] = str(self.labels[v]) + "(" + ",".join(code[c] for c in ordered) + ")"
                minleaf[v] = min(minleaf[c] for c in ch)

        self.children = tuple(kids)
        self._labeled_code = tuple(code)
        order = []  # the same walk over the canonical child order
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(kids[v]))
        self._preorder = tuple(order)
        self._parent = None
        self._level = None
        self._leaf_sets = None
        self._code_cache = {}

    # ------------------------------------------------------------ queries

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def out_degree(self, v: int) -> int:
        return len(self.children[v])

    def preorder(self) -> tuple[int, ...]:
        """Every node, parents before children, children in canonical order.

        Computed once, at construction; ``reversed(tree.preorder())`` lists
        every child before its parent.
        """
        return self._preorder

    def _structure(self):
        if self._parent is None:
            parent = [-1] * self.n_nodes
            level = [0] * self.n_nodes
            for v in self._preorder:
                for c in self.children[v]:
                    parent[c] = v
                    level[c] = level[v] + 1
            self._parent = parent
            self._level = level
        return self._parent, self._level

    def parent(self, v: int) -> int:
        return self._structure()[0][v]

    def level(self, v: int) -> int:
        return self._structure()[1][v]

    def leaf_set(self, v: int) -> frozenset[str]:
        if self._leaf_sets is None:
            sets: list[frozenset[str] | None] = [None] * self.n_nodes
            for u in reversed(self._preorder):
                if self.is_leaf(u):
                    sets[u] = frozenset((self.points[u],))
                else:
                    acc = set()
                    for c in self.children[u]:
                        acc.update(sets[c])
                    sets[u] = frozenset(acc)
            self._leaf_sets = tuple(sets)
        return self._leaf_sets[v]

    def ball_partition(self, v: int) -> list[frozenset[str]]:
        """The leaf sets of v's children, in child order: the maximal proper
        sub-balls of the ball at v, which sit pairwise at distance labels[v]."""
        return [self.leaf_set(c) for c in self.children[v]]

    def leaves(self) -> list[int]:
        return [v for v in self._preorder if not self.children[v]]

    def internal_nodes(self) -> list[int]:
        return [v for v in self._preorder if self.children[v]]

    def leaf_points(self) -> list[str]:
        return [self.points[v] for v in self.leaves()]

    def __repr__(self) -> str:
        return f"RootedTree({self.n_nodes} nodes, root label {self.labels[self.root]})"


def build_representing_tree(space: Space) -> RootedTree:
    """Construct the canonical representing tree of a valid space.

    Works by merging clusters in ascending distance order: the clusters
    joined by pairs at distance v become the children of a node labeled v.
    For an ultrametric this reproduces exactly the recursive decomposition
    of each ball into the parts of its diametrical graph.  A pair whose
    distance exceeds a chain of smaller distances between its points
    raises NotUltrametric.
    """
    pts = space.points
    n = len(pts)
    labels: list[Fraction] = [ZERO] * n
    children: list[tuple[int, ...]] = [()] * n
    points: list[str | None] = list(pts)
    if n == 1:
        return RootedTree(labels, children, points, root=0)

    buckets: dict[Fraction, list[tuple[int, int]]] = {}
    for i in range(n):
        row = space.dist[i]
        for j in range(i + 1, n):
            buckets.setdefault(row[j], []).append((i, j))

    dsu = list(range(n))

    def find(a: int) -> int:
        while dsu[a] != a:
            dsu[a] = dsu[dsu[a]]
            a = dsu[a]
        return a

    node_of = {i: i for i in range(n)}
    for value in sorted(buckets):
        edges = buckets[value]
        olds: dict[int, int] = {}
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri == rj:
                raise NotUltrametric(pts[i], pts[j])
            if ri not in olds:
                olds[ri] = node_of[ri]
            if rj not in olds:
                olds[rj] = node_of[rj]
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                dsu[ri] = rj
        groups: dict[int, list[int]] = {}
        for r, nid in olds.items():
            groups.setdefault(find(r), []).append(nid)
        for nr, kids in groups.items():
            nid = len(labels)
            labels.append(value)
            children.append(tuple(kids))
            points.append(None)
            node_of[nr] = nid
    return RootedTree(labels, children, points, root=len(labels) - 1)


def multipartite_parts(space: Space) -> list[frozenset[str]]:
    """Parts of the diametrical graph of the space.

    Two points share a part iff their distance is strictly below the
    diameter, so the parts are the root's ball partition.  Sorted by
    (size, smallest point) for determinism.
    """
    if len(space) < 2:
        raise SingletonSpace("multipartite_parts")
    tree = build_representing_tree(space)
    parts = tree.ball_partition(tree.root)
    parts.sort(key=lambda s: (len(s), min(s)))
    return parts


def tree_to_space(tree: RootedTree) -> Space:
    """The ultrametric space a representing tree stands for.

    Distances are lowest-common-ancestor labels; points come out in the
    tree's canonical leaf order.
    """
    pts = tree.leaf_points()
    n = len(pts)
    pos = {v: i for i, v in enumerate(tree.leaves())}
    matrix: list[list[Fraction]] = [[ZERO] * n for _ in range(n)]
    leaf_lists: dict[int, list[int]] = {}
    for v in reversed(tree.preorder()):
        if tree.is_leaf(v):
            leaf_lists[v] = [pos[v]]
            continue
        lists = [leaf_lists.pop(c) for c in tree.children[v]]
        label = tree.labels[v]
        for a in range(len(lists)):
            for b in range(a + 1, len(lists)):
                for i in lists[a]:
                    row = matrix[i]
                    for j in lists[b]:
                        row[j] = label
                        matrix[j][i] = label
        merged: list[int] = []
        for lst in lists:
            merged.extend(lst)
        leaf_lists[v] = merged
    return Space(pts, matrix)


def ballean(tree: RootedTree) -> list[frozenset[str]]:
    """All balls of the space, one per tree node, in preorder.

    The map node -> leaf set is a bijection onto the ballean.
    """
    return [tree.leaf_set(v) for v in tree.preorder()]


def node_info(tree: RootedTree, v: int) -> NodeInfo:
    if not isinstance(v, int) or not 0 <= v < tree.n_nodes:
        raise UnknownNode(v)
    return NodeInfo(level=tree.level(v), out_degree=tree.out_degree(v), leaf_set=tree.leaf_set(v))


def height(tree: RootedTree) -> int:
    return max(tree.level(v) for v in tree.leaves())


def max_out_degree(tree: RootedTree) -> int:
    return max(tree.out_degree(v) for v in tree.preorder())
