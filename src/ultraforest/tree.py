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

from .core import ZERO, Space, excess_pair, prim_order, rank_matrix
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
        self.labels = tuple(l if type(l) is Fraction else Fraction(l) for l in labels)
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
        self._code_cache = {"labeled": tuple(code)}  # mode -> per-node codes

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
    """Construct the canonical representing tree of a valid space, in O(n²),
    once: the space keeps it for later calls.  A failed build keeps
    nothing, and ``restrict`` passes no tree on.

    Prim's algorithm on the integer distance ranks (``core.rank_matrix``,
    kept by ``restrict``) orders the points v0..v(n-1), with edge ranks
    e1..e(n-1).  Prim finishes a ball before it leaves it, since every
    point outside a ball is farther from it than the ball's diameter, so
    d(vi, vj) = max(e(i+1)..ej), and the tree is the Cartesian tree of the
    edge ranks: a monotone stack builds it, equal neighbouring ranks under
    one node.  Leaves are numbered 0..n-1 in point order, internal nodes
    by (label, lowest point index) after them, and each label is a matrix
    entry.  Only the upper triangle counts; if it is not ultrametric,
    NotUltrametric names the first pair in (distance, i, j) order whose
    distance exceeds the largest spanning-tree edge between its points.
    """
    if space._tree is not None:
        return space._tree
    pts = space.points
    n = len(pts)
    labels: list[Fraction] = [ZERO] * n
    children: list[tuple[int, ...]] = [()] * n
    points: list[str | None] = list(pts)
    rk = rank_matrix(space)
    if any(rk[i][i] for i in range(n)):
        # an unvalidated diagonal or negative entries: put the diagonal
        # below every rank, so Prim reads only pairs
        rk = [row[:i] + (-1,) + row[i + 1 :] for i, row in enumerate(rk)]
    prim = prim_order(rk)
    if prim is None:
        i, j = excess_pair(rk)
        raise NotUltrametric(pts[i], pts[j])
    order, parent, edge = prim

    # internal node t (t >= n) has rank[t - n], label[t - n] and kids[t - n];
    # low[t] is the lowest point index under any node t
    rank: list[int] = []
    label: list[Fraction] = []
    kids: list[list[int]] = []
    low = list(range(n))
    stack: list[int] = []  # open internal nodes, ranks falling toward the top

    def adopt(t: int, c: int) -> None:
        kids[t - n].append(c)
        if low[c] < low[t]:
            low[t] = low[c]

    cur = order[0]
    for v in order[1:]:
        e = edge[v]
        while stack and rank[stack[-1] - n] < e:
            t = stack.pop()
            adopt(t, cur)
            cur = t
        if stack and rank[stack[-1] - n] == e:
            adopt(stack[-1], cur)
        else:
            p = parent[v]
            rank.append(e)
            label.append(space.dist[p][v] if p < v else space.dist[v][p])
            kids.append([cur])
            low.append(low[cur])
            stack.append(len(low) - 1)
        cur = v
    while stack:
        t = stack.pop()
        adopt(t, cur)
        cur = t

    # ids by (label, lowest point) and children by lowest point, so neither
    # node ids nor the order RootedTree checks nodes in (which names the
    # node an unvalidated matrix fails on) depend on the Prim order
    m = len(rank)
    created = sorted(range(n, n + m), key=lambda t: (rank[t - n], low[t]))
    new_id = list(range(n + m))
    for k, t in enumerate(created, n):
        new_id[t] = k
    for t in created:
        labels.append(label[t - n])
        children.append(tuple(new_id[c] for c in sorted(kids[t - n], key=low.__getitem__)))
        points.append(None)
    space._tree = RootedTree(labels, children, points, root=n + m - 1)
    return space._tree


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
