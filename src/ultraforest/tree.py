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
from itertools import accumulate
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
    away from the root, pairwise distinct leaf points), orders each child
    tuple canonically and numbers the nodes in that canonical preorder, root
    0, so ids, traversals and output depend on the labeled tree alone.
    """

    __slots__ = (
        "labels",
        "children",
        "points",
        "root",
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
        labels = [l if type(l) is Fraction else Fraction(l) for l in labels]
        kids = [tuple(ch) for ch in children]

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
                if labels[v] != 0:
                    raise InvalidTree(f"leaf {v} must carry label 0, got {labels[v]}")
                p = points[v]
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
                if points[v] is not None:
                    raise InvalidTree(f"internal node {v} must not carry a point id")
                ordered = sorted(ch, key=lambda c: (code[c], minleaf[c]))
                kids[v] = tuple(ordered)
                code[v] = str(labels[v]) + "(" + ",".join(code[c] for c in ordered) + ")"
                minleaf[v] = min(minleaf[c] for c in ch)

        # node i is order[i], the i-th node of the canonical preorder
        new = [0] * n  # input id -> canonical id
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            new[v] = len(order)
            order.append(v)
            stack.extend(reversed(kids[v]))
        self.labels = lab = tuple([labels[v] for v in order])
        self.points = tuple([points[v] for v in order])
        self.root = 0
        remapped: list[tuple[int, ...]] = [()] * n
        for i in range(n - 1, -1, -1):
            ch = kids[order[i]]
            if ch:
                ch = remapped[i] = tuple([new[c] for c in ch])
                if lab[i] <= 0:
                    raise InvalidTree(f"internal node {i} needs a positive label")
                for c in ch:
                    if lab[i] <= lab[c]:
                        raise LabelMonotonicityViolation(lab[i], lab[c])
        self.children = tuple(remapped)
        self._parent = None
        self._level = None
        self._leaf_sets = None
        self._code_cache = {"labeled": tuple([code[v] for v in order])}  # mode -> per-node codes

    # ------------------------------------------------------------ queries

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def out_degree(self, v: int) -> int:
        return len(self.children[v])

    def preorder(self) -> range:
        """Every node, parents before children, children in canonical order:
        ``range(n_nodes)``, since node ids are canonical preorder positions.
        ``reversed(tree.preorder())`` lists every child before its parent.
        """
        return range(len(self.labels))

    def _structure(self):
        if self._parent is None:
            parent = [-1] * self.n_nodes
            level = [0] * self.n_nodes
            for v in range(self.n_nodes):
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
            for u in range(self.n_nodes - 1, -1, -1):
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
        return [v for v, ch in enumerate(self.children) if not ch]

    def internal_nodes(self) -> list[int]:
        return [v for v, ch in enumerate(self.children) if ch]

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
    one node, and each label is a matrix entry.  ``RootedTree`` numbers
    the nodes in canonical preorder, so no id depends on the Prim order or
    the point order.  Only the upper triangle counts; if it is not
    ultrametric, NotUltrametric names the first pair in (distance, i, j)
    order whose distance exceeds the largest spanning-tree edge between
    its points.
    """
    if space._tree is not None:
        return space._tree
    pts = space.points
    n = len(pts)
    labels: list[Fraction] = [ZERO] * n
    children: list[list[int]] = [[] for _ in range(n)]
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

    # internal node n + k is the k-th the stack creates and has rank[k]
    rank: list[int] = []
    stack: list[int] = []  # open internal nodes, ranks falling toward the top
    cur = order[0]
    for v in order[1:]:
        e = edge[v]
        while stack and rank[stack[-1] - n] < e:
            t = stack.pop()
            children[t].append(cur)
            cur = t
        if stack and rank[stack[-1] - n] == e:
            children[stack[-1]].append(cur)
        else:
            p = parent[v]
            rank.append(e)
            labels.append(space.dist[p][v] if p < v else space.dist[v][p])
            children.append([cur])
            points.append(None)
            stack.append(len(labels) - 1)
        cur = v
    while stack:
        t = stack.pop()
        children[t].append(cur)
        cur = t
    space._tree = RootedTree(labels, children, points, root=cur)
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
    tree's canonical leaf order.  The space keeps the tree: building the
    representing tree from its matrix gives this tree node for node.
    """
    pts = tree.leaf_points()
    n = len(pts)
    matrix: list[list[Fraction]] = [[ZERO] * n for _ in range(n)]
    # node ids are preorder positions, so the leaves under node v hold the
    # leaf positions first[v] .. end[v] - 1, the children's runs in order
    first = list(accumulate((not ch for ch in tree.children), initial=0))
    end = first[1:]
    for v in reversed(tree.internal_nodes()):
        ch, label = tree.children[v], tree.labels[v]
        end[v] = hi = end[ch[-1]]
        for c in ch[:-1]:
            lo, mid = first[c], end[c]
            for i in range(lo, mid):
                matrix[i][mid:hi] = [label] * (hi - mid)
            for j in range(mid, hi):
                matrix[j][lo:mid] = [label] * (mid - lo)
    space = Space(pts, matrix)
    space._tree = tree
    return space


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
