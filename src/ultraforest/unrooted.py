"""Unrooted vertex-labeled trees and the ultrametrics they generate.

A free tree T with nonnegative vertex labels defines a distance between
vertices as the maximum label along the connecting path, endpoints
included.  That distance is an ultrametric exactly when every edge has at
least one endpoint with a positive label.  A space arises this way iff
every internal node of its representing tree has at least one leaf child;
the conversion below realizes that criterion constructively.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .core import ZERO, Space, Verdict, path_max
from .errors import (
    FormatMismatch,
    MissingLeafChild,
    NotUltrametricGenerating,
    UnknownVertex,
)
from .tree import RootedTree


class UnrootedTree:
    """A connected acyclic graph with a nonnegative rational label per vertex."""

    __slots__ = ("vertices", "edges", "labels", "_adj")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]],
        labels: Mapping[str, Fraction],
    ):
        self.vertices = tuple(vertices)
        vs = set(self.vertices)
        if not vs:
            raise FormatMismatch("an unrooted tree needs at least one vertex")
        if len(vs) != len(self.vertices):
            raise FormatMismatch("vertex ids must be pairwise distinct")
        norm = set()
        for u, v in edges:
            if u == v:
                raise FormatMismatch(f"loop at vertex {u!r}")
            if u not in vs or v not in vs:
                raise FormatMismatch(f"edge ({u!r}, {v!r}) leaves the vertex set")
            norm.add((u, v) if u <= v else (v, u))
        self.edges = frozenset(norm)
        if len(self.edges) != len(self.vertices) - 1:
            raise FormatMismatch("edge count must be vertex count minus one")
        lab = {}
        for v in self.vertices:
            if v not in labels:
                raise FormatMismatch(f"vertex {v!r} has no label")
            q = Fraction(labels[v])
            if q < 0:
                raise FormatMismatch(f"vertex {v!r} has a negative label")
            lab[v] = q
        self.labels = lab
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = adj
        # connected + |E| = |V| - 1 together give acyclicity
        if len(_walk(self, self.vertices[0])[0]) != len(self.vertices):
            raise FormatMismatch("tree is not connected")

    def __repr__(self) -> str:
        return f"UnrootedTree({len(self.vertices)} vertices)"


def _walk(tree: UnrootedTree, source: str) -> tuple[list[str], dict[str, str]]:
    """The breadth-first visit order from ``source`` and each reached
    vertex's parent; the source is its own parent."""
    parent = {source: source}
    order = [source]
    for v in order:
        for w in tree._adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    return order, parent


def path_max_distance(tree: UnrootedTree, u: str, v: str) -> Fraction:
    """Maximum vertex label along the path from u to v, endpoints included."""
    for x in (u, v):
        if x not in tree.labels:
            raise UnknownVertex(x)
    if u == v:
        return ZERO
    parent = _walk(tree, u)[1]
    best = tree.labels[v]
    while v != u:
        v = parent[v]
        best = max(best, tree.labels[v])
    return best


def generates_ultrametric(tree: UnrootedTree) -> Verdict:
    """True iff every edge has an endpoint with positive label; witness: a bad edge."""
    for u, v in sorted(tree.edges):
        if tree.labels[u] == 0 and tree.labels[v] == 0:
            return Verdict(False, witness=(u, v))
    return Verdict(True)


def space_from_unrooted(tree: UnrootedTree) -> Space:
    """The ultrametric space on the vertex set under path-maximum distance.

    A path's largest label is its largest edge weight, an edge weighing the
    larger label of its ends, so one walk and ``core.path_max`` fill the
    ranks of {0} and the edge weights in O(n²); the space keeps them.
    """
    check = generates_ultrametric(tree)
    if not check:
        raise NotUltrametricGenerating(check.witness)
    pts = tree.vertices
    index = {p: i for i, p in enumerate(pts)}
    order, parent = _walk(tree, pts[0])
    weight = [max(tree.labels[p], tree.labels[parent[p]]) if p != pts[0] else ZERO for p in pts]
    values = sorted(set(weight))
    rank = {q: r for r, q in enumerate(values)}
    pm = path_max([index[p] for p in order], [index[parent[p]] for p in pts], [rank[q] for q in weight])
    space = Space(pts, [tuple(map(values.__getitem__, row)) for row in pm])
    space._ranks = [tuple(row) for row in pm]
    space._spectrum = tuple(values)
    return space


def has_leaf_child_everywhere(tree: RootedTree) -> Verdict:
    """True iff every internal node has at least one leaf child; witness: a node without."""
    for v in tree.preorder():
        if not tree.is_leaf(v) and not any(tree.is_leaf(c) for c in tree.children[v]):
            return Verdict(False, witness=v)
    return Verdict(True)


def unrooted_from_representing(tree: RootedTree) -> UnrootedTree:
    """Build an unrooted labeled tree generating the same space.

    Each internal node's leaf children become a chain carrying that node's
    label; the chain of a deeper internal node hangs off the last chain
    vertex of its parent.  Requires a leaf child on every internal node.
    """
    check = has_leaf_child_everywhere(tree)
    if not check:
        raise MissingLeafChild(check.witness)
    labels = {p: ZERO for p in tree.leaf_points()}  # a one-point tree keeps 0
    edges: list[tuple[str, str]] = []
    last: dict[int, str] = {}  # internal node -> last vertex of its chain
    for v in tree.internal_nodes():
        chain = [tree.points[c] for c in tree.children[v] if tree.is_leaf(c)]
        for p in chain:
            labels[p] = tree.labels[v]
        if v != tree.root:
            edges.append((last[tree.parent(v)], chain[0]))
        edges.extend(zip(chain, chain[1:]))
        last[v] = chain[-1]
    return UnrootedTree(list(labels), edges, labels)
