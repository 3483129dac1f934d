"""Level graphs of an ultrametric space and complete multipartite structure.

The level graph at value r joins exactly the point pairs at distance r.
At r = diam X it is the diametrical graph, which is always complete
multipartite; after stripping isolated vertices, every level graph is a
disjoint union of complete multipartite graphs, one per internal tree node
carrying label r, whose parts are the leaf sets of that node's children.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import Space, spectrum
from .errors import AllVerticesIsolated, FormatMismatch, ValueNotInSpectrum, ZeroRadius
from .tree import build_representing_tree


@dataclass(frozen=True)
class SimpleGraph:
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]  # each edge stored as a sorted pair

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def make_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> SimpleGraph:
    vs = frozenset(vertices)
    norm = set()
    for u, v in edges:
        if u == v:
            raise FormatMismatch(f"loop at vertex {u!r}")
        if u not in vs or v not in vs:
            raise FormatMismatch(f"edge ({u!r}, {v!r}) leaves the vertex set")
        norm.add((u, v) if u <= v else (v, u))
    return SimpleGraph(vs, frozenset(norm))


def level_graph(space: Space, r: Fraction) -> SimpleGraph:
    """The graph joining point pairs at distance exactly r (r > 0, r in Sp(X))."""
    r = Fraction(r)
    if r == 0:
        raise ZeroRadius()
    if r not in spectrum(space):
        raise ValueNotInSpectrum(r)
    pts = space.points
    edges = set()
    for i in range(len(pts)):
        row = space.dist[i]
        for j in range(i + 1, len(pts)):
            if row[j] == r:
                edges.add((pts[i], pts[j]) if pts[i] <= pts[j] else (pts[j], pts[i]))
    return SimpleGraph(frozenset(pts), frozenset(edges))


def strip_isolated(g: SimpleGraph) -> SimpleGraph:
    """Drop all isolated vertices; error out if nothing would remain."""
    if not g.edges:
        raise AllVerticesIsolated()
    keep = set()
    for u, v in g.edges:
        keep.add(u)
        keep.add(v)
    return SimpleGraph(frozenset(keep), g.edges)


def connected_components(g: SimpleGraph) -> list[SimpleGraph]:
    """Induced connected components, sorted by (size, smallest vertex)."""
    adj = g.adjacency()
    unseen = set(g.vertices)
    comps = []
    while unseen:
        seed = unseen.pop()
        block = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in unseen:
                    unseen.remove(w)
                    block.add(w)
                    frontier.append(w)
        edges = frozenset(e for e in g.edges if e[0] in block)
        comps.append(SimpleGraph(frozenset(block), edges))
    comps.sort(key=lambda c: (len(c.vertices), min(c.vertices)))
    return comps


def complete_multipartite_parts(g: SimpleGraph) -> list[frozenset[str]] | None:
    """The parts of g if g is complete multipartite (>= 2 parts), else None.

    Candidate parts are the connected components of the complement graph;
    the candidate is accepted iff no edge stays inside a part and the edge
    count matches the full cross-part count.  Sorted by (size, min vertex).
    """
    if not g.vertices:
        raise FormatMismatch("graph has no vertices")
    adj = g.adjacency()
    unseen = set(g.vertices)
    parts: list[set[str]] = []
    while unseen:
        seed = unseen.pop()
        block = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            mates = unseen - adj[v]
            unseen -= mates
            block.update(mates)
            frontier.extend(mates)
        parts.append(block)
    if len(parts) < 2:
        return None
    where: dict[str, int] = {}
    for k, block in enumerate(parts):
        for v in block:
            where[v] = k
    for u, v in g.edges:
        if where[u] == where[v]:
            return None
    n = len(g.vertices)
    cross = (n * n - sum(len(b) * len(b) for b in parts)) // 2
    if len(g.edges) != cross:
        return None
    out = [frozenset(b) for b in parts]
    out.sort(key=lambda s: (len(s), min(s)))
    return out


def decompose_level_graph(space: Space, r: Fraction) -> list[tuple[int, list[frozenset[str]]]]:
    """Pieces of the stripped level graph at r, read off the representing tree.

    One piece per internal node labeled r, given as (node id, ball
    partition); the partition's parts are the parts of that piece as a
    complete multipartite graph.  The internal labels are the positive
    spectrum values, so r is in the spectrum iff some node carries it.
    """
    r = Fraction(r)
    if r == 0:
        raise ZeroRadius()
    tree = build_representing_tree(space)
    pieces = [(v, tree.ball_partition(v)) for v in tree.preorder() if tree.labels[v] == r]
    if not pieces:
        raise ValueNotInSpectrum(r)
    return pieces
