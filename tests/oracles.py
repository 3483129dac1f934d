"""Independent reference implementations used to cross-check the library.

Everything here favors directness over speed: brute force over all
triples, all bijections, all set partitions.  Nothing imports from the
modules it is meant to check except the plain data containers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from ultraforest.core import Space, restrict
from ultraforest.errors import NotUltrametric
from ultraforest.tree import RootedTree


def ultrametric_violation(matrix) -> tuple[int, int, int] | None:
    """First triple (i, j, k) with d(i,j) > max(d(i,k), d(k,j)), if any."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][j] > max(matrix[i][k], matrix[k][j]):
                    return i, j, k
    return None


def first_strong_triangle_violation(matrix) -> tuple[int, int, int] | None:
    """First triple (i < j, k not in {i, j}) with d(i,j) > max(d(i,k), d(k,j)),
    in the order i, then j, then k."""
    n = len(matrix)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k not in (i, j) and matrix[i][j] > max(matrix[i][k], matrix[k][j]):
                    return i, j, k
    return None


def all_balls(space: Space) -> set[frozenset[str]]:
    out = set()
    values = sorted({v for row in space.dist for v in row})
    for i, _p in enumerate(space.points):
        for r in values:
            out.add(
                frozenset(
                    space.points[j]
                    for j in range(len(space))
                    if space.dist[i][j] <= r
                )
            )
    return out


def find_isometry(x: Space, y: Space) -> dict[str, str] | None:
    """Backtracking search for a distance-preserving bijection."""
    if len(x) != len(y):
        return None
    n = len(x)
    assigned: list[int] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if j in assigned:
                continue
            if all(x.dist[i][k] == y.dist[j][assigned[k]] for k in range(i)):
                assigned.append(j)
                if extend(i + 1):
                    return True
                assigned.pop()
        return False

    if extend(0):
        return {x.points[i]: y.points[assigned[i]] for i in range(n)}
    return None


def count_isometries(x: Space) -> int:
    """Number of self-bijections preserving every distance."""
    n = len(x)
    count = 0
    assigned: list[int] = []

    def extend(i: int):
        nonlocal count
        if i == n:
            count += 1
            return
        for j in range(n):
            if j in assigned:
                continue
            if all(x.dist[i][k] == x.dist[j][assigned[k]] for k in range(i)):
                assigned.append(j)
                extend(i + 1)
                assigned.pop()

    extend(0)
    return count


def find_weak_similarity(x: Space, y: Space) -> dict | None:
    """The order isomorphism of spectra paired with a point bijection, when
    one exists making the diagram commute."""
    spx = sorted({v for row in x.dist for v in row})
    spy = sorted({v for row in y.dist for v in row})
    if len(x) != len(y) or len(spx) != len(spy):
        return None
    scale = dict(zip(spx, spy))
    rescaled = Space(
        x.points, tuple(tuple(scale[v] for v in row) for row in x.dist)
    )
    if find_isometry(rescaled, y) is None:
        return None
    return scale


def set_partitions(items: tuple):
    """All partitions of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (first,)] + part[i + 1 :]
        yield part + [(first,)]


def multipartite_parts_brute(vertices, edges) -> list[frozenset] | None:
    """Try every partition; return the one realizing a complete
    multipartite structure with at least two parts."""
    verts = tuple(sorted(vertices))
    edge_set = {frozenset(e) for e in edges}
    for blocks in set_partitions(verts):
        if len(blocks) < 2:
            continue
        ok = True
        for a, b in combinations(range(len(blocks)), 2):
            for u in blocks[a]:
                for v in blocks[b]:
                    if frozenset((u, v)) not in edge_set:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            for block in blocks:
                for u, v in combinations(block, 2):
                    if frozenset((u, v)) in edge_set:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            return sorted(
                (frozenset(b) for b in blocks), key=lambda s: (len(s), min(s))
            )
    return None


def recursive_tree_code(space: Space) -> str:
    """Labeled canonical code built by the direct recursive construction:
    split at the diameter into complement components, recurse."""
    n = len(space)
    if n == 1:
        return "0()"
    diam = max(v for row in space.dist for v in row)
    parts: list[set[str]] = []
    for i, p in enumerate(space.points):
        placed = False
        for part in parts:
            rep = next(iter(part))
            if space.dist[i][space.index(rep)] < diam:
                part.add(p)
                placed = True
                break
        if not placed:
            parts.append({p})
    codes = sorted(recursive_tree_code(restrict(space, part)) for part in parts)
    return f"{diam}({','.join(codes)})"


def path_max_distance_brute(vertices, edges, labels, u, v) -> Fraction:
    """Max label along the unique u-v path, found by DFS."""
    if u == v:
        return Fraction(0)
    adj: dict[str, list[str]] = {w: [] for w in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def dfs(node, target, seen):
        if node == target:
            return [node]
        seen.add(node)
        for nxt in adj[node]:
            if nxt in seen:
                continue
            tail = dfs(nxt, target, seen)
            if tail is not None:
                return [node] + tail
        return None

    path = dfs(u, v, set())
    assert path is not None, "tree must be connected"
    return max(labels[w] for w in path)


@lru_cache(maxsize=None)
def shape_count(n: int) -> int:
    """Number of rooted shapes with n leaves where every internal node has
    at least two children, via the multiset recurrence."""
    if n == 1:
        return 1

    @lru_cache(maxsize=None)
    def forests(total: int, max_size: int) -> int:
        # multisets of shapes, each with <= max_size leaves, summing to total
        if total == 0:
            return 1
        if max_size == 0:
            return 0
        acc = 0
        j = 0
        while j * max_size <= total:
            ways = comb(shape_count(max_size) + j - 1, j)
            acc += ways * forests(total - j * max_size, max_size - 1)
            j += 1
        return acc

    return forests(n, n - 1)


def all_small_ultrametrics(n: int, values: tuple[int, ...]):
    """Every ultrametric matrix on n points with positive entries drawn
    from ``values``; complete for weak-similarity purposes when
    len(values) >= n - 1."""
    pts = tuple(f"p{i}" for i in range(n))
    pairs = list(combinations(range(n), 2))
    for combo in _assignments(len(pairs), values):
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(pairs, combo):
            matrix[i][j] = matrix[j][i] = Fraction(v)
        if ultrametric_violation(matrix) is None:
            yield Space(pts, tuple(tuple(row) for row in matrix))


def _assignments(k: int, values):
    if k == 0:
        yield ()
        return
    for rest in _assignments(k - 1, values):
        for v in values:
            yield rest + (v,)


def bucket_merge_tree(space: Space) -> RootedTree:
    """The representing tree by merging clusters in ascending distance order.

    The pairs (i < j) are bucketed by their distance; the clusters joined
    by a bucket become the children of a node labeled with its value, in
    the order the pairs first touch them, and nodes are numbered as they
    are made.  A pair whose points some smaller distances already join
    raises NotUltrametric.
    """
    pts = space.points
    n = len(pts)
    labels: list = [Fraction(0)] * n
    children: list[tuple[int, ...]] = [()] * n
    points: list[str | None] = list(pts)
    if n == 1:
        return RootedTree(labels, children, points, root=0)

    buckets: dict = {}
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
            olds.setdefault(ri, node_of[ri])
            olds.setdefault(rj, node_of[rj])
        for i, j in edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                dsu[ri] = rj
        groups: dict[int, list[int]] = {}
        for r, nid in olds.items():
            groups.setdefault(find(r), []).append(nid)
        for nr, kids in groups.items():
            node_of[nr] = len(labels)
            labels.append(value)
            children.append(tuple(kids))
            points.append(None)
    return RootedTree(labels, children, points, root=len(labels) - 1)


def hereditary_by_deletion_lattice(space: Space, member) -> bool:
    """Whether every subspace of at least two points satisfies ``member``
    (a predicate on spaces), by walking the one-point-deletion lattice
    down from the whole space and testing each subset once."""
    seen: set[frozenset[str]] = set()
    stack = [frozenset(space.points)]
    while stack:
        current = stack.pop()
        if len(current) < 3:
            continue
        for x in current:
            key = current - {x}
            if key in seen:
                continue
            seen.add(key)
            if not member(restrict(space, key)):
                return False
            stack.append(key)
    return True
