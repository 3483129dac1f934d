"""Finite ultrametric spaces with exact rational distances.

A space is a tuple of named points together with a symmetric matrix of
nonnegative rationals satisfying the strong triangle inequality

    d(x, y) <= max(d(x, z), d(z, y))   for all x, y, z.

All arithmetic is exact; floating point never enters the core.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import gt
from typing import Any, Iterable, Iterator, Sequence

from .errors import (
    DiagonalNonzero,
    EmptySubset,
    FormatMismatch,
    NegativeDistance,
    NotSymmetric,
    OffDiagonalZero,
    StrongTriangleViolation,
    UnknownPoint,
)

Rational = Fraction

ZERO = Fraction(0)


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome carrying an optional witness.

    Truthiness follows ``ok`` so verdicts drop into ``if`` tests directly;
    the witness explains a False (or occasionally a True) outcome.
    """

    ok: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PointSpectrum:
    center: str
    values: tuple[Fraction, ...]


def _coerce_entry(value) -> Fraction:
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    raise FormatMismatch(f"matrix entries must be exact rationals or integers, got {type(value).__name__}")


class Space:
    """An immutable finite ultrametric space.

    ``points`` fixes an order used by the matrix; equality is metric
    equality (same point set, same pairwise distances) regardless of order.
    Construct untrusted matrices through :func:`validate_space`.
    """

    __slots__ = ("points", "dist", "_index", "_spectrum", "_ranks", "_tree")

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence[Fraction]]):
        self.points: tuple[str, ...] = tuple(points)
        self.dist: tuple[tuple[Fraction, ...], ...] = tuple(tuple(row) for row in dist)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._spectrum = None
        self._ranks = None
        self._tree = None  # set by tree.build_representing_tree

    def __len__(self) -> int:
        return len(self.points)

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise UnknownPoint(x) from None

    def distance(self, x: str, y: str) -> Fraction:
        return self.dist[self.index(x)][self.index(y)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        if set(self.points) != set(other.points):
            return False
        om = other._index
        for i, p in enumerate(self.points):
            orow = other.dist[om[p]]
            row = self.dist[i]
            for j, q in enumerate(self.points):
                if row[j] != orow[om[q]]:
                    return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Space({len(self.points)} points, diameter {diameter(self)})"


def validate_space(matrix: Sequence[Sequence], points: Sequence[str], *, parsed: dict | None = None) -> Space:
    """Check a distance matrix and return the Space it defines.

    Raises DiagonalNonzero, NotSymmetric / NegativeDistance /
    OffDiagonalZero or StrongTriangleViolation for the first fault in scan
    order, FormatMismatch for shape or entry-type problems.  ``parsed``
    maps each distinct entry, and nothing else, to its rational, as for the
    file parsers' token rows.  The checks cost O(n²) on integer ranks;
    naming a violating triple adds O(n) per pair above its path maximum.
    """
    pts = [str(p) for p in points]
    n = len(pts)
    if n == 0:
        raise FormatMismatch("a space needs at least one point")
    if len(set(pts)) != n:
        raise FormatMismatch("point ids must be pairwise distinct")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise FormatMismatch(f"matrix must be {n}x{n} to match the point count")

    if parsed is None:  # each distinct entry object is checked once
        parsed = {key: _coerce_entry(v) for key, v in _by_id(matrix).items()}
        matrix = [map(id, row) for row in matrix]
    values, rank = _ranked({**parsed, ZERO: ZERO})  # 0 always has a rank
    rk = [tuple(map(rank.__getitem__, row)) for row in matrix]
    d = [tuple(map(values.__getitem__, row)) for row in rk]
    zero = bisect_left(values, ZERO)  # rank order is value order
    for i, row in enumerate(rk):
        if row[i] != zero:
            raise DiagonalNonzero(pts[i])
    # no value below 0, one 0 per row, symmetric; else the scan names a fault
    if zero or sum(map(tuple.count, rk, repeat(zero))) != n or not all(map(tuple.__eq__, rk, zip(*rk))):
        for i in range(n):
            for j in range(i + 1, n):
                if rk[i][j] != rk[j][i]:
                    raise NotSymmetric(pts[i], pts[j])
                if rk[i][j] < zero:
                    raise NegativeDistance(pts[i], pts[j])
                if rk[i][j] == zero:
                    raise OffDiagonalZero(pts[i], pts[j])
    if prim_order(rk) is None:
        # a witness k is a path i-k-j below rk[i][j] = r, so only a pair
        # above its path maximum has one; k = i or j fails on r itself
        for i, j in _excess_pairs(rk):
            r, ri, rj = rk[i][j], rk[i], rk[j]
            for k in range(n):
                if ri[k] < r and rj[k] < r:
                    raise StrongTriangleViolation(pts[i], pts[j], pts[k])
    space = Space(pts, d)
    space._ranks = rk
    space._spectrum = tuple(values)
    return space


def _ranked(parsed: dict) -> tuple[list[Fraction], dict]:
    """The sorted distinct values of a dict of rationals, 0 among them, and
    each key's rank, the index of its value there.  Values sort by floor(v *
    2**64), an exact integer, and compare only on ties: Fractions are slow.
    """
    keyed = sorted([((v.numerator << 64) // v.denominator, v, k, key) for k, (key, v) in enumerate(parsed.items())])
    values: list[Fraction] = []
    rank, coarse = {}, None
    for c, v, _, key in keyed:
        if c != coarse or v != values[-1]:
            values.append(v)
            coarse = c
        rank[key] = len(values) - 1
    return values, rank


def _by_id(rows) -> dict[int, Any]:
    """Every entry object of a matrix and 0, by id: tree builders share one per label."""
    objects = {id(v): v for row in rows for v in row}
    objects.setdefault(id(ZERO), ZERO)
    return objects


def _encode(rows) -> tuple[list[Fraction], list[tuple[int, ...]]]:
    """The sorted distinct entries of a matrix, 0 among them, and the matrix
    with every entry replaced by its rank."""
    values, rank = _ranked(_by_id(rows))
    get = rank.__getitem__
    return values, [tuple(map(get, map(id, row))) for row in rows]


def rank_matrix(space: Space) -> list[tuple[int, ...]]:
    """The integer ranks of a space's distances, computed once per space.

    ``validate_space`` hands over the ranks it checked and ``restrict``
    slices its parent's, since rank order survives in any subset; otherwise
    the first call encodes the matrix and seeds the spectrum as well.  The
    rows are symmetric: an unvalidated matrix that is not has its upper
    triangle mirrored, the only part the tree build reads.
    """
    if space._ranks is None:
        values, rk = _encode(space.dist)
        if not all(map(tuple.__eq__, rk, zip(*rk))):
            n = len(rk)
            rk = [tuple(rk[i][j] if i <= j else rk[j][i] for j in range(n)) for i in range(n)]
        space._ranks = rk
        space._spectrum = tuple(values)
    return space._ranks


def prim_order(
    rk: Sequence[Sequence[int]], check: bool = True
) -> tuple[list[int], list[int], list[int]] | None:
    """Grow a minimum spanning tree of a rank matrix by Prim's algorithm, in O(n²).

    The matrix must be symmetric with each diagonal entry at most every
    entry in its row.  Returns the order the points joined in (point 0
    first) and, per point, its parent and the rank of the edge it joined
    by; the entries for point 0 are meaningless.  With ``check`` the result
    is None unless the matrix is ultrametric: exactly when it equals the
    subdominant ultrametric of the tree, the largest edge on the tree path
    (Gower & Ross 1969).  A point v joining through parent p by an edge of
    rank e lies at max(rk[p][w], e) on the tree from each earlier point w.
    """
    n = len(rk)
    best = list(rk[0])  # cheapest edge rank from the tree to each point
    parent = [0] * n
    order = [0]
    rest = set(range(1, n))
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.discard(v)
        e, rv = best[v], rk[v]
        if check:
            rp = rk[parent[v]]
            for w in order:
                if rv[w] != (rp[w] if rp[w] > e else e):
                    return None
        order.append(v)
        for u in rest:
            if rv[u] < best[u]:
                best[u] = rv[u]
                parent[u] = v
    return order, parent, best


def excess_pair(rk: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The first pair (i < j) in (rank, i, j) order whose rank exceeds the
    largest edge between them on a minimum spanning tree, in O(n²).

    The matrix is one ``prim_order`` rejects: some pair then lies farther
    apart than that path maximum, its subdominant distance.
    """
    return min(_excess_pairs(rk), key=lambda ij: (rk[ij[0]][ij[1]], ij))


def _excess_pairs(rk: Sequence[Sequence[int]]) -> Iterator[tuple[int, int]]:
    """Those pairs in (i, j) order, after one path-maximum pass."""
    pm = path_max(*prim_order(rk, check=False))
    for i, (row, low) in enumerate(zip(rk, pm)):
        yield from zip(repeat(i), compress(range(i + 1, len(row)), map(gt, row[i + 1 :], low[i + 1 :])))


def path_max(order: Sequence[int], parent: Sequence[int], edge: Sequence[int]) -> list[list[int]]:
    """The largest edge weight on the path between every two vertices
    0..n-1 of a tree, in O(n²), 0 on the diagonal.  Each vertex after the
    first in ``order`` hangs from an earlier ``parent`` by an edge of weight
    ``edge[v]`` >= 0 (the minimax recurrence of Gower & Ross 1969)."""
    n = len(order)
    pm = [[0] * n for _ in range(n)]
    for k in range(1, n):
        v = order[k]
        e, pv, pp = edge[v], pm[v], pm[parent[v]]
        for w in order[:k]:
            pv[w] = pm[w][v] = pp[w] if pp[w] > e else e
    return pm


def spectrum(space: Space) -> tuple[Fraction, ...]:
    """All distinct distance values, sorted ascending; always starts with 0.

    Computed once per space; ``validate_space`` and ``rank_matrix`` seed it.
    """
    if space._spectrum is None:
        space._spectrum = tuple(_ranked(_by_id(space.dist))[0])
    return space._spectrum


def point_spectrum(space: Space, x: str) -> PointSpectrum:
    """Distances from ``x`` to every point (itself included), deduplicated."""
    row = space.dist[space.index(x)]
    return PointSpectrum(center=x, values=tuple(sorted(set(row))))


def diameter(space: Space) -> Fraction:
    return spectrum(space)[-1]


def restrict(space: Space, subset: Iterable[str]) -> Space:
    """The subspace induced on ``subset``, keeping the original point order
    and, when the space has them, its distance ranks."""
    wanted = set(subset)
    if not wanted:
        raise EmptySubset()
    for p in wanted:
        if p not in space._index:
            raise UnknownPoint(p)
    keep = [i for i, p in enumerate(space.points) if p in wanted]
    sub = Space([space.points[i] for i in keep], _slice(space.dist, keep))
    if space._ranks is not None:
        sub._ranks = _slice(space._ranks, keep)
    return sub


def _slice(rows, keep: list[int]) -> list[tuple]:
    return [tuple([row[j] for j in keep]) for row in map(rows.__getitem__, keep)]


def to_plain(value):
    """Convert rationals/sets/tuples into JSON-friendly data, at any depth.

    Iterative, so a deep tree does not hit the recursion limit: a container
    is revisited once its items are converted, and they are then popped
    off ``done``.
    """
    done: list = []
    stack: list = [(value, None)]
    while stack:
        v, items = stack.pop()
        if items is None:
            if isinstance(v, (frozenset, set, list, tuple)):
                items = list(v)
            elif isinstance(v, dict):
                items = [x for kv in v.items() for x in kv]
            else:
                done.append(str(v) if isinstance(v, Fraction) else v)
                continue
            stack.append((v, items))
            stack.extend((x, None) for x in reversed(items))
            continue
        cut = len(done) - len(items)
        plain = done[cut:]
        del done[cut:]
        if isinstance(v, dict):
            done.append({str(k): x for k, x in zip(plain[::2], plain[1::2])})
        elif isinstance(v, (frozenset, set)):
            done.append(sorted(plain))
        else:
            done.append(plain)
    return done[0]
