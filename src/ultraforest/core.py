"""Finite ultrametric spaces with exact rational distances.

A space is a tuple of named points together with a symmetric matrix of
nonnegative rationals satisfying the strong triangle inequality

    d(x, y) <= max(d(x, z), d(z, y))   for all x, y, z.

All arithmetic is exact; floating point never enters the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

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
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise FormatMismatch(
        f"matrix entries must be exact rationals or integers, got {type(value).__name__}"
    )


class Space:
    """An immutable finite ultrametric space.

    ``points`` fixes an order used by the matrix; equality is metric
    equality (same point set, same pairwise distances) regardless of order.
    Construct untrusted matrices through :func:`validate_space`.
    """

    __slots__ = ("points", "dist", "_index", "_spectrum")

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence[Fraction]]):
        self.points: tuple[str, ...] = tuple(points)
        self.dist: tuple[tuple[Fraction, ...], ...] = tuple(tuple(row) for row in dist)
        self._index = {p: i for i, p in enumerate(self.points)}
        self._spectrum = None

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


def validate_space(matrix: Sequence[Sequence], points: Sequence[str]) -> Space:
    """Check a distance matrix and return the Space it defines.

    Raises NotSymmetric / DiagonalNonzero / OffDiagonalZero /
    NegativeDistance / StrongTriangleViolation with a witness, in that
    order of scanning; FormatMismatch for shape or entry-type problems.
    Accepted input costs O(n²); only a strong-triangle violation pays for
    the O(n³) scan that names the first violating triple.
    """
    pts = [str(p) for p in points]
    n = len(pts)
    if n == 0:
        raise FormatMismatch("a space needs at least one point")
    if len(set(pts)) != n:
        raise FormatMismatch("point ids must be pairwise distinct")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise FormatMismatch(f"matrix must be {n}x{n} to match the point count")

    d = [[_coerce_entry(matrix[i][j]) for j in range(n)] for i in range(n)]

    for i in range(n):
        if d[i][i] != 0:
            raise DiagonalNonzero(pts[i])

    # The pair scan and the Prim check read integer ranks: rank order is
    # value order.
    objects = _entry_objects(d)
    values = sorted(set(objects.values()))
    rank_of = {v: r for r, v in enumerate(values)}
    rank_of_id = {i: rank_of[v] for i, v in objects.items()}
    rk = [[rank_of_id[id(v)] for v in row] for row in d]
    zero = rank_of[ZERO]
    for i in range(n):
        for j in range(i + 1, n):
            if rk[i][j] != rk[j][i]:
                raise NotSymmetric(pts[i], pts[j])
            if rk[i][j] < zero:
                raise NegativeDistance(pts[i], pts[j])
            if rk[i][j] == zero:
                raise OffDiagonalZero(pts[i], pts[j])
    if not _equals_subdominant(rk):
        # Only a matrix that is not ultrametric gets here, so some triple
        # violates the strong triangle inequality: name the first in scan order.
        # The scan reads the values; running it on the ranks is an open
        # step of ROADMAP item 2, for rejected input only.
        for i in range(n):
            for j in range(i + 1, n):
                dij = d[i][j]
                for k in range(n):
                    if k == i or k == j:
                        continue
                    if dij > max(d[i][k], d[k][j]):
                        raise StrongTriangleViolation(pts[i], pts[j], pts[k])
    space = Space(pts, d)
    space._spectrum = tuple(values)
    return space


def _entry_objects(rows) -> dict[int, Fraction]:
    """The distinct entry objects of a matrix, by id.

    Hashing a Fraction is slow, and parsers and tree builders share one
    object per token spelling or label, so each object is hashed only once.
    """
    return {id(v): v for row in rows for v in row}


def _equals_subdominant(rk: list[list[int]]) -> bool:
    """Whether a symmetric, zero-diagonal rank matrix is ultrametric, in O(n²).

    A matrix is ultrametric exactly when it equals the subdominant
    ultrametric of a minimum spanning tree: the largest edge on the tree
    path (Gower & Ross 1969).  Prim's algorithm adds one point v at a time
    through parent p by an edge of rank e, so the path maximum from v to
    each point w already in the tree is max(rk[p][w], e).
    """
    n = len(rk)
    best = list(rk[0])  # cheapest edge rank from the tree to each point
    parent = [0] * n
    added = [0]
    rest = set(range(1, n))
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.discard(v)
        e, rv, rp = best[v], rk[v], rk[parent[v]]
        for w in added:
            if rv[w] != (rp[w] if rp[w] > e else e):
                return False
        added.append(v)
        for u in rest:
            if rv[u] < best[u]:
                best[u] = rv[u]
                parent[u] = v
    return True


def spectrum(space: Space) -> tuple[Fraction, ...]:
    """All distinct distance values, sorted ascending; always starts with 0.

    Computed once per space (``validate_space`` hands over its own).
    """
    if space._spectrum is None:
        values = set(_entry_objects(space.dist).values())
        values.add(ZERO)
        space._spectrum = tuple(sorted(values))
    return space._spectrum


def point_spectrum(space: Space, x: str) -> PointSpectrum:
    """Distances from ``x`` to every point (itself included), deduplicated."""
    row = space.dist[space.index(x)]
    return PointSpectrum(center=x, values=tuple(sorted(set(row))))


def diameter(space: Space) -> Fraction:
    return spectrum(space)[-1]


def restrict(space: Space, subset: Iterable[str]) -> Space:
    """The subspace induced on ``subset``, keeping the original point order."""
    wanted = set(subset)
    if not wanted:
        raise EmptySubset()
    for p in wanted:
        if p not in space._index:
            raise UnknownPoint(p)
    keep = [i for i, p in enumerate(space.points) if p in wanted]
    pts = [space.points[i] for i in keep]
    d = [[space.dist[i][j] for j in keep] for i in keep]
    return Space(pts, d)


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
