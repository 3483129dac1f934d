"""Subspace closure of the structural classes.

A class is hereditary when every at-least-two-point subspace of a member
is again a member.  ``hereditary_verify`` decides this exhaustively for
all spaces with up to ``max_n`` points: every class in the catalog is
invariant under weak similarity, and taking subspaces commutes with weak
similarity, so checking one-point deletions of the enumerated
weak-similarity representatives covers the universal claim (a violating
space/subspace pair always contains a violating single-deletion pair
along any deletion chain between them).
"""

from __future__ import annotations

from itertools import combinations

from .classify import CLASS_IDS, membership
from .core import Space, Verdict, restrict
from .errors import BudgetExhausted, NotInClass, SingletonSpace, TooLarge, UnknownClass
from .gen import enumerate_spaces

FULL_SUBSET_LIMIT = 8


def one_point_deletions(space: Space) -> list[Space]:
    """The |X| subspaces obtained by removing each point in turn."""
    if len(space) < 2:
        raise SingletonSpace("one_point_deletions")
    pts = set(space.points)
    return [restrict(space, pts - {x}) for x in space.points]


def _first_non_member(
    class_id: str, space: Space, points, largest: int, charge=None
) -> frozenset[str] | None:
    """First subset of ``points`` with 2 to ``largest`` points, smallest
    first and in ``combinations`` order, whose subspace leaves the class.
    ``charge`` is called once per candidate, before its evaluation."""
    for size in range(2, largest + 1):
        for subset in combinations(points, size):
            sub = frozenset(subset)
            if charge is not None:
                charge()
            if not membership(class_id, restrict(space, sub)):
                return sub
    return None


def is_hereditary_instance(space: Space, class_id: str, full: bool = False) -> Verdict:
    """Does this member space keep its class on every subspace of two or
    more points?

    The default walks the one-point-deletion lattice downward, which is
    equivalent to checking all subsets; ``full=True`` enumerates the
    subsets outright as a cross-check (limited to 8 points).  A False
    verdict carries a minimal violating subset.
    """
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    if len(space) < 2:
        raise SingletonSpace("is_hereditary_instance")
    if not membership(class_id, space):
        raise NotInClass(class_id)

    if full:
        if len(space) > FULL_SUBSET_LIMIT:
            raise TooLarge("full subset enumeration", len(space), FULL_SUBSET_LIMIT)
        sub = _first_non_member(class_id, space, space.points, len(space) - 1)
        if sub is not None:
            return Verdict(False, witness={"subset": sub, "size": len(sub)})
        return Verdict(True)

    seen: set[frozenset[str]] = set()
    stack = [frozenset(space.points)]
    while stack:
        current = stack.pop()
        if len(current) < 3:
            continue
        for sub in one_point_deletions(restrict(space, current)):
            key = frozenset(sub.points)
            if len(key) < 2 or key in seen:
                continue
            seen.add(key)
            if not membership(class_id, sub):
                # key itself is a non-member, so a smallest one exists
                minimal = _first_non_member(class_id, space, sorted(key), len(key))
                return Verdict(False, witness={"subset": minimal, "size": len(minimal)})
            stack.append(key)
    return Verdict(True)


def hereditary_verify(class_id: str, max_n: int = 6) -> Verdict:
    """Exhaustively decide whether the class is closed under subspaces
    across all ultrametric spaces with at most ``max_n`` points.

    A False verdict names a member space and the deleted point whose
    removal leaves a non-member.
    """
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    for n in range(3, max_n + 1):
        for space in enumerate_spaces(n):
            if not membership(class_id, space):
                continue
            pts = set(space.points)
            for x in space.points:
                sub = restrict(space, pts - {x})
                if not membership(class_id, sub):
                    return Verdict(
                        False,
                        witness={"space": space, "deleted": x, "subspace": sub},
                    )
    return Verdict(True, witness={"max_n": max_n})


def hereditary_counterexample_search(
    class_id: str, max_n: int = 6, budget: int | None = None
) -> tuple[Space, frozenset] | None:
    """Search for a member space with a non-member subspace, smallest
    space first, then smallest subset.  Returns None when the class is
    hereditary on this range.  ``budget`` caps the number of membership
    evaluations; exceeding it raises BudgetExhausted.
    """
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    spent = 0

    def charge():
        nonlocal spent
        spent += 1
        if budget is not None and spent > budget:
            raise BudgetExhausted(budget)

    for n in range(3, max_n + 1):
        for space in enumerate_spaces(n):
            charge()
            if not membership(class_id, space):
                continue
            sub = _first_non_member(class_id, space, space.points, len(space) - 1, charge)
            if sub is not None:
                return space, sub
    return None
