"""Subspace closure of the structural classes.

A class is hereditary when every at-least-two-point subspace of a member
is again a member.  ``hereditary_verify`` decides this exhaustively for
all spaces with up to ``max_n`` points: every class in the catalog is
invariant under weak similarity, and taking subspaces commutes with weak
similarity, so checking one-point deletions of the enumerated
weak-similarity representatives covers the universal claim (a violating
space/subspace pair always contains a violating single-deletion pair
along any deletion chain between them).

The same invariance lets every search answer each candidate subspace
once per weak-similarity class.  Its key is the subspace's
``rank_labeled`` code, read off the space's kept tree by the restriction
lemma (``canonical._subspace_rank_codes``), so a candidate costs no
rebuild.  Each search call keeps one dict from code to verdict, seeded by
the spaces it tests; a subspace is built with ``restrict`` only when its
class is new, and for a returned witness.
"""

from __future__ import annotations

from itertools import combinations

from .canonical import _subspace_rank_codes
from .classify import CLASS_IDS, membership
from .core import Space, Verdict, restrict
from .errors import BudgetExhausted, FormatMismatch, NotInClass, SingletonSpace, UnknownClass
from .gen import enumerate_spaces
from .tree import build_representing_tree


def one_point_deletions(space: Space) -> list[Space]:
    """The |X| subspaces obtained by removing each point in turn."""
    if len(space) < 2:
        raise SingletonSpace("one_point_deletions")
    pts = set(space.points)
    return [restrict(space, pts - {x}) for x in space.points]


def _verdicts(class_id: str, space: Space, memo: dict[str, bool]):
    """The space's membership, recorded in ``memo`` under its rank code,
    and ``in_class(subset)``, the verdict on a subspace: ``memo``'s answer
    when its weak-similarity class was seen, else ``membership`` of the
    subspace built by ``restrict``, recorded."""
    code = _subspace_rank_codes(build_representing_tree(space))

    def in_class(subset: frozenset[str]) -> bool:
        key = code(subset)
        ok = memo.get(key)
        if ok is None:
            ok = memo[key] = membership(class_id, restrict(space, subset))
        return ok

    ok = memo[code(space.points)] = membership(class_id, space)
    return ok, in_class


def _first_non_member(in_class, points, largest: int, charge=None) -> frozenset[str] | None:
    """First subset of ``points`` with 2 to ``largest`` points, smallest
    first and in ``combinations`` order, that ``in_class`` rejects.
    ``charge`` is called once per candidate, before its evaluation."""
    for size in range(2, largest + 1):
        for subset in combinations(points, size):
            sub = frozenset(subset)
            if charge is not None:
                charge()
            if not in_class(sub):
                return sub
    return None


def is_hereditary_instance(space: Space, class_id: str) -> Verdict:
    """Does this member space keep its class on every subspace of two or
    more points?

    Walks every proper subset once, smallest first and in ``combinations``
    order over the point order; a False verdict carries the first such
    subset that leaves the class, so no smaller subset does.
    """
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    if len(space) < 2:
        raise SingletonSpace("is_hereditary_instance")
    ok, in_class = _verdicts(class_id, space, {})
    if not ok:
        raise NotInClass(class_id)
    sub = _first_non_member(in_class, space.points, len(space) - 1)
    if sub is not None:
        return Verdict(False, witness={"subset": sub, "size": len(sub)})
    return Verdict(True)


def hereditary_verify(class_id: str, max_n: int = 6) -> Verdict:
    """Exhaustively decide whether the class is closed under subspaces
    across all ultrametric spaces with at most ``max_n`` points.

    A False verdict names a member space and the deleted point whose
    removal leaves a non-member.
    """
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    if max_n < 2:
        raise FormatMismatch("max_n must be at least 2")
    memo: dict[str, bool] = {}
    for n in range(3, max_n + 1):
        for space in enumerate_spaces(n):
            ok, in_class = _verdicts(class_id, space, memo)
            if not ok:
                continue
            pts = frozenset(space.points)
            for x in space.points:
                rest = pts - {x}
                if not in_class(rest):
                    return Verdict(
                        False,
                        witness={"space": space, "deleted": x, "subspace": restrict(space, rest)},
                    )
    return Verdict(True, witness={"max_n": max_n})


def hereditary_counterexample_search(
    class_id: str, max_n: int = 6, budget: int | None = None
) -> tuple[Space, frozenset] | None:
    """Search for a member space with a non-member subspace, smallest
    space first, then smallest subset.  Returns None when the class is
    hereditary on this range.  ``budget`` (at least 0) caps the number of
    candidates examined, spaces and subsets alike, whether their verdict
    is evaluated or recalled; exceeding it raises BudgetExhausted.
    """
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    if max_n < 2:
        raise FormatMismatch("max_n must be at least 2")
    if budget is not None and budget < 0:
        raise FormatMismatch("budget must be at least 0")
    spent = 0

    def charge():
        nonlocal spent
        spent += 1
        if budget is not None and spent > budget:
            raise BudgetExhausted(budget)

    memo: dict[str, bool] = {}
    for n in range(3, max_n + 1):
        for space in enumerate_spaces(n):
            charge()
            ok, in_class = _verdicts(class_id, space, memo)
            if not ok:
                continue
            sub = _first_non_member(in_class, space.points, len(space) - 1, charge)
            if sub is not None:
                return space, sub
    return None
