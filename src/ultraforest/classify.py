"""Structural classes of finite ultrametric spaces and their audits.

Each class has a fast structural test on the representing tree and, where
the theory provides one, an independent oracle working directly on the
distance matrix or the level graphs.  ``audit_equivalences`` runs every
structural/oracle pair and every multi-condition characterization on one
space and reports any disagreement; an empty result certifies the space
against the whole catalog.  One ordered table, ``_CLASSES``, names every
class and drives ``classify``, ``membership`` and the audit's structural
legs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .canonical import are_isometric, canonical_code, codes_from_tokens, count_self_isometries
from .core import Space, Verdict, diameter, point_spectrum, rank_matrix, restrict, spectrum
from .errors import (
    FormatMismatch,
    MissingLeafChild,
    SingletonSpace,
    SingularBall,
    TooLarge,
    UnknownClass,
)
from .graphs import (
    complete_multipartite_parts,
    connected_components,
    decompose_level_graph,
    level_graph,
    strip_isolated,
)
from .tree import RootedTree, build_representing_tree, height, max_out_degree
from .unrooted import (
    has_leaf_child_everywhere,
    space_from_unrooted,
    unrooted_from_representing,
)

HAMILTON_ORACLE_LIMIT = 7
SHAPE_SPECTRUM_ORACLE_LIMIT = 6  # internal nodes


# --------------------------------------------------------------- spectra


def is_gomory_hu_extremal(space: Space) -> Verdict:
    """True iff the space attains |Sp(X)| = |X|, the Gomory-Hu upper bound."""
    n = len(space)
    if n < 2:
        raise SingletonSpace("is_gomory_hu_extremal")
    k = len(spectrum(space))
    return Verdict(k == n, witness={"points": n, "spectrum_size": k})


# ------------------------------------------------------- tree predicates


def has_injective_internal_labels(tree: RootedTree) -> Verdict:
    seen: dict[Fraction, int] = {}
    for v in tree.internal_nodes():
        l = tree.labels[v]
        if l in seen:
            return Verdict(False, witness={"label": l, "nodes": (seen[l], v)})
        seen[l] = v
    return Verdict(True, witness={"labels": sorted(seen)})


def is_strictly_binary(tree: RootedTree) -> Verdict:
    return is_strictly_nary(tree, 2)


def strict_arity(tree: RootedTree) -> int | None:
    """The common internal out-degree, or None if degrees are mixed (or no internals)."""
    degrees = {tree.out_degree(v) for v in tree.internal_nodes()}
    if len(degrees) != 1:
        return None
    return degrees.pop()


def is_strictly_nary(tree: RootedTree, n: int) -> Verdict:
    if n < 2:
        raise FormatMismatch("arity must be at least 2")
    for v in tree.internal_nodes():
        if tree.out_degree(v) != n:
            return Verdict(False, witness={"node": v, "out_degree": tree.out_degree(v)})
    return Verdict(True)


def _chain_with_tail(tree: RootedTree, tail_nodes: int | None) -> Verdict:
    """One internal node on every level above the last internal level, which
    holds at most ``tail_nodes`` internal nodes (None: any number), all of
    one out-degree.  The witness names the first level that fails."""
    internals = tree.internal_nodes()
    counts = Counter(tree.level(v) for v in internals)
    h = height(tree) if tree.n_nodes > 1 else 0
    for lv in range(h - 1):
        if counts[lv] != 1:
            return Verdict(False, witness={"level": lv, "internal_nodes": counts[lv]})
    if h >= 1 and counts[h - 1] > 1:
        if tail_nodes is not None and counts[h - 1] > tail_nodes:
            return Verdict(False, witness={"level": h - 1, "internal_nodes": counts[h - 1]})
        tail = {tree.out_degree(v) for v in internals if tree.level(v) == h - 1}
        if len(tail) > 1:
            return Verdict(False, witness={"level": h - 1, "out_degrees": sorted(tail)})
    return Verdict(True)


def has_inner_chain(tree: RootedTree) -> Verdict:
    """Exactly one internal node at every level except the last.

    The internal nodes then form a single root chain.  Trees of height
    zero or one satisfy the condition vacuously.
    """
    return _chain_with_tail(tree, 1)


def has_inner_chain_equal_tail(tree: RootedTree) -> Verdict:
    """One internal node per level below the last internal level; equal
    out-degrees across that last internal level."""
    return _chain_with_tail(tree, None)


def is_rigid(tree: RootedTree) -> Verdict:
    """Strictly binary with an internal chain: the space then has exactly
    two self-isometries, the minimum possible for two or more points."""
    binary = is_strictly_binary(tree)
    if not binary:
        return Verdict(False, witness=binary.witness)
    chain = has_inner_chain(tree)
    if not chain:
        return Verdict(False, witness=chain.witness)
    return Verdict(True)


def leaves_same_level(tree: RootedTree) -> Verdict:
    levels: dict[int, str] = {}
    for v in tree.leaves():
        levels.setdefault(tree.level(v), tree.points[v])
        if len(levels) > 1:
            return Verdict(False, witness={"leaf_levels": levels})
    return Verdict(True)


def labels_same_level(tree: RootedTree) -> Verdict:
    by_level: dict[int, Fraction] = {}
    for v in tree.internal_nodes():
        lv = tree.level(v)
        if lv in by_level:
            if by_level[lv] != tree.labels[v]:
                return Verdict(
                    False,
                    witness={"level": lv, "labels": sorted({by_level[lv], tree.labels[v]})},
                )
        else:
            by_level[lv] = tree.labels[v]
    return Verdict(True)


def is_homogeneous(tree: RootedTree) -> Verdict:
    """All nodes of one level share both label and out-degree (leaves count,
    so a level mixing leaves with internal nodes already fails)."""
    lab: dict[int, Fraction] = {}
    deg: dict[int, int] = {}
    for v in tree.preorder():
        lv = tree.level(v)
        if lv in lab:
            if lab[lv] != tree.labels[v]:
                return Verdict(False, witness={"level": lv, "labels": sorted({lab[lv], tree.labels[v]})})
            if deg[lv] != tree.out_degree(v):
                return Verdict(False, witness={"level": lv, "out_degrees": sorted({deg[lv], tree.out_degree(v)})})
        else:
            lab[lv] = tree.labels[v]
            deg[lv] = tree.out_degree(v)
    return Verdict(True)


def perfect_nary_arity(tree: RootedTree) -> int | None:
    """The arity n when the tree is perfect strictly n-ary (uniform internal
    out-degree and all leaves on one level), else None."""
    n = strict_arity(tree)
    if n is None:
        return None
    if not leaves_same_level(tree):
        return None
    return n


def ball_preserving_structure(tree: RootedTree) -> Verdict:
    """Strictly binary and either every internal node has a leaf child or
    the root is the unique node whose both children are internal."""
    binary = is_strictly_binary(tree)
    if not binary:
        return Verdict(False, witness=binary.witness)
    leafy = has_leaf_child_everywhere(tree)
    if leafy:
        return Verdict(True, witness={"branch": "leaf_child_everywhere"})
    both_internal = [
        v
        for v in tree.internal_nodes()
        if all(not tree.is_leaf(c) for c in tree.children[v])
    ]
    if both_internal == [tree.root]:
        return Verdict(True, witness={"branch": "root_only_double_internal"})
    return Verdict(
        False,
        witness={
            "no_leaf_child": leafy.witness,
            "double_internal_nodes": both_internal,
        },
    )


# -------------------------------------------------------- matrix oracles


def no_equilateral_triangle(space: Space) -> bool:
    d = space.dist
    n = len(space)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if d[i][j] == d[i][k] == d[j][k]:
                    return False
    return True


def hamilton_oracle_strictly_binary(space: Space) -> bool:
    """Every subset of >= 3 points must admit a Hamilton cycle with exactly
    two edges of maximal weight.  Exhaustive; limited to 7 points."""
    n = len(space)
    if n > HAMILTON_ORACLE_LIMIT:
        raise TooLarge("hamilton oracle", n, HAMILTON_ORACLE_LIMIT)
    d = space.dist
    idx = range(n)
    for size in range(3, n + 1):
        for subset in combinations(idx, size):
            found = False
            first = subset[0]
            rest = subset[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # each cycle once, not twice mirrored
                cycle = (first,) + perm
                weights = [
                    d[cycle[i]][cycle[(i + 1) % size]] for i in range(size)
                ]
                top = max(weights)
                if sum(1 for w in weights if w == top) == 2:
                    found = True
                    break
            if not found:
                return False
    return True


def brute_force_ballean(space: Space) -> set[frozenset[str]]:
    """All closed balls, computed directly from the matrix of distance
    ranks.  The radii are the ranks present, not 0..k: a subspace keeps
    its parent's ranks."""
    pts = space.points
    rk = rank_matrix(space)
    radii = sorted({r for row in rk for r in row})
    out = set()
    for row in rk:
        for r in radii:
            out.add(frozenset(pts[j] for j in range(len(pts)) if row[j] <= r))
    return out


def ball_count_formula_holds(tree: RootedTree, n: int) -> bool:
    """(n-1)|B_Y| + 1 = n|Y| for every ball Y, read off subtree sizes."""
    nodes: dict[int, int] = {}
    leaves: dict[int, int] = {}
    for v in reversed(tree.preorder()):
        if tree.is_leaf(v):
            nodes[v] = 1
            leaves[v] = 1
        else:
            nodes[v] = 1 + sum(nodes[c] for c in tree.children[v])
            leaves[v] = sum(leaves[c] for c in tree.children[v])
        if (n - 1) * nodes[v] + 1 != n * leaves[v]:
            return False
    return True


def equidistant_partition(space: Space, ball: frozenset[str]) -> list[frozenset[str]]:
    """Split a nonsingular ball into its maximal sub-balls; any two parts
    sit at the constant distance diam(ball) from each other."""
    tree = build_representing_tree(space)
    ball = frozenset(ball)
    for v in tree.preorder():
        if tree.leaf_set(v) == ball:
            if tree.is_leaf(v):
                raise SingularBall(ball)
            return tree.ball_partition(v)
    raise FormatMismatch("the given point set is not a ball of this space")


def perfect_level_graph_oracle(space: Space) -> int | None:
    """Arity detected from level graphs alone: every component of every
    stripped level graph must be complete n-partite with equal part sizes,
    for one common n.  Returns that n, or None."""
    arity: int | None = None
    for r in spectrum(space)[1:]:
        stripped = strip_isolated(level_graph(space, r))
        for comp in connected_components(stripped):
            parts = complete_multipartite_parts(comp)
            if parts is None:
                return None
            if len({len(p) for p in parts}) != 1:
                return None
            if arity is None:
                arity = len(parts)
            elif len(parts) != arity:
                return None
    return arity


def point_spectra_sizes_equal(space: Space) -> bool:
    sizes = {len(point_spectrum(space, x).values) for x in space.points}
    return len(sizes) <= 1


def point_spectra_all_equal(space: Space) -> bool:
    seen = {point_spectrum(space, x).values for x in space.points}
    return len(seen) <= 1


def point_spectra_are_suffixes(space: Space) -> bool:
    """Every point spectrum is {0} plus a top slice of the full spectrum."""
    sp = spectrum(space)
    for x in space.points:
        vals = point_spectrum(space, x).values
        tail = vals[1:]
        if tail != sp[len(sp) - len(tail):]:
            return False
    return True


def level_graphs_cover_all_points(space: Space) -> bool:
    """No level graph has an isolated vertex: every point realizes every
    positive spectrum value against some other point."""
    sp = set(spectrum(space))
    for i in range(len(space)):
        if set(space.dist[i]) != sp:
            return False
    return True


def homogeneous_oracle(space: Space) -> bool:
    """Metric-side homogeneity: all point spectra coincide and any two
    balls of equal diameter are isometric."""
    if not point_spectra_all_equal(space):
        return False
    balls = sorted(brute_force_ballean(space), key=lambda b: (len(b), sorted(b)))
    by_diam: dict[Fraction, list[frozenset[str]]] = {}
    for b in balls:
        sub = restrict(space, b)
        by_diam.setdefault(diameter(sub), []).append(b)
    for group in by_diam.values():
        base = restrict(space, group[0])
        for other in group[1:]:
            if not are_isometric(base, restrict(space, other)):
                return False
    return True


# ------------------------------------------- shape + spectrum rigidity


def shape_spectrum_guarantee(tree: RootedTree) -> Verdict:
    """Shape condition under which every labeling is determined by its
    spectrum: one internal node per level except the last internal level,
    which may hold at most two with equal out-degrees."""
    return _chain_with_tail(tree, 2)


def shape_spectrum_injective_criterion(tree: RootedTree) -> Verdict:
    """Exact test when internal labels are injective: two internal nodes may
    share a level only at the last internal level, with equal out-degrees."""
    return has_inner_chain_equal_tail(tree)


def shape_spectrum_oracle(space: Space) -> bool:
    """Exhaustive decision: relabel the shape with every strictly decreasing
    surjection onto the positive spectrum values and ask whether all
    resulting spaces are isometric to this one.  Limited to 6 internal nodes."""
    tree = build_representing_tree(space)
    internals = tree.internal_nodes()
    if len(internals) > SHAPE_SPECTRUM_ORACLE_LIMIT:
        raise TooLarge("shape-spectrum oracle", len(internals), SHAPE_SPECTRUM_ORACLE_LIMIT)
    values = [str(v) for v in spectrum(space)[1:]]
    base = canonical_code(tree, "labeled")
    if not internals:
        return True
    pos = {v: i for i, v in enumerate(internals)}
    parent_slot = [
        -1 if v == tree.root else pos[tree.parent(v)] for v in internals
    ]
    k = len(internals)
    m = len(values)
    assignment = [0] * k  # indices into ``values``
    tokens = ["0"] * tree.n_nodes  # leaves keep label 0

    def walk(slot: int) -> bool:
        if slot == k:
            if len(set(assignment)) == m:
                if codes_from_tokens(tree, tokens)[tree.root] != base:
                    return False
            return True
        top = m if parent_slot[slot] < 0 else assignment[parent_slot[slot]]
        for idx in range(top):
            assignment[slot] = idx
            tokens[internals[slot]] = values[idx]
            if not walk(slot + 1):
                return False
        return True

    return walk(0)


def is_shape_spectrum_determined(space: Space) -> Verdict:
    """Best available decision, most authoritative basis first.

    The witness records the basis: "oracle" and "injective_labels" are
    exact; "shape_guarantee" is a sufficient condition only, so a False
    with that basis means undecided-by-fast-criteria (its ``exact`` flag
    is False).
    """
    tree = build_representing_tree(space)
    if len(tree.internal_nodes()) <= SHAPE_SPECTRUM_ORACLE_LIMIT:
        res = shape_spectrum_oracle(space)
        return Verdict(res, witness={"basis": "oracle", "exact": True})
    if has_injective_internal_labels(tree):
        res = shape_spectrum_injective_criterion(tree)
        return Verdict(bool(res), witness={"basis": "injective_labels", "exact": True, "detail": res.witness})
    res = shape_spectrum_guarantee(tree)
    return Verdict(bool(res), witness={"basis": "shape_guarantee", "exact": bool(res), "detail": res.witness})


# -------------------------------------------------------------- catalog


def _arity_verdict(arity: int | None, least: int) -> Verdict:
    return Verdict(arity is not None and arity >= least, witness={"arity": arity})


# Every class, in report order, with one test of (space, tree) whose witness
# is the class certificate.  Each entry looks its predicate up by module name
# when called, so a rebound name (a timing wrapper, say) is honored.
_CLASSES = {
    "gomory_hu_extremal": lambda space, tree: is_gomory_hu_extremal(space),
    "injective_labels": lambda space, tree: has_injective_internal_labels(tree),
    "strictly_binary": lambda space, tree: is_strictly_binary(tree),
    "strictly_nary": lambda space, tree: _arity_verdict(strict_arity(tree), 3),
    "rigid": lambda space, tree: is_rigid(tree),
    "inner_chain": lambda space, tree: has_inner_chain(tree),
    "inner_chain_equal_tail": lambda space, tree: has_inner_chain_equal_tail(tree),
    "shape_spectrum_determined": lambda space, tree: is_shape_spectrum_determined(space),
    "homogeneous": lambda space, tree: is_homogeneous(tree),
    "leaves_same_level": lambda space, tree: leaves_same_level(tree),
    "labels_same_level": lambda space, tree: labels_same_level(tree),
    "perfect_nary": lambda space, tree: _arity_verdict(perfect_nary_arity(tree), 2),
    "ball_preserving": lambda space, tree: ball_preserving_structure(tree),
    "unrooted_generated": lambda space, tree: has_leaf_child_everywhere(tree),
}
CLASS_IDS = tuple(_CLASSES)


def membership(class_id: str, space: Space) -> bool:
    """Exact class membership; raises TooLarge where only an oversized
    oracle could decide."""
    if class_id not in CLASS_IDS:
        raise UnknownClass(class_id)
    tree = build_representing_tree(space)
    verdict = _CLASSES[class_id](space, tree)
    if not verdict and isinstance(verdict.witness, dict) and verdict.witness.get("exact") is False:
        raise TooLarge(
            "shape-spectrum membership",
            len(tree.internal_nodes()),
            SHAPE_SPECTRUM_ORACLE_LIMIT,
        )
    return bool(verdict)


@dataclass(frozen=True)
class ClassVerdict:
    member: bool
    certificate: dict


@dataclass(frozen=True)
class ClassReport:
    points: int
    spectrum: tuple[Fraction, ...]
    classes: dict[str, ClassVerdict]
    extras: dict


def _evaluate(space: Space, tree: RootedTree) -> tuple[dict[str, Verdict], dict]:
    """Every class verdict, in catalog order, and the report extras."""
    verdicts = {cid: test(space, tree) for cid, test in _CLASSES.items()}
    extras = {
        "height": height(tree),
        "max_out_degree": max_out_degree(tree),
        "self_isometries": count_self_isometries(tree),
        "level_graphs_cover_all_points": level_graphs_cover_all_points(space),
        "ball_count": tree.n_nodes,
    }
    return verdicts, extras


def classify(space: Space) -> ClassReport:
    """Verdict plus certificate for every class in the catalog."""
    if len(space) < 2:
        raise SingletonSpace("classify")
    tree = build_representing_tree(space)
    verdicts, extras = _evaluate(space, tree)
    out: dict[str, ClassVerdict] = {}
    for cid, verdict in verdicts.items():
        if isinstance(verdict.witness, dict):
            cert = verdict.witness
        elif verdict.witness is None:
            cert = {}
        else:
            cert = {"witness": verdict.witness}
        out[cid] = ClassVerdict(bool(verdict), cert)
    return ClassReport(points=len(space), spectrum=spectrum(space), classes=out, extras=extras)


# ---------------------------------------------------------------- audit


@dataclass(frozen=True)
class Discrepancy:
    check: str
    details: dict


def _equidistant_partition_exists(
    space: Space, ball: frozenset[str], candidates: list[frozenset[str]], n: int
) -> bool:
    """Search the ballean for n disjoint balls that tile ``ball`` and sit at
    one common distance from each other.  Pure matrix/ballean search."""
    inside = [c for c in candidates if c < ball]
    size = len(ball)
    for combo in combinations(inside, n):
        if sum(len(c) for c in combo) != size:
            continue
        union = set()
        for c in combo:
            union.update(c)
        if len(union) != size:
            continue
        value = None
        ok = True
        for a, b in combinations(combo, 2):
            for x in a:
                row = space.dist[space.index(x)]
                for y in b:
                    v = row[space.index(y)]
                    if value is None:
                        value = v
                    elif v != value:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def audit_equivalences(space: Space) -> list[Discrepancy]:
    """Run every two-sided characterization on one space; list all failures."""
    n = len(space)
    if n < 2:
        raise SingletonSpace("audit_equivalences")
    tree = build_representing_tree(space)
    verdicts, extras = _evaluate(space, tree)
    # structural legs, in catalog order
    (extremal, injective, binary, nary, rigid, chain, chain_tail, shape,
     homogeneous, leaf_levels, label_levels, perfect, _, leafy) = verdicts.values()
    sp = spectrum(space)
    positives = sp[1:]
    out: list[Discrepancy] = []

    def check(cid: str, **legs):
        vals = set(legs.values())
        if len(vals) > 1:
            out.append(Discrepancy(cid, dict(legs)))

    def imply(cid: str, antecedent: bool, consequent: bool, **extra):
        if antecedent and not consequent:
            out.append(Discrepancy(cid, {"antecedent": True, "consequent": False, **extra}))

    stripped = {r: strip_isolated(level_graph(space, r)) for r in positives}
    comps = {r: connected_components(stripped[r]) for r in positives}
    whole_parts = {r: complete_multipartite_parts(stripped[r]) for r in positives}
    comp_parts = {
        r: [complete_multipartite_parts(c) for c in comps[r]] for r in positives
    }
    bballs = brute_force_ballean(space)

    # spectrum size extremal: three equivalent faces
    check(
        "gomory_hu_extremal_equivalences",
        spectrum_count=extremal.ok,
        complete_bipartite_levels=all(
            whole_parts[r] is not None and len(whole_parts[r]) == 2 for r in positives
        ),
        binary_with_injective_labels=(binary.ok and injective.ok),
    )

    # injective internal labels: five equivalent faces
    ball_diams = [
        diameter(restrict(space, b)) for b in bballs if len(b) >= 2
    ]
    check(
        "injective_labels_equivalences",
        injective=injective.ok,
        complete_multipartite_levels=all(whole_parts[r] is not None for r in positives),
        connected_levels=all(len(comps[r]) == 1 for r in positives),
        distinct_ball_diameters=(len(ball_diams) == len(set(ball_diams))),
        ballean_count=(len(sp) == len(bballs) - n + 1),
    )

    # strictly binary: structural, equilateral-free, Hamilton witness
    legs = {
        "binary": binary.ok,
        "no_equilateral_triangle": no_equilateral_triangle(space),
    }
    if n <= HAMILTON_ORACLE_LIMIT:
        legs["hamilton_two_max_edges"] = hamilton_oracle_strictly_binary(space)
    check("strictly_binary_equivalences", **legs)

    # strictly n-ary: four equivalent faces, audited for every plausible n
    delta = extras["max_out_degree"]
    candidates = sorted(bballs, key=lambda b: (len(b), sorted(b)))
    sub_balleans = [(len(b), len(brute_force_ballean(restrict(space, b)))) for b in bballs]
    for arity in range(2, delta + 2):
        structural = bool(is_strictly_nary(tree, arity))
        graph_side = all(
            parts is not None and len(parts) == arity
            for r in positives
            for parts in comp_parts[r]
        )
        partition_side = all(
            _equidistant_partition_exists(space, b, candidates, arity)
            for b in bballs
            if len(b) >= 2
        )
        formula_side = all(
            (arity - 1) * count + 1 == arity * size for size, count in sub_balleans
        )
        check(
            f"strictly_nary_equivalences[n={arity}]",
            structural=structural,
            level_components=graph_side,
            equidistant_partitions=partition_side,
            ball_count_formula=formula_side,
            ball_count_formula_tree=ball_count_formula_holds(tree, arity),
        )

    # level graph decomposition read off the tree matches the graphs
    for r in positives:
        pieces = decompose_level_graph(space, r)
        labeled_nodes = [v for v in tree.internal_nodes() if tree.labels[v] == r]
        piece_vertices = [frozenset().union(*parts) for _, parts in pieces]
        graph_vertices = sorted(sorted(c.vertices) for c in comps[r])
        ok = (
            len(pieces) == len(labeled_nodes)
            and len(pieces) == len(comps[r])
            and sorted(sorted(pv) for pv in piece_vertices) == graph_vertices
            and sorted(
                sorted(sorted(p) for p in parts) for _, parts in pieces
            )
            == sorted(
                sorted(sorted(p) for p in (parts or []))
                for parts in comp_parts[r]
            )
        )
        if not ok:
            out.append(
                Discrepancy(
                    f"level_decomposition[r={r}]",
                    {"pieces": len(pieces), "components": len(comps[r])},
                )
            )

    # any two disjoint balls sit at one constant distance
    ball_list = sorted(bballs, key=lambda b: (len(b), sorted(b)))
    for b1, b2 in combinations(ball_list, 2):
        if b1 & b2:
            continue
        values = {
            space.dist[space.index(x)][space.index(y)] for x in b1 for y in b2
        }
        if len(values) != 1:
            out.append(
                Discrepancy(
                    "disjoint_balls_equidistant",
                    {"balls": (sorted(b1), sorted(b2)), "distances": sorted(values)},
                )
            )
            break

    # homogeneity: structural versus metric oracle
    check(
        "homogeneous_oracle",
        structural=homogeneous.ok,
        oracle=homogeneous_oracle(space),
    )

    # point spectra versus leaf/label levels
    cover = extras["level_graphs_cover_all_points"]
    check(
        "leaf_levels_spectrum_sizes",
        structural=leaf_levels.ok,
        oracle=point_spectra_sizes_equal(space),
    )
    check(
        "label_levels_spectrum_suffixes",
        structural=label_levels.ok,
        oracle=point_spectra_are_suffixes(space),
    )
    check(
        "uniform_levels_spectra_equal",
        structural=leaf_levels.ok and label_levels.ok,
        oracle=point_spectra_all_equal(space),
    )
    if leaf_levels:
        check(
            "label_levels_full_vertex_cover",
            structural=label_levels.ok,
            oracle=cover,
        )
    imply("homogeneous_full_vertex_cover", homogeneous.ok, cover)

    # perfect strictly n-ary: tree shape versus level graphs
    tree_arity = perfect.witness["arity"]
    graph_arity = perfect_level_graph_oracle(space)
    check(
        "perfect_nary_oracle",
        structural=(tree_arity is not None),
        oracle=(graph_arity is not None),
    )
    if tree_arity is not None and graph_arity is not None and tree_arity != graph_arity:
        out.append(
            Discrepancy("perfect_nary_arity_value", {"tree": tree_arity, "graph": graph_arity})
        )
    if injective:
        single = all(
            len(comps[r]) == 1
            and whole_parts[r] is not None
            and len({len(p) for p in whole_parts[r]}) == 1
            for r in positives
        ) and len({len(whole_parts[r]) for r in positives}) <= 1
        check(
            "perfect_nary_injective_case",
            structural=(tree_arity is not None),
            single_graph_equal_parts=single,
        )

    # spaces generated by unrooted labeled trees
    if leafy:
        unrooted = unrooted_from_representing(tree)
        back = space_from_unrooted(unrooted)
        if back != space:
            out.append(Discrepancy("unrooted_round_trip", {"points": n}))
    else:
        try:
            unrooted_from_representing(tree)
        except MissingLeafChild:
            pass
        else:
            out.append(Discrepancy("unrooted_rejection", {"expected_missing_leaf": leafy.witness}))

    # rigidity: structure versus isometry count
    check(
        "rigid_isometry_count",
        structural=rigid.ok,
        oracle=(extras["self_isometries"] == 2),
    )

    # containments
    imply("rigid_in_inner_chain", rigid.ok, chain.ok)
    imply("inner_chain_in_injective", chain.ok, injective.ok)
    imply("extremal_in_binary_injective", extremal.ok, binary.ok and injective.ok)
    imply(
        "inner_chain_in_shape_guarantee",
        chain.ok,
        bool(shape_spectrum_guarantee(tree)),
    )

    # ball count bounds with equality characterizations
    balls = len(bballs)
    dsize = Fraction(delta)
    bound1 = (dsize * n - 1) / (dsize - 1)
    if Fraction(balls) < bound1:
        out.append(Discrepancy("ball_count_lower_bound", {"balls": balls, "bound": bound1}))
    check(
        "ball_count_lower_bound_equality",
        equality=(Fraction(balls) == bound1),
        strictly_delta_ary=(nary.witness["arity"] == delta),
    )
    bound2 = len(sp) + (2 * dsize * n - dsize - n) / (dsize - 1)
    if Fraction(2 * balls) < bound2:
        out.append(Discrepancy("ball_spectrum_bound", {"balls": balls, "bound": bound2}))
    check(
        "ball_spectrum_bound_equality",
        equality=(Fraction(2 * balls) == bound2),
        strictly_nary_injective=(nary.witness["arity"] == delta and injective.ok),
    )

    # shape + spectrum rigidity cross-checks, where the oracle decided
    if shape.witness["basis"] == "oracle":
        if injective:
            check(
                "shape_spectrum_injective_criterion",
                criterion=chain_tail.ok,
                oracle=shape.ok,
            )
        imply(
            "shape_spectrum_guarantee_sound",
            bool(shape_spectrum_guarantee(tree)),
            shape.ok,
        )

    return out
