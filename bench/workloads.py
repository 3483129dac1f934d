"""The four workloads: their inputs, their ops and the checks on each op.

An op is one CLI invocation (``ultraforest.cli.main(argv)`` in-process,
stdout and stderr captured) or one library job.  Inputs come only from
the workload seed; the program sees the generated files or ``Space``
objects, never the seed.  Expected answers come from ``reference`` or
from known facts about the catalog, not from the code under test.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

# Weak-similarity classes of n-point ultrametric spaces (n = 2..8); audit
# and generate must see exactly these many spaces.
CLASS_COUNTS = {2: 1, 3: 2, 4: 6, 5: 20, 6: 90, 7: 468, 8: 2910}

HEREDITARY_TRUE = (
    "gomory_hu_extremal",
    "injective_labels",
    "strictly_binary",
    "rigid",
    "inner_chain",
    "ball_preserving",
)
# smallest (member size, violating subset size) for each non-hereditary class;
# labels_same_level is the refuted claim of the source paper
COUNTEREXAMPLE_SIZES = {
    "strictly_nary": (3, 2),
    "inner_chain_equal_tail": (6, 5),
    "shape_spectrum_determined": (6, 5),
    "homogeneous": (4, 3),
    "leaves_same_level": (4, 3),
    "perfect_nary": (4, 3),
    "unrooted_generated": (5, 4),
    "labels_same_level": (5, 4),
}
ALL_CLASSES = HEREDITARY_TRUE + tuple(COUNTEREXAMPLE_SIZES)


@dataclass
class Outcome:
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None  # an exception that escaped the program


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], str | None]
    prepare: Callable[[], None] = field(default=lambda: None)
    note: Callable[[Outcome], str | None] = field(default=lambda o: None)


class Library:
    """Late-bound access to the package, so traced wrappers are picked up."""

    def __init__(self, package):
        self.name = package.__name__
        self.cli = self.module("cli")
        self.gen = self.module("gen")
        # the lru caches, held before any wrapper replaces the bindings
        self.caches = [self.gen.enumerate_spaces, self.gen.enumerate_rank_trees, self.gen.enumerate_shapes]

    def module(self, layer: str):
        # not getattr(package, layer): the package rebinds ``classify`` to the function
        return sys.modules[f"{self.name}.{layer}"]

    def call_cli(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        result = Outcome()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result.rc = self.cli.main(argv)
            except SystemExit as exc:
                result.rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # counted as a failure, never dropped
                result.error = f"{type(exc).__name__}: {str(exc)[:200]}"
        result.stdout, result.stderr = out.getvalue(), err.getvalue()
        return result

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()


def expect(rc: int, first_line: str | None = None):
    def check(o: Outcome) -> str | None:
        if o.rc != rc:
            return f"exit {o.rc}, expected {rc}"
        if first_line is not None and o.stdout.split("\n", 1)[0] != first_line:
            return f"first line {o.stdout.split(chr(10), 1)[0]!r}, expected {first_line!r}"
        return None

    return check


# ------------------------------------------------------------- cli-files


def _verdict_checks(tree: ref.BallTree, n: int, member) -> str | None:
    """Class verdicts that follow directly from the reference tree."""
    internal = tree.internal()
    labels = [tree.label[v] for v in internal]
    leaf_depths = {tree.depth[v] for v in range(tree.n_nodes) if not tree.kids[v]}
    expected = {
        "gomory_hu_extremal": len(set(labels)) + 1 == n,
        "injective_labels": len(labels) == len(set(labels)),
        "strictly_binary": all(len(tree.kids[v]) == 2 for v in internal),
        "leaves_same_level": len(leaf_depths) == 1,
        "unrooted_generated": all(any(not tree.kids[c] for c in tree.kids[v]) for v in internal),
    }
    for cid, want in expected.items():
        got = member(cid)
        if got is not want:
            return f"{cid} verdict {got}, expected {want}"
    return None


def _classify_check(tree: ref.BallTree, points):
    spectrum = tree.spectrum()
    n = len(points)

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        obj = json.loads(o.stdout)
        if obj["points"] != n or [Fraction(v) for v in obj["spectrum"]] != spectrum:
            return "points or spectrum differ from the input"
        if set(obj["classes"]) != set(ALL_CLASSES):
            return "class list differs from the catalog"
        extras = obj["extras"]
        if (extras["ball_count"], extras["height"]) != (tree.n_nodes, tree.height()):
            return "ball count or height differ from the reference tree"
        if extras["self_isometries"] != tree.self_isometries():
            return "self-isometry count differs from the reference tree"
        return _verdict_checks(tree, n, lambda cid: obj["classes"][cid]["member"])

    return check


def _validate_check(tree: ref.BallTree, points):
    spectrum = tree.spectrum()

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        m = re.fullmatch(r"valid: (\d+) points, spectrum \{(.*)\}\n", o.stdout)
        if not m:
            return f"unexpected output {o.stdout[:80]!r}"
        if int(m.group(1)) != len(points):
            return "point count differs from the input"
        if [Fraction(v) for v in m.group(2).split(", ")] != spectrum:
            return "spectrum differs from the generator's label set"
        return None

    return check


def _tree_check(tree: ref.BallTree, points):
    code = tree.code("labeled")

    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        obj = json.loads(o.stdout)
        if sorted(ref.tree_json_points(obj)) != sorted(points):
            return "tree leaves differ from the input points"
        if ref.code_of_tree_json(obj) != code:
            return "tree differs from the reference representing tree"
        return None

    return check


def _matrix_check(points, dist):
    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        got_points, got_dist = ref.read_csv_space(o.stdout)
        if not ref.same_space(got_points, got_dist, points, dist):
            return "matrix does not parse back to the input space"
        return None

    return check


def _unrooted_check(points, dist):
    def check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        obj = json.loads(o.stdout)
        labels = {v["id"]: Fraction(v["label"]) for v in obj["vertices"]}
        vertices = list(labels)
        if sorted(vertices) != sorted(points) or len(obj["edges"]) != len(vertices) - 1:
            return "unrooted tree does not span the input points"
        got = ref.path_max_matrix(vertices, [tuple(e) for e in obj["edges"]], labels)
        if not ref.same_space(vertices, got, points, dist):
            return "unrooted tree generates another space"
        return None

    return check


def _rescale(v: Fraction) -> Fraction:
    # strictly increasing on v >= 0 with f(0) = 0, and not a plain scaling
    return v * v + v


# Every kind runs at n = 16 and 32.  The larger files carry the kinds
# users run on big inputs; a 96-point file costs about a second per
# validation on the seed, so running every kind there would leave no room
# for repeated rounds.  n = 48 fills the gap in op cost between 32 and 64,
# so the median and the tail fall among ops of similar cost.
FILE_KINDS = {
    48: ("validate-a", "tree", "classify", "fp-labeled", "to-tree"),
    64: ("validate-a", "tree", "classify", "fp-labeled", "isometric", "to-tree", "u-to-matrix", "t-to-matrix"),
    96: ("validate-a", "classify", "u-to-matrix", "t-to-matrix"),
}


def cli_files(lib: Library, work: Path, seed: int, small: bool) -> list[Op]:
    sizes = (16,) if small else (16, 32, 48, 64, 96)
    rng = random.Random(f"cli-files:{seed}")
    spell = ref.Speller(rng)
    ops: list[Op] = []
    for n in sizes:
        d = work / f"n{n}"
        d.mkdir(parents=True)
        a = lib.gen.random_space(n, rng.randrange(2**32))
        a_pts, a_dist = list(a.points), [list(r) for r in a.dist]
        u = lib.gen.random_unrooted(n, rng.randrange(2**32))
        u_edges = sorted(u.edges)
        b_pts = list(u.vertices)
        b_dist = ref.path_max_matrix(b_pts, u_edges, u.labels)
        ta, tb = ref.BallTree(a_pts, a_dist), ref.BallTree(b_pts, b_dist)

        order = list(range(n))
        rng.shuffle(order)
        perm_pts = [f"y{i}" for i in range(n)]
        perm_dist = [[a_dist[order[i]][order[j]] for j in range(n)] for i in range(n)]
        resc_dist = [[_rescale(v) for v in row] for row in a_dist]

        files = {
            "a.csv": ref.space_csv(a_pts, a_dist, spell),
            "a.json": ref.space_json(a_pts, a_dist, spell),
            "b.csv": ref.space_csv(b_pts, b_dist, spell),
            "b.json": ref.space_json(b_pts, b_dist, spell),
            "perm.json": ref.space_json(perm_pts, perm_dist, spell),
            "resc.csv": ref.space_csv(a_pts, resc_dist, spell),
            "u.json": ref.unrooted_json(b_pts, u_edges, u.labels, spell),
            "t.json": json.dumps(ta.to_json_obj(spell)),
        }
        for name, text in files.items():
            (d / name).write_text(text, encoding="utf-8")
        f = {name: str(d / name) for name in files}
        scaling = ["weakly similar: true"] + [f"  {v} -> {_rescale(v)}" for v in ta.spectrum()]
        scaling_text = "\n".join(scaling) + "\n"

        kinds = {
            "validate-a": (["validate", f["a.csv"]], _validate_check(ta, a_pts)),
            "validate-b": (["validate", f["b.json"]], _validate_check(tb, b_pts)),
            "tree": (["tree", f["a.json"]], _tree_check(ta, a_pts)),
            "classify": (["classify", f["a.csv"], "--format", "json"], _classify_check(ta, a_pts)),
            "fp-labeled": (["fingerprint", "--mode", "labeled", f["a.csv"]], expect(0, ta.code("labeled"))),
            "fp-unlabeled": (["fingerprint", "--mode", "unlabeled", f["b.csv"]], expect(0, tb.code("unlabeled"))),
            "fp-rank": (["fingerprint", "--mode", "rank_labeled", f["a.json"]], expect(0, ta.code("rank_labeled"))),
            "isometric": (["isometric", f["a.csv"], f["perm.json"]], expect(0, "isometric: true")),
            "weaksim": (
                ["weaksim", f["a.csv"], f["resc.csv"]],
                lambda o, want=scaling_text: expect(0)(o) or (None if o.stdout == want else "scaling map differs"),
            ),
            "to-tree": (["convert", f["a.csv"], "--to", "tree"], _tree_check(ta, a_pts)),
            "to-unrooted": (["convert", f["b.csv"], "--to", "unrooted"], _unrooted_check(b_pts, b_dist)),
            "u-to-matrix": (["convert", f["u.json"], "--to", "matrix"], _matrix_check(b_pts, b_dist)),
            "t-to-matrix": (["convert", f["t.json"], "--to", "matrix"], _matrix_check(a_pts, a_dist)),
        }
        for kind in FILE_KINDS.get(n, kinds):
            argv, check = kinds[kind]
            ops.append(Op(f"{kind} n={n}", lambda argv=argv: lib.call_cli(argv), check))

    # ROADMAP 4a: random_space(14, 2) has an undecided
    # shape_spectrum_determined verdict; keep it in the mix and report it.
    s14 = lib.gen.random_space(14, 2)
    p14, d14 = list(s14.points), [list(r) for r in s14.dist]
    path14 = work / "undecided.csv"
    path14.write_text(ref.space_csv(p14, d14, spell), encoding="utf-8")

    def note14(o: Outcome) -> str | None:
        if o.rc != 0:
            return None
        cls = json.loads(o.stdout)["classes"]["shape_spectrum_determined"]
        return f"shape_spectrum_determined member={cls['member']} certificate={json.dumps(cls['certificate'])}"

    ops.append(
        Op(
            "classify random_space(14,2)",
            lambda argv=["classify", str(path14), "--format", "json"]: lib.call_cli(argv),
            _classify_check(ref.BallTree(p14, d14), p14),
            note=note14,
        )
    )
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------- cli-rejects


def _reject_check(o: Outcome) -> str | None:
    if o.rc != 2:
        return f"exit {o.rc}, expected 2"
    if o.stdout or not o.stderr.startswith("error:"):
        return "a rejection must print only an error line"
    return None


def cli_rejects(lib: Library, work: Path, seed: int, small: bool) -> list[Op]:
    # five sizes, so the median op sits among ops of similar cost
    sizes = (16,) if small else (16, 32, 48, 64, 96)
    commands = ("validate", "tree", "classify", "fingerprint")
    deep = work / "deep.json"
    deep.write_text(ref.deep_tree_json(1200), encoding="utf-8")
    rng = random.Random(f"cli-rejects:{seed}")
    spell = ref.Speller(rng)
    ops: list[Op] = []
    for si, n in enumerate(sizes):
        s = lib.gen.random_space(n, rng.randrange(2**32))
        pts = list(s.points)
        base = [list(r) for r in s.dist]
        as_json = si % 2 == 1
        # each violation sits last in its scan order, so finding it
        # costs the whole pass that looks for it
        cases = {}
        m = [r[:] for r in base]
        m[n - 1][n - 1] = Fraction(1)
        cases["diagonal"] = m
        m = [r[:] for r in base]
        m[n - 1][n - 2] += 1
        cases["asymmetric"] = m
        m = [r[:] for r in base]
        top = 2 * max(max(r) for r in base)
        m[n - 2][n - 1] = m[n - 1][n - 2] = top
        cases["strong-triangle"] = m
        texts = {}
        for kind, matrix in cases.items():
            texts[kind] = (ref.space_json if as_json else ref.space_csv)(pts, matrix, spell)
        obj = json.loads(ref.space_json(pts, base, spell))
        obj["dist"][n - 1][n - 2] = float(base[n - 1][n - 2])
        texts["json-float"] = json.dumps(obj)
        rows = ref.space_csv(pts, base, spell).rstrip("\n").split("\n")
        if as_json:
            obj = json.loads(ref.space_json(pts, base, spell))
            obj["dist"][n - 1][n - 1] = "0..5"
            texts["bad-token"] = json.dumps(obj)
            obj["dist"][n - 1] = obj["dist"][n - 1][:-1]
            texts["short-row"] = json.dumps(obj)
        else:
            texts["bad-token"] = "\n".join(rows[:-1] + [rows[-1].rsplit(",", 1)[0] + ",0..5"]) + "\n"
            texts["short-row"] = "\n".join(rows[:-1] + [rows[-1].rsplit(",", 1)[0]]) + "\n"
        for ki, (kind, text) in enumerate(sorted(texts.items())):
            path = work / f"n{n}-{kind}.{'json' if text.startswith('{') else 'csv'}"
            path.write_text(text, encoding="utf-8")
            cmd = commands[(ki + si) % len(commands)]
            ops.append(
                Op(f"{cmd} {kind} n={n}", lambda argv=[cmd, str(path)]: lib.call_cli(argv), _reject_check)
            )
    # ROADMAP 4b: escapes cli.main with RecursionError on the seed
    ops.append(
        Op(
            "convert deep tree (1200 levels)",
            lambda argv=["convert", str(deep), "--to", "matrix"]: lib.call_cli(argv),
            _reject_check,
        )
    )
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- lib-large


def _caterpillar(n: int):
    # d(x_i, x_j) = max(i, j) - 1: height n - 1, spectrum {0, ..., n - 1}
    values = [Fraction(k) for k in range(n)]
    return [[values[0] if i == j else values[max(i, j)] for j in range(n)] for i in range(n)]


def _star(n: int):
    zero, one = Fraction(0), Fraction(1)
    return [[zero if i == j else one for j in range(n)] for i in range(n)]


def lib_large(lib: Library, work: Path, seed: int, small: bool) -> list[Op]:
    # 800 points only for the caterpillar, whose string codes cost
    # O(n * height); the other shapes at 800 would take most of a run
    jobs = [(shape, n) for n in ((200,) if small else (200, 400)) for shape in ("random", "caterpillar", "star", "unrooted")]
    if not small:
        jobs.append(("caterpillar", 800))
    Space = lib.module("core").Space
    rng = random.Random(f"lib-large:{seed}")
    ops = []
    for shape, n in jobs:
        if shape == "random":
            a = lib.gen.random_space(n, rng.randrange(2**32))
            pts, dist = list(a.points), [list(r) for r in a.dist]
        elif shape == "unrooted":
            u = lib.gen.random_unrooted(n, rng.randrange(2**32))
            pts = list(u.vertices)
            dist = ref.path_max_matrix(pts, sorted(u.edges), u.labels)
        else:
            pts = [f"x{i}" for i in range(1, n + 1)]
            dist = (_caterpillar if shape == "caterpillar" else _star)(n)
        tree = ref.BallTree(pts, dist)
        want = {m: tree.code(m) for m in ("labeled", "unlabeled", "rank_labeled")}
        held = {}

        def prepare(held=held, pts=pts, dist=dist):
            # a fresh Space per run, so no cached diameter carries over
            held["space"] = Space(pts, dist)

        def run(held=held, unrooted=shape == "unrooted"):
            space = held.pop("space")
            m = lib.module
            t = m("tree").build_representing_tree(space)
            value = {
                "report": m("classify").classify(space),
                "codes": {mode: m("canonical").canonical_code(t, mode) for mode in want},
                "isometries": m("canonical").count_self_isometries(t),
            }
            if unrooted:
                value["back"] = m("unrooted").space_from_unrooted(m("unrooted").unrooted_from_representing(t))
            return Outcome(value=value)

        def check(o, tree=tree, want=want, pts=pts, dist=dist):
            v = o.value
            if v["codes"] != want:
                return "canonical codes differ from the reference tree"
            iso = tree.self_isometries()
            rep = v["report"]
            if v["isometries"] != iso or rep.extras["self_isometries"] != iso:
                return "self-isometry count differs from the reference tree"
            if rep.points != len(pts) or list(rep.spectrum) != tree.spectrum():
                return "points or spectrum differ from the input"
            if (rep.extras["ball_count"], rep.extras["height"]) != (tree.n_nodes, tree.height()):
                return "ball count or height differ from the reference tree"
            if "back" in v and not ref.same_space(list(v["back"].points), v["back"].dist, pts, dist):
                return "unrooted round trip changed the space"
            return _verdict_checks(tree, len(pts), lambda cid: rep.classes[cid].member)

        ops.append(Op(f"{shape} n={n}", run, check, prepare=prepare))
    return ops


# ----------------------------------------------------------- sweep-small


def sweep_small(lib: Library, work: Path, seed: int, small: bool) -> list[Op]:
    os.environ.pop("ULTRAFOREST_THREADS", None)
    audit_n, verify_n, cex_n, gen_n = (6, 6, 6, 6) if small else (7, 7, 6, 8)
    jobs = []
    spaces = sum(CLASS_COUNTS[k] for k in range(2, audit_n + 1))
    jobs.append(
        (
            ["audit", "--exhaustive", "--max-n", str(audit_n)],
            expect(0, f"audited {spaces} spaces (2..{audit_n} points): 0 discrepancies"),
        )
    )
    for cid in ALL_CLASSES:
        if cid in HEREDITARY_TRUE:
            check = expect(0, f"hereditary: true (all spaces up to {verify_n} points)")
        else:
            check = expect(1, "hereditary: false")
        jobs.append((["hereditary", "verify", cid, "--max-n", str(verify_n)], check))
    for cid, (size, sub) in COUNTEREXAMPLE_SIZES.items():
        want = f"counterexample found\nmember space: {size}\nviolating subset: {sub}"

        def cex_check(o, want=want):
            if o.rc != 1:
                return f"exit {o.rc}, expected 1"
            lines = o.stdout.strip().split("\n")
            if len(lines) != 3 or not lines[1].startswith("member space: ") or not lines[2].startswith("violating subset: "):
                return "unexpected output"
            got = f"{lines[0]}\nmember space: {len(lines[1].split(': ')[1].split(','))}\nviolating subset: {len(lines[2].split(': ')[1].split(','))}"
            return None if got == want else "counterexample is not the smallest known one"

        jobs.append((["hereditary", "counterexample", cid, "--max-n", str(cex_n)], cex_check))

    def gen_check(o: Outcome) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}, expected 0"
        codes = set()
        for line in o.stdout.splitlines():
            pts, dist = ref.read_json_space(line)
            if len(pts) != gen_n:
                return "generated space has the wrong size"
            codes.add(ref.BallTree(pts, dist).code("rank_labeled"))
        if len(codes) != CLASS_COUNTS[gen_n]:
            return f"{len(codes)} distinct classes, expected {CLASS_COUNTS[gen_n]}"
        return None

    jobs.append((["generate", "--exhaustive", "--n", str(gen_n)], gen_check))

    rng = random.Random(f"sweep-small:{seed}")
    rng.shuffle(jobs)
    # every CLI process starts with empty enumeration caches
    return [Op(" ".join(argv), lambda argv=argv: lib.call_cli(argv), check, prepare=lib.clear_caches) for argv, check in jobs]


WORKLOADS = {
    "cli-files": cli_files,
    "cli-rejects": cli_rejects,
    "lib-large": lib_large,
    "sweep-small": sweep_small,
}
