"""Text formats: CSV and JSON for spaces, JSON for trees, DOT export.

All distance values travel as exact rational strings ("3/4", "2", "0.5").
Raw JSON floats are rejected to keep arithmetic exact; JSON integers are
accepted as-is.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

from .core import Space, validate_space
from .errors import ParseError, TooLarge
from .tree import RootedTree, height
from .unrooted import UnrootedTree


# CPython's default int <-> str limit: values with more digits above or
# below the fraction bar are refused, so every accepted value prints.
MAX_DIGITS = 4300

SHOWN_CHARS = 40  # of a token, in an error line

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")
_DIGIT_RUN = re.compile(r"\d+")


def parse_rational(token) -> Fraction:
    """Exact rational from a string like "3/4", "2", "0.25" or "1e-3", or an
    int, with at most MAX_DIGITS digits (or a lower interpreter limit)."""
    if isinstance(token, float):
        raise ParseError(f'refusing inexact float {token!r}; write it as a string, e.g. "1/4"')
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise ParseError(f"not a rational value: {_shown(token)}")
    value = None
    try:
        if isinstance(token, int):
            value = Fraction(token)
        else:
            text = token.strip()
            exp = _EXPONENT.search(text)
            # Fraction computes 10**exponent: past MAX_DIGITS + len(text) a
            # nonzero value has too many digits either way, so clamp it there
            if exp and int(exp[1]) > MAX_DIGITS + len(text):
                text = text[: exp.start(1)] + str(MAX_DIGITS + len(text) + 1)
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # int() refuses a digit run past the interpreter limit before the
        # spelling is read: a spelling that holds with short runs is too long
        if isinstance(exc, ZeroDivisionError) or not _well_spelled(_DIGIT_RUN.sub("1", text)):
            raise ParseError(f"not a rational value: {_shown(token)}") from exc
    try:  # str() also refuses a value past a lower interpreter limit
        if value is not None and max(len(str(abs(value.numerator))), len(str(value.denominator))) <= MAX_DIGITS:
            return value
    except ValueError:
        pass
    raise ParseError("rational value with too many digits above or below the fraction bar")


def _well_spelled(text: str) -> bool:
    try:
        Fraction(text)
    except ValueError:
        return False
    return True


def _shown(token) -> str:
    """A token for an error line, cut after SHOWN_CHARS characters (of its repr, if not a string)."""
    text = token if isinstance(token, str) else repr(token)
    return repr(token) if len(text) <= SHOWN_CHARS else f"{text[:SHOWN_CHARS]!r}... ({len(text)} characters)"


def _parse_new(parsed: dict, row: list, keys: list) -> None:
    """Parse the row's tokens whose keys are new, in row order: the first bad one is named."""
    try:
        firsts = dict(zip(keys, row))  # first-seen order; equal keys, equal tokens
    except TypeError:  # a JSON list or object, which parse_rational refuses
        for tok in row:
            parse_rational(tok)
        raise
    for key, tok in firsts.items():
        if key not in parsed:
            parsed[key] = parse_rational(tok)


def format_rational(value: Fraction) -> str:
    return str(value)


def load_json(text: str):
    """Decode JSON text; malformed, too deep or too long input is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError("invalid JSON: an integer has too many digits") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply to read") from exc


# ---------------------------------------------------------------- spaces


def space_to_csv(space: Space) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(space.points)
    for row in space.dist:
        writer.writerow([format_rational(v) for v in row])
    return buf.getvalue()


def space_from_csv(text: str) -> Space:
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows:
        raise ParseError("empty CSV input")
    points = [p.strip() for p in rows[0]]
    n = len(points)
    if len(rows) != n + 1:
        raise ParseError(
            f"expected {n} matrix rows after the header, found {len(rows) - 1}"
        )
    parsed: dict[str, Fraction] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", position=i)
        _parse_new(parsed, row, row)
    return validate_space(rows[1:], points, parsed=parsed)


def space_to_json_obj(space: Space) -> dict:
    return {
        "points": list(space.points),
        "dist": [[format_rational(v) for v in row] for row in space.dist],
    }


def space_from_json_obj(obj) -> Space:
    if not isinstance(obj, dict):
        raise ParseError("space JSON must be an object")
    if "points" not in obj or "dist" not in obj:
        raise ParseError('space JSON needs "points" and "dist" keys')
    points = obj["points"]
    dist = obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ParseError('"points" must be a list of strings')
    if not isinstance(dist, list) or not all(isinstance(r, list) for r in dist):
        raise ParseError('"dist" must be a list of rows')
    # keyed by type too, as true == 1; only str and int tokens parse
    parsed: dict[tuple[type, str | int], Fraction] = {}
    for row in dist:
        _parse_new(parsed, row, list(zip(map(type, row), row)))
    return validate_space(dist, points, parsed={tok: v for (_, tok), v in parsed.items()})


def space_to_json(space: Space) -> str:
    return json.dumps(space_to_json_obj(space), indent=2) + "\n"


def space_from_json(text: str) -> Space:
    return space_from_json_obj(load_json(text))


def parse_space(text: str, fmt: str | None = None) -> Space:
    """Parse either format; when ``fmt`` is None, sniff by first character."""
    if fmt is None:
        head = text.lstrip()[:1]
        fmt = "json" if head == "{" else "csv"
    if fmt == "json":
        return space_from_json(text)
    if fmt == "csv":
        return space_from_csv(text)
    raise ParseError(f"unknown space format: {fmt!r}")


# ----------------------------------------------------------------- trees

# The highest tree written as JSON.  A tree of height h nests 2h + 1 JSON
# containers, and ``json`` spends a stack frame on each, both writing with
# indent and reading; both fail between h = 490 and 500 under the default
# recursion limit of 1000, so this keeps a margin of 90 levels.
TREE_JSON_MAX_HEIGHT = 400


def tree_to_json_obj(tree: RootedTree) -> dict:
    """Nested JSON object of a rooted tree, built children first; a tree
    higher than TREE_JSON_MAX_HEIGHT raises TooLarge."""
    h = height(tree)
    if h > TREE_JSON_MAX_HEIGHT:
        raise TooLarge("tree JSON height", h, TREE_JSON_MAX_HEIGHT)
    objs: list = [None] * tree.n_nodes
    for v in reversed(tree.preorder()):
        label = format_rational(tree.labels[v])
        if tree.is_leaf(v):
            objs[v] = {"label": label, "point": tree.points[v]}
        else:
            objs[v] = {"label": label, "children": [objs[c] for c in tree.children[v]]}
    return objs[tree.root]


def tree_from_json_obj(obj) -> RootedTree:
    labels: list[Fraction] = []
    children: list[tuple[int, ...]] = []
    points: list[str | None] = []

    def walk(node) -> int:
        if not isinstance(node, dict) or "label" not in node:
            raise ParseError('every tree node needs a "label"')
        label = parse_rational(node["label"])
        kids = node.get("children", [])
        if not isinstance(kids, list):
            raise ParseError('"children" must be a list')
        if kids:
            if "point" in node:
                raise ParseError("internal nodes cannot carry a point")
            child_ids = tuple(walk(k) for k in kids)
            labels.append(label)
            children.append(child_ids)
            points.append(None)
        else:
            point = node.get("point")
            if not isinstance(point, str):
                raise ParseError('leaves need a string "point"')
            labels.append(label)
            children.append(())
            points.append(point)
        return len(labels) - 1

    try:
        root = walk(obj)
    except RecursionError as exc:
        raise ParseError("tree JSON nested too deeply to read") from exc
    return RootedTree(labels, children, points, root=root)


def tree_to_json(tree: RootedTree) -> str:
    return json.dumps(tree_to_json_obj(tree), indent=2) + "\n"


def tree_from_json(text: str) -> RootedTree:
    return tree_from_json_obj(load_json(text))


# --------------------------------------------------------- unrooted trees


def unrooted_to_json_obj(tree: UnrootedTree) -> dict:
    return {
        "vertices": [
            {"id": v, "label": format_rational(tree.labels[v])}
            for v in sorted(tree.vertices)
        ],
        "edges": [list(e) for e in sorted(tree.edges)],
    }


def unrooted_from_json_obj(obj) -> UnrootedTree:
    if not isinstance(obj, dict):
        raise ParseError("unrooted tree JSON must be an object")
    if "vertices" not in obj or "edges" not in obj:
        raise ParseError('unrooted tree JSON needs "vertices" and "edges" keys')
    if not isinstance(obj["vertices"], list):
        raise ParseError('"vertices" must be a list')
    labels = {}
    for entry in obj["vertices"]:
        if not isinstance(entry, dict) or "id" not in entry or "label" not in entry:
            raise ParseError('each vertex needs "id" and "label"')
        if not isinstance(entry["id"], str):
            raise ParseError("vertex ids must be strings")
        if entry["id"] in labels:
            raise ParseError(f"duplicate vertex id {entry['id']!r}")
        labels[entry["id"]] = parse_rational(entry["label"])
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list')
    pairs = []
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(v, str) for v in e)
        ):
            raise ParseError("each edge must be a two-element list of vertex ids")
        pairs.append((e[0], e[1]))
    return UnrootedTree(list(labels), pairs, labels)


def unrooted_to_json(tree: UnrootedTree) -> str:
    return json.dumps(unrooted_to_json_obj(tree), indent=2) + "\n"


def unrooted_from_json(text: str) -> UnrootedTree:
    return unrooted_from_json_obj(load_json(text))


# ------------------------------------------------------------------- DOT


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_to_dot(tree: RootedTree) -> str:
    lines = ["digraph representing_tree {"]
    for v in tree.preorder():
        if tree.is_leaf(v):
            lines.append(f"  n{v} [label={_dot_quote(tree.points[v])} shape=box];")
        else:
            lines.append(
                f"  n{v} [label={_dot_quote(format_rational(tree.labels[v]))} shape=circle];"
            )
    for v in tree.preorder():
        for c in tree.children[v]:
            lines.append(f"  n{v} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def unrooted_to_dot(tree: UnrootedTree) -> str:
    lines = ["graph labeled_tree {"]
    index = {v: i for i, v in enumerate(sorted(tree.vertices))}
    for v in sorted(tree.vertices):
        text = f"{v}:{format_rational(tree.labels[v])}"
        lines.append(f"  n{index[v]} [label={_dot_quote(text)}];")
    for a, b in sorted(tree.edges):
        lines.append(f"  n{index[a]} -- n{index[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
