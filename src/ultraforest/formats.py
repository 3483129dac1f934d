"""Text formats: CSV and JSON for spaces, JSON for trees, DOT export.

All distance values travel as exact rational strings ("3/4", "2", "0.5").
Raw JSON floats are rejected to keep arithmetic exact; JSON integers are
accepted as-is.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .core import Space, validate_space
from .errors import ParseError
from .tree import RootedTree
from .unrooted import UnrootedTree


def parse_rational(token) -> Fraction:
    """Exact rational from a string like "3/4", "2", or "0.25", or an int."""
    if isinstance(token, bool):
        raise ParseError(f"not a rational value: {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, float):
        raise ParseError(
            f"refusing inexact float {token!r}; write it as a string, e.g. \"1/4\""
        )
    if isinstance(token, str):
        try:
            return Fraction(token.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational value: {token!r}") from exc
    raise ParseError(f"not a rational value: {token!r}")


def format_rational(value: Fraction) -> str:
    return str(value)


def load_json(text: str):
    """Decode JSON text; malformed or too deeply nested input is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
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
    matrix = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", position=i)
        matrix.append([parse_rational(tok) for tok in row])
    return validate_space(matrix, points)


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
    matrix = [[parse_rational(tok) for tok in row] for row in dist]
    return validate_space(matrix, points)


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


def tree_to_json_obj(tree: RootedTree) -> dict:
    def node(v: int) -> dict:
        if tree.is_leaf(v):
            return {"label": format_rational(tree.labels[v]), "point": tree.points[v]}
        return {
            "label": format_rational(tree.labels[v]),
            "children": [node(c) for c in tree.children[v]],
        }

    return node(tree.root)


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

    root = walk(obj)
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
