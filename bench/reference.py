"""Independent reference computations for checking the program's outputs.

Nothing here imports ultraforest: the expected answers come from the
definitions (balls of an ultrametric, path maxima of an unrooted tree),
so a check fails when the program disagrees with the mathematics, not
only when it disagrees with itself.  Every walk is iterative, because the
benchmark must not raise the interpreter's recursion limit (that would
hide the deep-nesting defect it measures).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, deque
from fractions import Fraction

ZERO = Fraction(0)


class BallTree:
    """The representing tree of a distance matrix, found by splitting balls.

    ``label[v]``, ``kids[v]`` and ``point[v]`` describe node ``v``; node 0 is
    the root and every parent precedes its children.
    """

    def __init__(self, points, dist):
        n = len(points)
        self.label: list[Fraction] = []
        self.kids: list[list[int]] = []
        self.point: list[str | None] = []
        self.depth: list[int] = []
        stack = [(list(range(n)), self._add(ZERO, None, 0))]
        while stack:
            members, v = stack.pop()
            if len(members) == 1:
                self.point[v] = points[members[0]]
                continue
            row = dist[members[0]]
            diam = max(row[q] for q in members)
            self.label[v] = diam
            reps: list[int] = []
            groups: list[list[int]] = []
            for q in members:
                for rep, group in zip(reps, groups):
                    if dist[q][rep] < diam:
                        group.append(q)
                        break
                else:
                    reps.append(q)
                    groups.append([q])
            for group in groups:
                c = self._add(ZERO, None, self.depth[v] + 1)
                self.kids[v].append(c)
                stack.append((group, c))

    def _add(self, label, point, depth) -> int:
        self.label.append(label)
        self.kids.append([])
        self.point.append(point)
        self.depth.append(depth)
        return len(self.label) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.label)

    def spectrum(self) -> list[Fraction]:
        # every distance is the label of the two points' lowest common
        # ancestor, and every label is a distance
        return sorted(set(self.label))

    def height(self) -> int:
        return max(d for d, k in zip(self.depth, self.kids) if not k)

    def codes(self, mode: str) -> list[str]:
        """Per-node canonical codes in the library's documented string form."""
        if mode == "rank_labeled":
            ranks = {l: i for i, l in enumerate(sorted(set(self.label)))}
            token = lambda v: str(ranks[self.label[v]])
        elif mode == "labeled":
            token = lambda v: str(self.label[v])
        else:
            token = lambda v: ""
        code = [""] * self.n_nodes
        for v in reversed(range(self.n_nodes)):
            inner = ",".join(sorted(code[c] for c in self.kids[v]))
            code[v] = token(v) + "(" + inner + ")"
        return code

    def code(self, mode: str) -> str:
        return self.codes(mode)[0]

    def self_isometries(self) -> int:
        codes = self.codes("labeled")
        total = 1
        for kids in self.kids:
            for mult in Counter(codes[c] for c in kids).values():
                total *= math.factorial(mult)
        return total

    def internal(self) -> list[int]:
        return [v for v in range(self.n_nodes) if self.kids[v]]

    def to_json_obj(self, spell) -> dict:
        objs: list[dict] = [{} for _ in range(self.n_nodes)]
        for v in reversed(range(self.n_nodes)):
            if self.kids[v]:
                objs[v] = {
                    "label": spell(self.label[v]),
                    "children": [objs[c] for c in self.kids[v]],
                }
            else:
                objs[v] = {"label": spell(ZERO), "point": self.point[v]}
        return objs[0]


def code_of_tree_json(obj, mode: str = "labeled") -> str:
    """Canonical code of a tree given as the library's nested JSON object."""
    order = []
    stack = [obj]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.get("children", []))
    labels = sorted({Fraction(node["label"]) for node in order})
    ranks = {l: i for i, l in enumerate(labels)}
    code: dict[int, str] = {}
    for node in reversed(order):
        inner = ",".join(sorted(code[id(c)] for c in node.get("children", [])))
        label = Fraction(node["label"])
        token = {"labeled": str(label), "rank_labeled": str(ranks[label])}.get(mode, "")
        code[id(node)] = token + "(" + inner + ")"
    return code[id(obj)]


def tree_json_points(obj) -> list[str]:
    out = []
    stack = [obj]
    while stack:
        node = stack.pop()
        if "point" in node:
            out.append(node["point"])
        stack.extend(node.get("children", []))
    return out


def path_max_matrix(vertices, edges, labels) -> list[list[Fraction]]:
    """Distances of the space an unrooted vertex-labeled tree generates."""
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    index = {v: i for i, v in enumerate(vertices)}
    matrix = []
    for src in vertices:
        best = {src: labels[src]}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in best:
                    best[w] = max(best[v], labels[w])
                    queue.append(w)
        row = [ZERO] * len(vertices)
        for v, value in best.items():
            if v != src:
                row[index[v]] = value
        matrix.append(row)
    return matrix


def same_space(points_a, dist_a, points_b, dist_b) -> bool:
    """Equal point sets and equal distances, whatever the point order."""
    if sorted(points_a) != sorted(points_b):
        return False
    ib = {p: i for i, p in enumerate(points_b)}
    perm = [ib[p] for p in points_a]
    for i, row in enumerate(dist_a):
        orow = dist_b[perm[i]]
        if any(row[j] != orow[perm[j]] for j in range(len(row))):
            return False
    return True


def read_csv_space(text: str):
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    points = [p.strip() for p in rows[0]]
    return points, [[Fraction(tok) for tok in row] for row in rows[1:]]


def read_json_space(text: str):
    obj = json.loads(text)
    return obj["points"], [[Fraction(str(tok)) for tok in row] for row in obj["dist"]]


def spell_terminating(value: Fraction) -> str | None:
    """Exact decimal spelling when the denominator allows one."""
    q = value.denominator
    twos = fives = 0
    while q % 2 == 0:
        q //= 2
        twos += 1
    while q % 5 == 0:
        q //= 5
        fives += 1
    if q != 1:
        return None
    places = max(twos, fives)
    if places == 0:
        return None
    scaled = value * 10**places
    digits = str(scaled.numerator).rjust(places + 1, "0")
    return digits[:-places] + "." + digits[-places:]


class Speller:
    """Writes each value in one of several equal spellings: ``1/2``,
    ``0.5``, ``2/4``.  The choice is drawn from the workload's generator,
    so a seed fixes the text byte for byte."""

    def __init__(self, rng):
        self.rng = rng

    def __call__(self, value: Fraction) -> str:
        options = [str(value)]
        decimal = spell_terminating(value)
        if decimal is not None:
            options.append(decimal)
        if value != 0:
            m = self.rng.choice((2, 3, 7))
            options.append(f"{value.numerator * m}/{value.denominator * m}")
        return self.rng.choice(options)


def space_csv(points, dist, spell) -> str:
    lines = [",".join(points)]
    lines += [",".join(spell(v) for v in row) for row in dist]
    return "\n".join(lines) + "\n"


def space_json(points, dist, spell) -> str:
    def entry(v: Fraction):
        text = spell(v)
        # JSON integers are a fourth accepted spelling of integral values
        return v.numerator if v.denominator == 1 and text == str(v) else text

    return json.dumps({"points": list(points), "dist": [[entry(v) for v in row] for row in dist]})


def unrooted_json(vertices, edges, labels, spell) -> str:
    return json.dumps(
        {
            "vertices": [{"id": v, "label": spell(labels[v])} for v in vertices],
            "edges": [list(e) for e in edges],
        }
    )


def deep_tree_json(depth: int) -> str:
    """A caterpillar tree nested ``depth`` levels deep, written without the
    json module (whose encoder would itself exceed the recursion limit)."""
    head = []
    for level in range(depth, 0, -1):
        head.append(f'{{"label": "{level}", "children": [{{"label": "0", "point": "p{level + 1}"}}, ')
    return "".join(head) + '{"label": "0", "point": "p1"}' + "]}" * depth
