"""Exception types raised across the package.

Every domain error derives from UltrametricError so callers (and the CLI)
can distinguish bad input from genuine bugs.
"""

from __future__ import annotations


class UltrametricError(Exception):
    """Base class for all domain errors."""


# ---------------------------------------------------------------- matrices


class NotSymmetric(UltrametricError):
    def __init__(self, x, y):
        super().__init__(f"d({x},{y}) != d({y},{x})")
        self.x, self.y = x, y


class DiagonalNonzero(UltrametricError):
    def __init__(self, x):
        super().__init__(f"d({x},{x}) != 0")
        self.x = x


class OffDiagonalZero(UltrametricError):
    def __init__(self, x, y):
        super().__init__(f"d({x},{y}) = 0 for distinct points")
        self.x, self.y = x, y


class NegativeDistance(UltrametricError):
    def __init__(self, x, y):
        super().__init__(f"d({x},{y}) < 0")
        self.x, self.y = x, y


class StrongTriangleViolation(UltrametricError):
    """d(x,y) > max(d(x,z), d(z,y)) for the witness triple (x, y, z)."""

    def __init__(self, x, y, z):
        super().__init__(f"d({x},{y}) > max(d({x},{z}), d({z},{y}))")
        self.x, self.y, self.z = x, y, z


class NotUltrametric(UltrametricError):
    """d(x,y) exceeds every distance on some chain of points from x to y."""

    def __init__(self, x, y):
        super().__init__(f"d({x},{y}) exceeds a chain of smaller distances: the matrix is not ultrametric")
        self.x, self.y = x, y


class EmptySubset(UltrametricError):
    def __init__(self):
        super().__init__("subset of points must be nonempty")


class UnknownPoint(UltrametricError):
    def __init__(self, x):
        super().__init__(f"unknown point {x!r}")
        self.x = x


class SingletonSpace(UltrametricError):
    def __init__(self, what="operation"):
        super().__init__(f"{what} requires at least two points")
        self.what = what


# ------------------------------------------------------------------- trees


class InvalidTree(UltrametricError):
    def __init__(self, msg):
        super().__init__(msg)


class LabelMonotonicityViolation(UltrametricError):
    def __init__(self, parent_label, child_label):
        super().__init__(
            f"internal label {parent_label} is not greater than child label {child_label}"
        )
        self.parent_label = parent_label
        self.child_label = child_label


class UnknownNode(UltrametricError):
    def __init__(self, v):
        super().__init__(f"unknown node index {v!r}")
        self.v = v


# ------------------------------------------------------------------ graphs


class ValueNotInSpectrum(UltrametricError):
    def __init__(self, r):
        super().__init__(f"value {r} is not a positive spectrum value of the space")
        self.r = r


class ZeroRadius(UltrametricError):
    def __init__(self):
        super().__init__("level graphs are defined for positive distance values only")


class AllVerticesIsolated(UltrametricError):
    def __init__(self):
        super().__init__("graph has no edges; stripping isolated vertices leaves nothing")


# ---------------------------------------------------------- unrooted trees


class UnknownVertex(UltrametricError):
    def __init__(self, v):
        super().__init__(f"unknown vertex {v!r}")
        self.v = v


class NotUltrametricGenerating(UltrametricError):
    """Some edge joins two zero-labeled vertices, so path maxima fail positivity."""

    def __init__(self, edge):
        super().__init__(f"edge {edge!r} joins two zero-labeled vertices")
        self.edge = edge


class MissingLeafChild(UltrametricError):
    def __init__(self, node):
        super().__init__(
            f"internal node {node!r} has no leaf child; "
            "the space is not generated by any vertex-labeled unrooted tree"
        )
        self.node = node


# ------------------------------------------------- classification / search


class SingularBall(UltrametricError):
    def __init__(self, ball):
        super().__init__("single-point balls admit no partition into smaller balls")
        self.ball = ball


class TooLarge(UltrametricError):
    def __init__(self, what, size, limit):
        super().__init__(f"{what}: instance size {size} exceeds the oracle cutoff {limit}")
        self.what, self.size, self.limit = what, size, limit


class NotInClass(UltrametricError):
    def __init__(self, class_id):
        super().__init__(f"space is not a member of class {class_id!r}")
        self.class_id = class_id


class UnknownClass(UltrametricError):
    def __init__(self, class_id):
        super().__init__(f"unknown class id {class_id!r}")
        self.class_id = class_id


class BudgetExhausted(UltrametricError):
    def __init__(self, budget):
        super().__init__(f"search budget of {budget} instances exhausted before a verdict")
        self.budget = budget


# -------------------------------------------------------------------- I/O


class ParseError(UltrametricError):
    def __init__(self, msg, file=None, position=None):
        where = ""
        if file is not None:
            where += f" in {file}"
        if position is not None:
            where += f" at {position}"
        super().__init__(f"{msg}{where}")
        self.file = file
        self.position = position


class FormatMismatch(UltrametricError):
    def __init__(self, msg):
        super().__init__(msg)
