"""Layer timings taken from outside the program.

``install`` replaces chosen public functions of ``ultraforest`` with timing
wrappers at every module binding they are reached through (both
``ultraforest.formats.validate_space`` and ``ultraforest.core.validate_space``
name one function, so both get the same wrapper).  Spans nest: a span's
self time is its duration minus the durations of the wrapped calls inside
it, so the self times of one op add up to that op's wall time.

Spans are kept in memory as flat arrays and written out once, when the
run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

OP_SPAN = "bench.op"
HOOK_SPAN = "trace.hooks"

# (module, function) pairs that get a span, by layer.  A missing name is
# reported, not fatal, so later refactors still run the benchmark.
SPANS = {
    "cli": ["main"],
    "formats": [
        "parse_space",
        "tree_from_json",
        "unrooted_from_json",
        "space_to_csv",
        "tree_to_json_obj",
    ],
    "core": ["validate_space"],
    "tree": ["build_representing_tree", "tree_to_space", "RootedTree.__init__"],
    "canonical": [
        "canonical_code",
        "node_codes",
        "count_self_isometries",
        "are_isometric",
        "are_weakly_similar",
    ],
    "classify": [
        "classify",
        "is_gomory_hu_extremal",
        "has_injective_internal_labels",
        "is_strictly_binary",
        "strict_arity",
        "is_rigid",
        "has_inner_chain",
        "has_inner_chain_equal_tail",
        "is_shape_spectrum_determined",
        "is_homogeneous",
        "leaves_same_level",
        "labels_same_level",
        "perfect_nary_arity",
        "ball_preserving_structure",
        "membership",
        "audit_equivalences",
        "brute_force_ballean",
        "hamilton_oracle_strictly_binary",
        "shape_spectrum_oracle",
        "perfect_level_graph_oracle",
        "homogeneous_oracle",
    ],
    "graphs": [
        "level_graph",
        "strip_isolated",
        "connected_components",
        "complete_multipartite_parts",
    ],
    "unrooted": [
        "unrooted_from_representing",
        "space_from_unrooted",
        "has_leaf_child_everywhere",
    ],
    "gen": ["enumerate_spaces", "enumerate_rank_trees", "enumerate_shapes"],
    "hereditary": ["hereditary_verify", "hereditary_counterexample_search"],
}

ORACLES = (
    "classify.brute_force_ballean",
    "classify.hamilton_oracle_strictly_binary",
    "classify.shape_spectrum_oracle",
    "classify.perfect_level_graph_oracle",
    "classify.homogeneous_oracle",
)
HEREDITARY = ("hereditary.hereditary_verify", "hereditary.hereditary_counterexample_search")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span: op index, name id, parent span, start, end, self
        self.op = array("l")
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.stack: list[list] = []  # [span index, start, child time]
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.current_op = -1
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str) -> None:
        idx = len(self.start)
        self.op.append(self.current_op)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.active[name] += 1
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        self.self_s.append(0.0)
        self.stack.append([idx, t0, 0.0])

    def exit(self, name: str) -> None:
        t1 = perf_counter()
        idx, t0, child = self.stack.pop()
        self.active[name] -= 1
        self.end[idx] = t1
        self.self_s[idx] = (t1 - t0) - child
        if self.stack:
            self.stack[-1][2] += t1 - t0

    def hook(self, fn, *args) -> None:
        """Run a counting hook as its own span so no layer is charged for it."""
        self.enter(HOOK_SPAN)
        try:
            fn(self, *args)
        except Exception as exc:  # a hook must never change the program's outcome
            self.missing.append(f"hook {fn.__name__}: {type(exc).__name__}: {exc}")
        finally:
            self.exit(HOOK_SPAN)

    def begin_op(self, index: int) -> None:
        self.current_op = index
        self.enter(OP_SPAN)

    def end_op(self) -> None:
        self.exit(OP_SPAN)
        self.current_op = -1

    # ---------------------------------------------------------- summaries

    def totals(self) -> tuple[dict, Counter]:
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for k in range(len(self.start)):
            name = self.names[self.name[k]]
            self_s[name] += self.self_s[k]
            calls[name] += 1
        return self_s, calls

    def op_balance(self) -> float:
        """Largest gap, over ops, between an op's wall time and the sum of
        the self times of its spans (0 up to rounding when nesting holds)."""
        wall: dict[int, float] = {}
        total: dict[int, float] = defaultdict(float)
        op_id = self._ids.get(OP_SPAN)
        for k in range(len(self.start)):
            total[self.op[k]] += self.self_s[k]
            if self.name[k] == op_id:
                wall[self.op[k]] = self.end[k] - self.start[k]
        if not wall or set(total) != set(wall):
            return float("inf")
        return max(abs(total[o] - wall[o]) for o in wall)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("op\tspan\tparent\tname\tstart_s\tend_s\tself_s\n")
            base = self.start[0] if len(self.start) else 0.0
            for k in range(len(self.start)):
                out.write(
                    f"{self.op[k]}\t{k}\t{self.parent[k]}\t{self.names[self.name[k]]}\t"
                    f"{self.start[k] - base:.9f}\t{self.end[k] - base:.9f}\t{self.self_s[k]:.9f}\n"
                )


# ------------------------------------------------------------------ hooks


def _tree_sizes(tracer: Tracer, result) -> None:
    # walks ``children`` itself: calling the tree's own level queries would
    # fill its caches and make the program's later calls cheaper
    tracer.counts["tree.nodes"] += len(result.children)
    height = 0
    stack = [(result.root, 0)]
    while stack:
        v, depth = stack.pop()
        height = max(height, depth)
        stack.extend((c, depth + 1) for c in result.children[v])
    tracer.counts["tree.height_max"] = max(tracer.counts["tree.height_max"], height)


def _code_chars(tracer: Tracer, result) -> None:
    tracer.counts["canonical.code_chars"] += len(result)


def _membership_evals(tracer: Tracer, result) -> None:
    if any(tracer.active[h] for h in HEREDITARY):
        tracer.counts["hereditary.membership_evals"] += 1


def _oracle_call(tracer: Tracer, result) -> None:
    if tracer.active["classify.audit_equivalences"]:
        tracer.counts["classify.oracle_calls"] += 1


def _spaces_built(cached):
    def hook(tracer: Tracer, misses_before, result) -> None:
        if cached.cache_info().misses > misses_before:
            tracer.counts["gen.spaces"] += len(result)

    return hook


# ---------------------------------------------------------------- install


def _wrap(tracer: Tracer, name: str, fn, hook=None, cached=None):
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"{name} is a generator; its work would escape the span")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        misses = cached.cache_info().misses if cached is not None else None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(name)
        if hook is not None:
            if cached is not None:
                tracer.hook(hook, misses, result)
            else:
                tracer.hook(hook, result)
        return result

    return traced


def install(package) -> Tracer:
    """Wrap the functions in SPANS everywhere ``package`` binds them."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
    replace: dict[int, object] = {}  # id of an original -> its wrapper
    for layer, names in SPANS.items():
        mod = sys.modules.get(f"{package.__name__}.{layer}")
        for fname in names:
            metric = f"{layer}.{fname.split('.')[0]}"
            if "." in fname:
                cls_name, meth = fname.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    tracer.missing.append(metric)
                    continue
                setattr(cls, meth, _wrap(tracer, metric, vars(cls)[meth]))
                continue
            fn = getattr(mod, fname, None)
            if fn is None or not callable(fn):
                tracer.missing.append(metric)
                continue
            hook = cached = None
            if metric == "tree.build_representing_tree":
                hook = _tree_sizes
            elif metric == "canonical.canonical_code":
                hook = _code_chars
            elif metric == "classify.membership":
                hook = _membership_evals
            elif metric in ORACLES:
                hook = _oracle_call
            elif metric == "gen.enumerate_spaces" and hasattr(fn, "cache_info"):
                hook, cached = _spaces_built(fn), fn
            replace[id(fn)] = _wrap(tracer, metric, fn, hook, cached)

    formats = sys.modules.get(f"{package.__name__}.formats")
    parse_rational = getattr(formats, "parse_rational", None)
    if parse_rational is not None:

        # counted, not timed: a span per token would double the parse time
        @functools.wraps(parse_rational)
        def counted(*args, **kwargs):
            if tracer.active["formats.parse_space"]:
                tracer.counts["formats.tokens"] += 1
            return parse_rational(*args, **kwargs)

        replace[id(parse_rational)] = counted
    else:
        tracer.missing.append("formats.tokens")

    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return tracer
