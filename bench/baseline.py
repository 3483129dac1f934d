"""Spot check of the ROADMAP item 1 baselines with the benchmark's layer timers.

    python3 bench/baseline.py

Times, through the same wrappers a traced run uses: ``validate_space`` at
n = 100 and n = 200, ``build_representing_tree`` and ``classify`` at
n = 500, and ``audit_equivalences`` over every space with 2..7 points.
Each figure is the total wall time of the outermost span of that name.
"""

from __future__ import annotations

import platform
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    import ultraforest
    import ultraforest.cli  # noqa: F401  (imports every layer)
    from tracer import install

    gen = sys.modules["ultraforest.gen"]
    spaces = {n: gen.random_space(n, 1) for n in (100, 200, 500)}
    small = [s for n in range(2, 8) for s in gen.enumerate_spaces(n)]
    tracer = install(ultraforest)
    core = sys.modules["ultraforest.core"]
    tree = sys.modules["ultraforest.tree"]
    classify = sys.modules["ultraforest.classify"]

    def timed(label, fn):
        tracer.begin_op(len(rows))
        fn()
        tracer.end_op()
        rows.append(label)

    rows: list[str] = []
    for n in (100, 200):
        s = spaces[n]
        timed(f"validate_space n={n}", lambda s=s: core.validate_space([list(r) for r in s.dist], s.points))
    timed("build_representing_tree n=500", lambda: tree.build_representing_tree(spaces[500]))
    timed("classify n=500", lambda: classify.classify(spaces[500]))
    timed(f"audit_equivalences over {len(small)} spaces (2..7 points)", lambda: [classify.audit_equivalences(s) for s in small])

    walls = defaultdict(float)
    for k in range(len(tracer.start)):
        if tracer.parent[k] >= 0 and tracer.names[tracer.name[tracer.parent[k]]] == "bench.op":
            walls[tracer.op[k]] += tracer.end[k] - tracer.start[k]
    print(f"python {platform.python_version()}, {platform.machine()}")
    for i, label in enumerate(rows):
        print(f"{label}: {walls[i]:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
