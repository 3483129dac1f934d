"""Every function the benchmark traces exists in the library.

``bench/tracer.py`` wraps the functions named in its ``SPANS`` table and
only warns about a name it cannot find, so a renamed function would drop
its metric without failing a test.  The table is read by executing the
tracer's source, which imports only the standard library; nothing is
installed and nothing under ``bench/`` is written.
"""

import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _span_targets() -> list[tuple[str, str]]:
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return [(layer, name) for layer, names in namespace["SPANS"].items() for name in names]


def _target(layer: str, name: str):
    """What the tracer would wrap: a module function, or ``Class.method``
    as defined on the class itself; None when there is none."""
    owner, _, attr = name.rpartition(".")
    module = importlib.import_module(f"ultraforest.{layer}")
    holder = getattr(module, owner, None) if owner else module
    return None if holder is None else vars(holder).get(attr)


def test_missing_targets_are_found():
    assert _target("tree", "RootedTree.gone") is None
    assert _target("tree", "Gone.__init__") is None
    assert _target("hereditary", "gone") is None


@pytest.mark.parametrize("layer, name", _span_targets(), ids=lambda part: part)
def test_span_target_is_a_plain_function(layer, name):
    fn = _target(layer, name)
    assert callable(fn), f"ultraforest.{layer}.{name} is not traced"
    assert not inspect.isgeneratorfunction(fn), f"ultraforest.{layer}.{name} is a generator"


@pytest.mark.parametrize("name", ["enumerate_spaces", "enumerate_rank_trees", "enumerate_shapes"])
def test_enumeration_caches_can_be_cleared(name):
    """``bench/workloads.py`` clears these caches before every sweep op, so
    each op enumerates from cold; without them its setup fails."""
    fn = getattr(importlib.import_module("ultraforest.gen"), name)
    assert callable(fn.cache_clear) and callable(fn.cache_info)
