"""Every entry point the layered benchmark patches still exists.

``perfbench/run.py --trace 1`` wraps the callables listed in
``perfbench/layers.py`` ``ENTRY_POINTS`` by name.  Resolving each one here,
exactly as ``layers.patched()`` does (``owner.__dict__[attribute]``), makes
a rename under ``src/`` fail the tier-1 suite instead of the traced
benchmark run.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import layers  # noqa: E402


@pytest.mark.parametrize(
    "module_name, class_name, attribute, span_name", layers.ENTRY_POINTS,
    ids=[f"{module}:{owner or ''}.{attribute}"
         for module, owner, attribute, _ in layers.ENTRY_POINTS])
def test_entry_point_resolves_as_patched(module_name, class_name, attribute,
                                         span_name):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    # A class attribute must be defined on the class itself: patching an
    # inherited one would shadow it on the wrong owner.
    assert callable(owner.__dict__[attribute]), span_name
