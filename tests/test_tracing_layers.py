"""Every (module, function) that perfbench/tracing.py wraps by name exists.

The tracer replaces each function in its LAYERS table with a timing
wrapper, looked up with getattr; a name the package no longer defines
breaks every traced benchmark run.  This test reads the table from the
perfbench directory of the same checkout and changes nothing there.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def traced_names():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.LAYERS)


@pytest.mark.parametrize("module, function", traced_names(),
                         ids=lambda name: name)
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(module), function, None))
