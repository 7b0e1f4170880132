"""The names the benchmark's tracer wraps exist, and the program calls
them through the wrapped bindings.

`perfbench/tracing.py` replaces module attributes of cubetest; a source
change that drops or renames one of them breaks the traced benchmark
run.  These tests load the tracer read-only and catch that in the fast
suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cubetest import bench, valuations
from cubetest.tables import FunctionTable

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_replaces_every_target_and_uninstall_restores(tracing):
    patches = tracing.Patches(tracing.Tracer())
    originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches.targets]
    checkers = dict(valuations.CHECKERS)
    patches.install()
    try:
        for (obj, attr, replacement), (_, _, original) in zip(patches.targets, originals):
            assert getattr(obj, attr) is replacement, attr
            assert replacement is not original, attr
        for tag, fn in valuations.CHECKERS.items():
            assert fn is not checkers[tag], tag
    finally:
        patches.uninstall()
    for obj, attr, original in originals:
        assert getattr(obj, attr) is original, attr
    assert valuations.CHECKERS == checkers


def test_certify_spans_are_recorded(tracing):
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    f = FunctionTable(6, np.random.default_rng(0).uniform(0.0, 1.0, 1 << 6))
    patches.install()
    try:
        bench.certify(f, "submodular", 2, 0.25)
    finally:
        patches.uninstall()
    assert tracer.calls_of(tracing.CERTIFY) == 1
    # the best set's lines, then the all-sets bound's own transform
    for name in (tracing.CLOSEST_JUNTA, tracing.JUNTA_PROJECTION, tracing.DIST_TO_SET, tracing.WHT):
        assert tracer.calls_of(name, tracing.CERTIFY) == 1, name
