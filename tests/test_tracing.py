"""The benchmark's tracer against the package: every function that
``perfbench/spans.py`` wraps must exist under the name it gives, and the
homology spans must count what the benchmark's derived metrics read."""

import importlib
import importlib.util
from pathlib import Path

from critalg import homology
from critalg.presentation import SchurianAlgebra

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = _spans()
    for name, modname, attr in spans.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (name, modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), name
    for modname in spans.ONLY_BINDING.values():
        importlib.import_module(modname)


def test_traced_resolutions_count_misses_hits_and_cover_steps(diamond6):
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        A = SchurianAlgebra(diamond6.names, diamond6.hom_rows)
        for _ in range(2):
            lengths = [homology.resolution_of_simple(A, x).length for x in A.names]
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["homology.resolution_of_simple.calls"] == 2 * A.n
    assert m["homology.minimal_projective_resolution.calls"] == A.n
    assert m["homology.resolution_cache_hit_ratio"] == 0.5
    # one cover per step of the loop, that is, per term after the first
    assert m["homology.projective_cover.calls"] == sum(lengths) > 0
