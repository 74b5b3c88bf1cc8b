"""``src/critalg`` holds what runs.

Every function, method and class defined in the package (outside
``__init__``, whose re-exports do not count) must be named somewhere else in
the package, be wrapped by a benchmark span in ``perfbench/spans.py``, or
be allowed below with its reason.  A method or property counts as named
only where code reads it as an attribute, so that a local variable of the
same name does not keep it.  A definition that nothing names is
library-only API: move it to the tests that use it, or delete it.
"""

import ast
from collections import Counter
from pathlib import Path

from test_tracing import _spans

SRC = Path(__file__).resolve().parent.parent / "src" / "critalg"

ALLOWED = {
    "convex_crown_witness": "certifies that the strong hypothesis fails; the property tests read it, and "
                            "explaining unclassified critical hits needs it on a CLI path",
    "sources": "SchurianAlgebra's view of its skeleton's sources, beside the scan's lone ends",
    "sinks": "SchurianAlgebra's view of its skeleton's sinks, beside the scan's lone ends",
    "contains_subpath": "a Path query that the contour-enumerating gate in the tests uses on the contours "
                        "that the benchmark's spans wrap",
    "is_interlaced": "the contour predicate that is_irreducible decides, kept beside it",
    "parse_report": "the inverse of render_report's JSON form",
    "hom": "SchurianAlgebra's hom query by vertex name; the package reads hom_bit, its index form",
    "error": "argparse calls this override of ArgumentParser.error, which makes a usage error exit 1",
}


def _names(tree, attributes_only=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unnamed_definitions():
    """(module, name) of every non-dunder definition that no code outside
    its own body names; a method or property, that none reads as an
    attribute."""
    defs, named, read = [], Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(_names(tree))
        read.update(_names(tree, attributes_only=True))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    attr = id(node) in methods
                    defs.append((path.stem, node.name, attr, Counter(_names(node, attr))[node.name]))
    return {(mod, name) for mod, name, attr, own in defs if (read if attr else named)[name] == own}


def test_every_definition_in_src_is_named_elsewhere():
    unnamed = _unnamed_definitions()
    traced = {part for _, _, attr in _spans().TRACED for part in attr.split(".")}
    stray = sorted((mod, name) for mod, name in unnamed if name not in traced and name not in ALLOWED)
    assert not stray, f"library-only definitions in src/critalg: {stray}"
    # an entry whose definition went, or that code now names, is stale
    assert set(ALLOWED) == {name for _, name in unnamed if name not in traced}
