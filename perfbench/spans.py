"""Spans around calls into critalg's modules, recorded from outside the program.

A ``Tracer`` replaces each traced function at every ``critalg`` module
attribute bound to it (and each traced method on its class) with a wrapper
that records a span: name, start, end and the span it was called from.
Spans are kept in flat arrays while the run lasts and written out when it
ends; per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (metric prefix, defining module, attribute).  A dotted attribute is a method.
TRACED = [
    ("cli.main", "critalg.cli", "main"),
    ("specfile.parse_spec", "critalg.specfile", "parse_spec"),
    ("presentation.from_poset", "critalg.presentation", "from_poset"),
    ("presentation.restrict_mask", "critalg.presentation", "SchurianAlgebra.restrict_mask"),
    ("presentation.second_syzygy_multiplicity", "critalg.presentation", "second_syzygy_multiplicity"),
    ("presentation.opposite_algebra", "critalg.presentation", "opposite_algebra"),
    ("quivers.topological_order", "critalg.quivers", "Quiver.topological_order"),
    ("quivers.irreducible_contours", "critalg.quivers", "irreducible_contours"),
    ("quivers.all_paths", "critalg.quivers", "all_paths"),
    ("homology.resolution_of_simple", "critalg.homology", "resolution_of_simple"),
    ("homology.minimal_projective_resolution", "critalg.homology", "minimal_projective_resolution"),
    ("homology.projective_cover", "critalg.homology", "projective_cover"),
    ("linalg.rref", "critalg.linalg", "rref"),
    ("linalg.nullspace", "critalg.linalg", "nullspace"),
    ("linalg.solve_in_rowspace", "critalg.linalg", "solve_in_rowspace"),
    ("criteria.find_all_critical_subcategories", "critalg.criteria", "find_all_critical_subcategories"),
    ("criteria.find_critical_subcategory_guided", "critalg.criteria", "find_critical_subcategory_guided"),
    ("criteria.check_critical", "critalg.criteria", "check_critical"),
    ("criteria.third_syzygy_test_auto", "critalg.criteria", "third_syzygy_test_auto"),
    ("criteria.classify_critical", "critalg.criteria", "classify_critical"),
    ("criteria.igusa_zacharia", "critalg.criteria", "igusa_zacharia"),
    ("iso.are_isomorphic", "critalg.iso", "are_isomorphic"),
    ("iso.canonical_form", "critalg.iso", "canonical_form"),
    ("report.build_report", "critalg.report", "build_report"),
    ("report.render_report", "critalg.report", "render_report"),
    ("compare.oracle_compare", "critalg.compare", "oracle_compare"),
    ("randgen.random_algebra", "critalg.randgen", "random_algebra"),
]

# all_paths recurses through its own module global: wrapping it there would
# add a frame per level and could change which inputs hit RecursionError.
ONLY_BINDING = {"quivers.all_paths": "critalg.presentation"}

SCANS = ("criteria.find_all_critical_subcategories", "criteria.find_critical_subcategory_guided")

# Per-layer metrics derived from one traced run, with their units.
LAYER_METRICS = {f"{name}.{metric}": unit for name, _, _ in TRACED
                 for metric, unit in (("calls", "count"), ("self_s", "s"))}
LAYER_METRICS.update({
    "criteria.critical_found": "count",
    "criteria.scan_restrict_mask_calls": "count",
    "criteria.hit_ratio": "ratio",
    "homology.resolution_cache_hit_ratio": "ratio",
    "randgen.attempts": "count",
    "randgen.accept_ratio": "ratio",
})

# Layers that every workload calls, so their self time is never 0.
EVERYWHERE = ("cli.main", "specfile.parse_spec", "presentation.from_poset", "quivers.topological_order",
              "quivers.irreducible_contours", "quivers.all_paths")

# The per-layer metrics on the result line, as listed in BENCHMARK.json: every
# count and ratio, and the self times of the layers in EVERYWHERE.  The other
# self times read exactly 0 on the workloads that bypass their layer, so they
# are printed above the result line and kept in the span file instead.
REPORTED = [m for m in LAYER_METRICS if not m.endswith(".self_s") or m[: -len(".self_s")] in EVERYWHERE]


def _critical_found(result, counts):
    counts["criteria.critical_found"] += len(result)


def _accepted(result, counts):
    counts["randgen.accepted"] += bool(result.validity and result.validity.certified)


RESULT_HOOKS = {
    "criteria.find_all_critical_subcategories": _critical_found,
    "criteria.find_critical_subcategory_guided": _critical_found,
    "randgen.random_algebra": _accepted,
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TRACED]
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.top = -1
        self.counts = Counter()
        self._originals = []  # (owner, attribute, original)

    # -- installing the wrappers -------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k == "critalg" or k.startswith("critalg.")]
        for key, (name, modname, attr) in enumerate(TRACED):
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[modname], cls_name)
                self._replace(owner, meth, self._wrap(key, name, vars(owner)[meth]))
                continue
            fn = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(key, name, fn)
            for mod in modules:
                if name in ONLY_BINDING and mod.__name__ != ONLY_BINDING[name]:
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, binding, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _replace(self, owner, attr, wrapper):
        self._originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, key, name, fn):
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        hook = RESULT_HOOKS.get(name)
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_start)
            up = tracer.top
            span_name.append(key)
            span_parent.append(up)
            span_end.append(0.0)
            tracer.top = idx
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                tracer.top = up
            if hook is not None:
                hook(result, counts)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- deriving the metrics ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.span_start)
        names, parent = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        key_of = {name: k for k, name in enumerate(self.names)}
        scans = {key_of[s] for s in SCANS}
        in_scan = bytearray(n)
        mpr, ros = key_of["homology.minimal_projective_resolution"], key_of["homology.resolution_of_simple"]
        restrict, from_poset = key_of["presentation.restrict_mask"], key_of["presentation.from_poset"]
        randalg = key_of["randgen.random_algebra"]
        missed = bytearray(n)  # resolution_of_simple spans that resolved afresh
        scan_restricts = attempts = 0
        for i in range(n):
            p = parent[i]
            k = names[i]
            if p >= 0:
                child[p] += dur[i]
                in_scan[i] = in_scan[p]
                if k == mpr and names[p] == ros:
                    missed[p] = 1
                if k == from_poset and names[p] == randalg:
                    attempts += 1
            if k in scans:
                in_scan[i] = 1
            elif k == restrict and in_scan[i]:
                scan_restricts += 1
        calls = Counter(names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            self_s[names[i]] += dur[i] - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = calls[k]
            out[name + ".self_s"] = self_s[k]
        found = self.counts["criteria.critical_found"]
        ros_calls = calls[ros]
        ros_missed = sum(missed)
        out["criteria.critical_found"] = found
        out["criteria.scan_restrict_mask_calls"] = scan_restricts
        out["criteria.hit_ratio"] = found / scan_restricts if scan_restricts else 0.0
        hits = ros_calls - ros_missed
        out["homology.resolution_cache_hit_ratio"] = hits / ros_calls if ros_calls else 0.0
        out["randgen.attempts"] = attempts
        out["randgen.accept_ratio"] = self.counts["randgen.accepted"] / attempts if attempts else 0.0
        return out

    def write(self, path):
        """All spans, one per line: name, start and end in seconds, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            spans = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            for i, (k, s, e, p) in enumerate(spans):
                fh.write(f"{i}\t{self.names[k]}\t{s:.9f}\t{e:.9f}\t{p}\n")

    def __len__(self):
        return len(self.span_start)
