"""Report documents and their text/JSON renderings.

The JSON schema is pinned: top-level fields ``version``, ``algebra``,
``certified``, ``gldim``, ``simples``, ``criterion``, ``timings_ms`` in that
order; any field change requires a version bump (golden-file tested).
Text output is deterministic and mirrors resolutions as
``0 -> P4 -> P3 -> P2 -> P1 -> S1 -> 0`` style lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .criteria import CriticalReport, CriticalTemplate, gldim2_criterion
from .homology import idim_of_simple, minimal_injective_coresolution, pd_of_simple, resolution_of_simple
from .presentation import SchurianAlgebra

SCHEMA_VERSION = "1"


@dataclass
class ReportDocument:
    algebra: str
    certified: bool
    gldim: int
    simples: list[dict]
    criterion: dict
    timings_ms: int = 0
    version: str = SCHEMA_VERSION
    # display-only, excluded from the JSON schema and from equality
    uncertified_reasons: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "algebra": self.algebra,
            "certified": self.certified,
            "gldim": self.gldim,
            "simples": self.simples,
            "criterion": self.criterion,
            "timings_ms": self.timings_ms,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReportDocument":
        return cls(
            algebra=d["algebra"],
            certified=d["certified"],
            gldim=d["gldim"],
            simples=d["simples"],
            criterion=d["criterion"],
            timings_ms=d["timings_ms"],
            version=d["version"],
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ReportDocument) and self.to_json_dict() == other.to_json_dict()


def resolution_line(algebra: SchurianAlgebra, x: str) -> str:
    res = resolution_of_simple(algebra, x)
    parts = ["0"]
    for k in range(res.length, -1, -1):
        parts.append(_term_text(res.term_names(k), "P"))
    parts.append(f"S{x}")
    parts.append("0")
    return " → ".join(parts)


def coresolution_line(algebra: SchurianAlgebra, x: str) -> str:
    res = minimal_injective_coresolution(algebra, x)
    parts = ["0", f"S{x}"]
    for k in range(len(res.terms)):
        parts.append(_term_text(res.term_names(k), "I"))
    parts.append("0")
    return " → ".join(parts)


def _term_text(names: tuple[str, ...], prefix: str) -> str:
    if not names:
        return "0"
    counts: dict[str, int] = {}
    for n in names:
        counts[n] = counts.get(n, 0) + 1
    bits = []
    for n in sorted(counts, key=names.index):
        bits.append(f"{prefix}{n}" + (f"^{counts[n]}" if counts[n] > 1 else ""))
    return "⊕".join(bits)


def critical_line(subset: Sequence[str], template: CriticalTemplate | None) -> str:
    """The text line of one critical subcategory."""
    return f"critical subcategory: {{{','.join(subset)}}} ≅ {template.display if template else 'unclassified'}"


def json_bytes(data, ensure_ascii: bool = True) -> bytes:
    """The pinned JSON form of an output document: two-space indent, one
    trailing newline, UTF-8."""
    return (json.dumps(data, indent=2, ensure_ascii=ensure_ascii) + "\n").encode("utf-8")


def critical_json(r: CriticalReport) -> dict:
    """The pinned JSON record of one critical subcategory."""
    return {
        "subset": list(r.subset),
        "template": r.template.kind if r.template else None,
        "params": r.template.param if r.template else None,
        "opposite": r.template.opposite if r.template else False,
    }


def build_report(
    algebra: SchurianAlgebra,
    with_criterion: bool = True,
    budget_seconds: float | None = None,
) -> ReportDocument:
    certified = bool(algebra.validity)
    simples = [
        {"vertex": x, "pd": pd_of_simple(algebra, x), "id": idim_of_simple(algebra, x)}
        for x in algebra.names
    ]
    gldim = max((s["pd"] for s in simples), default=0)
    if with_criterion:
        verdict = gldim2_criterion(algebra, budget_seconds=budget_seconds)
        criterion = {"verdict": verdict.verdict, "critical": [critical_json(r) for r in verdict.critical]}
    else:
        criterion = {"verdict": "skipped_size_cap", "critical": []}
    reasons = ()
    if algebra.validity is not None and not algebra.validity.certified:
        reasons = algebra.validity.reasons
    return ReportDocument(
        algebra=algebra.label or "unnamed",
        certified=certified,
        gldim=gldim,
        simples=simples,
        criterion=criterion,
        uncertified_reasons=reasons,
    )


def render_report(report: ReportDocument, fmt: str = "text") -> bytes:
    if fmt == "json":
        return json_bytes(report.to_json_dict(), ensure_ascii=False)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    suffix = "" if report.certified else " (uncertified hypotheses)"
    lines = [f"algebra {report.algebra}"]
    if report.certified:
        lines.append("status: certified")
    else:
        lines.append("status: UNCERTIFIED")
        for r in report.uncertified_reasons:
            lines.append(f"  reason: {r}")
    lines.append(f"gl.dim = {report.gldim}")
    lines.append("simples:")
    lines.append("  vertex  pd  id")
    for s in report.simples:
        lines.append(f"  {s['vertex']:<6}  {s['pd']:>2}  {s['id']:>2}")
    crit = report.criterion
    if crit["verdict"] == "skipped_size_cap":
        lines.append("criterion: skipped (vertex count above the subset-scan cap)")
    elif crit["verdict"] == "certified_gldim_le_2":
        lines.append(f"criterion: no critical subcategory; gl.dim ≤ 2 certified{suffix}")
    else:
        lines.append(
            f"criterion: critical subcategories found (one-directional; does not decide gl.dim){suffix}"
        )
        for c in crit["critical"]:
            tpl = CriticalTemplate(c["template"], c["params"], c["opposite"]) if c["template"] else None
            lines.append("  " + critical_line(c["subset"], tpl))
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_report(data: bytes) -> ReportDocument:
    return ReportDocument.from_json_dict(json.loads(data.decode("utf-8")))
