"""Run every combinatorial criterion against the homology engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CritalgError, TimeBudgetExceeded
from .criteria import (
    audit_resolution_structure,
    find_all_critical_subcategories,
    find_critical_subcategory_guided,
    pd_spectrum_check,
    second_term_engine,
    second_term_from_relations,
    third_syzygy_test_auto,
)
from .homology import ext_dim, gl_dim, idim_of_simple, pd_of_simple
from .presentation import SchurianAlgebra, opposite_algebra


@dataclass
class CheckResult:
    name: str
    ok: bool
    details: list[str] = field(default_factory=list)


@dataclass
class ComparisonReport:
    algebra: str
    certified: bool
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"algebra {self.algebra}"]
        out.append("status: " + ("certified" if self.certified else "UNCERTIFIED"))
        for c in self.checks:
            out.append(f"[{'agree' if c.ok else 'DISAGREE'}] {c.name}")
            for d in c.details:
                out.append(f"    {d}")
        if not self.certified:
            out.append("note: hypotheses uncertified; disagreements are informational")
        return out


def _guarded(check: CheckResult, body) -> CheckResult:
    """A corrupted presentation may make the engine reject its own input;
    that is a disagreement worth reporting, not a crash."""
    try:
        body(check)
    except TimeBudgetExceeded:
        raise
    except CritalgError as e:
        check.ok = False
        check.details.append(f"engine rejected the computation: {e}")
    return check


def oracle_compare(algebra: SchurianAlgebra, *, budget_seconds: float | None = None) -> ComparisonReport:
    """Every check of the combinatorial criteria against the engine; each of
    the two critical searches stops past ``budget_seconds``."""
    checks = []

    def second_body(c):
        for x in algebra.names:
            want = second_term_engine(algebra, x)
            got = second_term_from_relations(algebra, x)
            if want != got:
                c.ok = False
                c.details.append(f"source {x}: relations predict {got}, engine has {want}")

    checks.append(_guarded(CheckResult("second resolution term from minimal relations", True), second_body))

    def third_body(c):
        unmet = 0
        for i in algebra.names:
            if pd_of_simple(algebra, i) < 2:
                continue
            for j in algebra.names:
                predicted, side = third_syzygy_test_auto(algebra, i, j)
                actual = ext_dim(algebra, i, j, 3) >= 1
                if side == "primal-unmet":
                    unmet += 1
                if predicted != actual:
                    c.ok = False
                    c.details.append(
                        f"pair ({i},{j}) [{side}]: predicted {predicted}, engine {actual}"
                    )
        if unmet:
            c.details.append(f"{unmet} pairs had s < r on both sides (primal answer used)")

    checks.append(_guarded(CheckResult("third-term summand test vs engine multiplicities", True), third_body))

    def spectrum_body(c):
        c.ok = pd_spectrum_check(algebra)

    checks.append(_guarded(CheckResult("projective-dimension spectrum is an interval", True), spectrum_body))

    def audit_body(c):
        for x in algebra.names:
            a = audit_resolution_structure(algebra, x)
            if not a.passed:
                c.ok = False
                c.details.append(f"source {x}: {a}")

    checks.append(_guarded(CheckResult("resolution structure audits", True), audit_body))

    def dual_body(c):
        op = opposite_algebra(algebra)
        for x in algebra.names:
            if pd_of_simple(algebra, x) != idim_of_simple(op, x):
                c.ok = False
                c.details.append(f"simple {x}: pd differs from the double-opposite reading")

    checks.append(_guarded(CheckResult("pd against the opposite algebra's coresolutions", True), dual_body))

    def soundness_body(c):
        reports = find_all_critical_subcategories(algebra, budget_seconds=budget_seconds)
        g = gl_dim(algebra)
        if not reports and g > 2:
            c.ok = False
            c.details.append(f"no critical subcategory but gl.dim = {g}")
        if reports and g <= 2:
            c.details.append(
                "informational: critical subcategory present with gl.dim <= 2 (the converse fails)"
            )
        guided = find_critical_subcategory_guided(algebra, budget_seconds=budget_seconds)
        exhaustive_subsets = {r.subset for r in reports}
        for r in guided:
            if r.subset not in exhaustive_subsets:
                c.ok = False
                c.details.append(f"guided-only critical subset {r.subset}")

    checks.append(_guarded(CheckResult("criterion soundness (absence means gl.dim <= 2)", True), soundness_body))

    certified = bool(algebra.validity)
    return ComparisonReport(algebra.label or "unnamed", certified, checks)
