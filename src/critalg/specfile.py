"""Line-oriented algebra description files.

Grammar (one directive per line, '#' lines are comments):

    algebra NAME
    vertices TOKEN...
    arrows SRC->TGT...
    zero SRC ~> TGT

Every diagnostic carries a 1-based line:column location and a stable code:
syntax_error, duplicate_vertex, unknown_vertex, self_arrow, duplicate_arrow,
malformed_relation, not_hasse, cycle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import NotAHasseDiagram, SpecError, TriangularityViolation
from .presentation import IncidenceQuotient, from_poset
from .quivers import Quiver, is_bypass


@dataclass
class AlgebraSpecDocument:
    name: str
    vertices: list[str] = field(default_factory=list)
    arrows: list[tuple[str, str]] = field(default_factory=list)
    zeros: list[tuple[str, str]] = field(default_factory=list)
    vertex_locs: dict[str, tuple[int, int]] = field(default_factory=dict)
    arrow_locs: list[tuple[int, int]] = field(default_factory=list)
    zero_locs: list[tuple[int, int]] = field(default_factory=list)

    def build(self) -> IncidenceQuotient:
        """Construct the incidence quotient, relocating algebra-level errors."""
        quiver = Quiver(self.vertices, self.arrows)
        try:
            reach = quiver._reach_rows
        except TriangularityViolation as e:
            line, col = self.arrow_locs[0] if self.arrow_locs else (1, 1)
            raise SpecError("cycle", str(e), line, col) from e
        for k, (s, t) in enumerate(self.zeros):
            si, ti = quiver.index[s], quiver.index[t]
            if si == ti:
                message = f"zero pair with equal endpoints: {s} ~> {t}"
            elif not reach[si] >> ti & 1 or (si, ti) in quiver.arrows:
                message = f"no path of length >= 2 realizes the zero pair {s} ~> {t}"
            else:
                continue
            raise SpecError("malformed_relation", message, *self.zero_locs[k])
        try:
            return from_poset(quiver, self.zeros, label=self.name)
        except NotAHasseDiagram as e:
            # the first bypass in declaration order
            k = next(k for k, (s, t) in enumerate(self.arrows)
                     if is_bypass(quiver, quiver.index[s], quiver.index[t]))
            raise SpecError("not_hasse", str(e), *self.arrow_locs[k]) from e


def _tokenize(line: str) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of ``line`` with their 1-based columns."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_spec(text: str) -> AlgebraSpecDocument:
    if not isinstance(text, str):
        text = text.decode("utf-8", errors="replace")
    doc: AlgebraSpecDocument | None = None
    seen_arrows: set[tuple[str, str]] = set()
    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        toks = _tokenize(raw)
        if not toks or toks[0][0].startswith("#"):
            continue
        head, hcol = toks[0]
        if doc is None:
            if head != "algebra":
                raise SpecError("syntax_error", "expected the 'algebra NAME' header", lineno, hcol)
            if len(toks) != 2:
                bad = toks[2] if len(toks) > 2 else (head, hcol)
                raise SpecError("syntax_error", "header is 'algebra NAME'", lineno, bad[1])
            doc = AlgebraSpecDocument(name=toks[1][0])
            continue
        if head == "vertices":
            if len(toks) < 2:
                raise SpecError("syntax_error", "vertices line needs at least one token", lineno, hcol)
            for tok, col in toks[1:]:
                if "->" in tok or "~>" in tok:
                    raise SpecError("syntax_error", f"vertex token {tok!r} may not contain an arrow", lineno, col)
                if tok in doc.vertex_locs:
                    raise SpecError("duplicate_vertex", f"vertex {tok!r} declared twice", lineno, col)
                doc.vertices.append(tok)
                doc.vertex_locs[tok] = (lineno, col)
        elif head == "arrows":
            if len(toks) < 2:
                raise SpecError("syntax_error", "arrows line needs at least one SRC->TGT item", lineno, hcol)
            for tok, col in toks[1:]:
                if tok.count("->") != 1:
                    raise SpecError("syntax_error", f"arrow item {tok!r} is not SRC->TGT", lineno, col)
                s, t = tok.split("->")
                if not s or not t:
                    raise SpecError("syntax_error", f"arrow item {tok!r} is not SRC->TGT", lineno, col)
                doc.arrows.append((s, t))
                doc.arrow_locs.append((lineno, col))
        elif head == "zero":
            if len(toks) != 4 or toks[2][0] != "~>":
                raise SpecError("syntax_error", "zero line is 'zero SRC ~> TGT'", lineno, hcol)
            doc.zeros.append((toks[1][0], toks[3][0]))
            doc.zero_locs.append((lineno, toks[1][1]))
        elif head == "algebra":
            raise SpecError("syntax_error", "duplicate 'algebra' header", lineno, hcol)
        else:
            raise SpecError("syntax_error", f"unknown directive {head!r}", lineno, hcol)
    if doc is None:
        raise SpecError("syntax_error", "empty input: expected 'algebra NAME'", 1, 1)
    known = set(doc.vertices)
    for k, (s, t) in enumerate(doc.arrows):
        line, col = doc.arrow_locs[k]
        for v in (s, t):
            if v not in known:
                raise SpecError("unknown_vertex", f"arrow mentions undeclared vertex {v!r}", line, col)
        if s == t:
            raise SpecError("self_arrow", f"arrow {s}->{t} is a loop", line, col)
        if (s, t) in seen_arrows:
            raise SpecError("duplicate_arrow", f"arrow {s}->{t} declared twice", line, col)
        seen_arrows.add((s, t))
    for k, (s, t) in enumerate(doc.zeros):
        line, col = doc.zero_locs[k]
        for v in (s, t):
            if v not in known:
                raise SpecError("unknown_vertex", f"zero pair mentions undeclared vertex {v!r}", line, col)
    return doc


def load_algebra(text: str) -> IncidenceQuotient:
    return parse_spec(text).build()


def render_spec(algebra: IncidenceQuotient) -> str:
    """Deterministic document for an incidence quotient (inverse of parsing)."""
    lines = [f"algebra {algebra.label or 'unnamed'}"]
    lines.append("vertices " + " ".join(algebra.names))
    arrows = algebra.hasse.arrow_names()
    if arrows:
        lines.append("arrows " + " ".join(f"{s}->{t}" for s, t in arrows))
    for s, t in algebra.declared_zeros:
        lines.append(f"zero {algebra.names[s]} ~> {algebra.names[t]}")
    return "\n".join(lines) + "\n"
