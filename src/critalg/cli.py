"""Command-line workbench.

Exit codes: 0 success, 1 usage or parse error, 2 validation error,
3 oracle disagreement, 4 internal error.  All output is byte-identical
across runs for fixed inputs and seeds (pass --timings to embed wall-clock
times, which breaks that).
"""

from __future__ import annotations

import argparse
import sys
import time

from .compare import oracle_compare
from .criteria import (
    critical_template,
    find_all_critical_subcategories,
    find_critical_subcategory_guided,
    igusa_zacharia,
    template_catalogue,
)
from .errors import CritalgError, InternalError, InvalidTemplate, SpecError
from .presentation import as_incidence_quotient
from .randgen import RandomModel, random_algebra
from .report import (
    build_report,
    coresolution_line,
    critical_json,
    critical_line,
    json_bytes,
    render_report,
    resolution_line,
)
from .specfile import load_algebra, render_spec

USAGE_ERROR, VALIDATION_ERROR, DISAGREEMENT, INTERNAL = 1, 2, 3, 4

# the commands that scan vertex subsets, which the size cap stops
_SCAN_COMMANDS = ("criterion", "critical", "iz", "compare")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _global_flags(parser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true", help="machine-readable output",
                        **({"default": d} if suppress else {}))
    parser.add_argument("--max-subset-size", type=int, metavar="K",
                        help="largest vertex count for subset scans without --force",
                        **({"default": d} if suppress else {"default": 14}))
    parser.add_argument("--force", action="store_true",
                        help="run subset scans past the size cap",
                        **({"default": d} if suppress else {}))
    parser.add_argument("--timings", action="store_true",
                        help="embed wall-clock timings (breaks byte-determinism)",
                        **({"default": d} if suppress else {}))
    parser.add_argument("--budget-seconds", type=float, metavar="S",
                        help="abort subset scans past this wall-clock budget",
                        **({"default": d} if suppress else {"default": None}))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="critalg", description="Homological workbench for schurian incidence quotients")
    _global_flags(p, suppress=False)
    common = _Parser(add_help=False)
    _global_flags(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, hlp in [
        ("validate", "parse a description file and print its certification status"),
        ("gldim", "global dimension and the per-simple dimension table"),
        ("criterion", "critical-subcategory certificate for gl.dim <= 2"),
        ("iz", "the incidence-algebra test (no zero relations allowed)"),
        ("compare", "run every combinatorial criterion against the engine"),
    ]:
        q = sub.add_parser(name, help=hlp, parents=[common])
        q.add_argument("file", help="algebra description file")

    q = sub.add_parser("resolve", help="minimal projective resolution of a simple", parents=[common])
    q.add_argument("file")
    q.add_argument("--simple", required=True, metavar="V", help="vertex of the simple")
    q.add_argument("--coresolution", action="store_true", help="injective coresolution instead")

    q = sub.add_parser("critical", help="critical full subcategories", parents=[common])
    q.add_argument("file")
    q.add_argument("--strategy", choices=["exhaustive", "guided"], default="exhaustive")

    q = sub.add_parser("templates", help="the critical-algebra catalogue", parents=[common])
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--list", action="store_true")
    g.add_argument("--emit", nargs=2, metavar=("KIND", "PARAM"))
    q.add_argument("--opposite", action="store_true")

    q = sub.add_parser("random", help="emit a seeded random certified instance", parents=[common])
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--density", type=float, default=0.4)
    q.add_argument("--zero-rate", type=float, default=0.25)
    return p


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"critalg: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return load_algebra(text)


def _emit(data: bytes):
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # one parser per process: building it costs far more than a parse
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return _dispatch(args)
    except SpecError as e:
        print(f"critalg: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (InternalError, RecursionError) as e:
        print(f"critalg: internal error: {e}", file=sys.stderr)
        return INTERNAL
    except CritalgError as e:
        print(f"critalg: {e}", file=sys.stderr)
        return VALIDATION_ERROR


def _dispatch(args) -> int:
    t0 = time.monotonic()

    def ms() -> int:
        return int((time.monotonic() - t0) * 1000) if args.timings else 0

    if hasattr(args, "file"):
        algebra = _load(args.file)
        small = algebra.n <= args.max_subset_size or args.force
        if not small and args.command in _SCAN_COMMANDS:
            print(
                f"critalg: {algebra.n} vertices exceeds the subset-scan cap "
                f"{args.max_subset_size}; rerun with --force",
                file=sys.stderr,
            )
            return VALIDATION_ERROR

    if args.command == "validate":
        if args.json:
            _emit(json_bytes({
                "algebra": algebra.label,
                "vertices": list(algebra.names),
                "arrows": [f"{s}->{t}" for s, t in algebra.hasse.arrow_names()],
                "zero_pairs": [[algebra.names[s], algebra.names[t]] for s, t in algebra.declared_zeros],
                "certified": algebra.validity.certified,
                "reasons": list(algebra.validity.reasons),
            }))
        else:
            lines = [f"algebra {algebra.label}"]
            lines.append("status: certified" if algebra.validity.certified else "status: UNCERTIFIED")
            for r in algebra.validity.reasons:
                lines.append(f"  reason: {r}")
            lines.append(f"vertices: {len(algebra.names)}  arrows: {len(algebra.hasse.arrows)}  zero pairs: {len(algebra.declared_zeros)}")
            _emit(("\n".join(lines) + "\n").encode())
        return 0

    if args.command in ("gldim", "criterion"):
        report = build_report(algebra, with_criterion=small, budget_seconds=args.budget_seconds)
        report.timings_ms = ms()
        _emit(render_report(report, "json" if args.json else "text"))
        return 0

    if args.command == "resolve":
        if args.simple not in algebra.index:
            print(f"critalg: no vertex {args.simple!r}", file=sys.stderr)
            return VALIDATION_ERROR
        if args.coresolution:
            line = coresolution_line(algebra, args.simple)
        else:
            line = resolution_line(algebra, args.simple)
        if args.json:
            _emit(json_bytes({"algebra": algebra.label, "simple": args.simple,
                              "coresolution": bool(args.coresolution), "display": line}, ensure_ascii=False))
        else:
            _emit((line + "\n").encode("utf-8"))
        return 0

    if args.command == "critical":
        if args.strategy == "exhaustive":
            reports = find_all_critical_subcategories(algebra, budget_seconds=args.budget_seconds)
        else:
            reports = find_critical_subcategory_guided(algebra, budget_seconds=args.budget_seconds)
        certified = bool(algebra.validity)
        suffix = "" if certified else " (uncertified hypotheses)"
        if args.json:
            _emit(json_bytes({
                "algebra": algebra.label,
                "strategy": args.strategy,
                "certified": certified,
                "critical": [critical_json(r) for r in reports],
            }))
        elif not reports:
            _emit((f"no critical subcategory{suffix}\n").encode("utf-8"))
        else:
            _emit("".join(critical_line(r.subset, r.template) + suffix + "\n" for r in reports).encode("utf-8"))
        return 0

    if args.command == "iz":
        verdict = igusa_zacharia(algebra, budget_seconds=args.budget_seconds)
        if args.json:
            _emit(json_bytes({"algebra": algebra.label, "gldim_le_2": verdict}))
        else:
            _emit((("gl.dim ≤ 2: yes" if verdict else "gl.dim ≤ 2: no") + "\n").encode("utf-8"))
        return 0

    if args.command == "compare":
        rep = oracle_compare(algebra, budget_seconds=args.budget_seconds)
        if args.json:
            _emit(json_bytes({
                "algebra": rep.algebra,
                "certified": rep.certified,
                "ok": rep.ok,
                "checks": [{"name": c.name, "ok": c.ok, "details": c.details} for c in rep.checks],
            }))
        else:
            _emit(("\n".join(rep.lines()) + "\n").encode("utf-8"))
        if not rep.ok and rep.certified:
            return DISAGREEMENT
        return 0

    if args.command == "templates":
        if args.list:
            lines = [f"{kind}: {desc}" for kind, desc in template_catalogue()]
            _emit(("\n".join(lines) + "\n").encode())
            return 0
        kind, param = args.emit
        try:
            tpl = critical_template(kind, int(param), opposite=args.opposite)
        except ValueError:
            raise InvalidTemplate(f"parameter {param!r} is not an integer")
        _emit(render_spec(as_incidence_quotient(tpl)).encode())
        return 0

    if args.command == "random":
        try:
            model = RandomModel(seed=args.seed, n=args.n, edge_density=args.density, zero_rate=args.zero_rate)
        except ValueError as e:
            print(f"critalg: {e}", file=sys.stderr)
            return USAGE_ERROR
        algebra = random_algebra(model)
        _emit(render_spec(algebra).encode())
        return 0

    raise InternalError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
