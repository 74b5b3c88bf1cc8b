import io
import json
import random
import sys

import pytest

from critalg.cli import main
from critalg.compare import oracle_compare
from critalg.errors import SpecError
from critalg.presentation import SchurianAlgebra, from_poset
from critalg.randgen import RandomModel
from critalg.report import (
    build_report,
    parse_report,
    render_report,
    resolution_line,
)
from critalg.specfile import load_algebra, parse_spec, render_spec

DIAMOND_DOC = """\
algebra diamond6
vertices 1 2 3 4 5 6
arrows 1->2 2->3 2->4 3->5 4->5 5->6
zero 1 ~> 4
zero 3 ~> 6
"""

CHAIN_DOC = """\
algebra chain6
vertices 1 2 3 4 5 6
arrows 1->2 2->3 3->4 4->5 5->6
zero 1 ~> 3
zero 4 ~> 6
"""


def test_parse_diamond_doc():
    doc = parse_spec(DIAMOND_DOC)
    assert doc.name == "diamond6"
    assert len(doc.vertices) == 6 and len(doc.arrows) == 6 and len(doc.zeros) == 2
    A = doc.build()
    assert A.validity.certified


def _code_at(text):
    with pytest.raises(SpecError) as e:
        parse_spec(text).build()
    return e.value.code, e.value.line, e.value.col


def test_parser_diagnostics():
    assert _code_at("") == ("syntax_error", 1, 1)
    assert _code_at("vertices 1 2") == ("syntax_error", 1, 1)
    code, line, col = _code_at("algebra x\nvertices 1 2 1")
    assert (code, line) == ("duplicate_vertex", 2) and col > 1
    code, line, _ = _code_at("algebra x\nvertices 1 2\narrows 1->3")
    assert (code, line) == ("unknown_vertex", 3)
    code, line, _ = _code_at("algebra x\nvertices 1\narrows 1->1")
    assert (code, line) == ("self_arrow", 3)
    code, line, _ = _code_at("algebra x\nvertices 1 2\narrows 1->2 1->2")
    assert (code, line) == ("duplicate_arrow", 3)
    code, line, _ = _code_at("algebra x\nvertices 1 2\narrows 1->2\nzero 1 ~> 2")
    assert (code, line) == ("malformed_relation", 4)
    code, line, _ = _code_at("algebra x\nvertices 1 2 3\narrows 1->2 2->3 1->3")
    assert code == "not_hasse"
    code, line, _ = _code_at("algebra x\nvertices 1 2\narrows 1->2 2->1")
    assert code == "cycle"
    assert _code_at("algebra x\nwibble 1")[0] == "syntax_error"
    assert _code_at("algebra x\nalgebra y")[0] == "syntax_error"


def test_comments_and_blanks_ignored():
    doc = parse_spec("algebra t\n\n# a comment\nvertices 1 2\n# another\narrows 1->2\n")
    assert doc.vertices == ["1", "2"]


def test_spec_round_trip(diamond6):
    text = render_spec(diamond6)
    again = load_algebra(text)
    assert again.hom_rows == diamond6.hom_rows
    assert again.names == diamond6.names


def test_template_emitted_docs_build():
    from critalg.criteria import classify_critical, critical_template
    from critalg.presentation import as_incidence_quotient

    for kind, param in [("A", 2), ("B", 3), ("Q", 2)]:
        for opp in (False, True):
            tpl = critical_template(kind, param, opposite=opp)
            doc = render_spec(as_incidence_quotient(tpl))
            again = load_algebra(doc)
            got = classify_critical(again)
            assert (got.kind, got.param) == (kind, param)


def test_parser_fuzz_sample():
    rng = random.Random(99)
    alphabet = "az19 \t\n#->~>algebra vertices arrows zero"
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            parse_spec(text).build()
        except SpecError as e:
            assert e.line >= 1 and e.col >= 1
        # no other exception type is acceptable


def test_report_round_trip(diamond6):
    rep = build_report(diamond6)
    data = render_report(rep, "json")
    assert parse_report(data) == rep
    j = json.loads(data)
    assert list(j.keys()) == [
        "version", "algebra", "certified", "gldim", "simples", "criterion", "timings_ms",
    ]


def test_report_text_contents(diamond6, chain6):
    text45 = render_report(build_report(diamond6), "text").decode()
    assert "gl.dim = 3" in text45
    assert "critical subcategory: {1,2,5,6} ≅ A_1" in text45
    text46 = render_report(build_report(chain6), "text").decode()
    assert "gl.dim = 2" in text46
    assert "critical subcategory: {1,2,5,6} ≅ A_1" in text46


def test_resolution_line_display(arc4):
    assert resolution_line(arc4, "1") == "0 → P4 → P3 → P2 → P1 → S1 → 0"


def test_report_uncertified_suffix(square):
    A = from_poset(square.hasse, [("1", "4")], label="brokensquare")
    text = render_report(build_report(A), "text").decode()
    assert "UNCERTIFIED" in text
    assert "(uncertified hypotheses)" in text


def test_oracle_compare_agrees(diamond6, chain6):
    rep = oracle_compare(diamond6)
    assert rep.ok
    rep2 = oracle_compare(chain6)
    assert rep2.ok
    assert any("converse" in d for c in rep2.checks for d in c.details)


def test_oracle_compare_flags_corruption(diamond6):
    rows = list(diamond6.hom_rows)
    # flip hom(2,6) on: breaks the domination rule the fast paths rely on
    rows[1] |= 1 << 5
    broken = SchurianAlgebra(diamond6.names, rows, label="corrupted")
    rep = oracle_compare(broken)
    assert not rep.ok
    offending = [c for c in rep.checks if not c.ok]
    assert any(c.details for c in offending)


def run_cli(args):
    out, err = io.BytesIO(), io.StringIO()

    class _Buffer:
        def __init__(self, b):
            self.buffer = b

        def flush(self):
            pass

    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = _Buffer(out), err
    try:
        code = main(args)
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def doc_path(tmp_path):
    p = tmp_path / "d6.alg"
    p.write_text(DIAMOND_DOC)
    return str(p)


def test_cli_gldim(doc_path):
    code, out, _ = run_cli(["gldim", doc_path])
    assert code == 0
    assert b"gl.dim = 3" in out


def test_cli_validate(doc_path):
    code, out, _ = run_cli(["validate", doc_path])
    assert code == 0 and b"certified" in out


def test_cli_critical_strategies(doc_path):
    code, out, _ = run_cli(["critical", doc_path])
    assert code == 0 and "{1,2,5,6} ≅ A_1".encode() in out
    code, out2, _ = run_cli(["critical", doc_path, "--strategy", "guided"])
    assert code == 0 and "{1,2,4,6} ≅ A_1".encode() in out2


def test_cli_resolve(doc_path):
    code, out, _ = run_cli(["resolve", doc_path, "--simple", "1"])
    assert code == 0 and out.decode().startswith("0 → P6")
    code, out, _ = run_cli(["resolve", doc_path, "--simple", "9"])
    assert code == 2


def test_cli_iz(tmp_path):
    p = tmp_path / "sq.alg"
    p.write_text("algebra sq\nvertices 1 2 3 4\narrows 1->2 1->3 2->4 3->4\n")
    code, out, _ = run_cli(["iz", str(p)])
    assert code == 0 and b"yes" in out
    p2 = tmp_path / "z.alg"
    p2.write_text(DIAMOND_DOC)
    code, _, err = run_cli(["iz", str(p2)])
    assert code == 2


def test_cli_compare(doc_path):
    code, out, _ = run_cli(["compare", doc_path])
    assert code == 0 and b"agree" in out


def test_cli_parse_error_exit_code(tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("vertices 1 2\n")
    code, _, err = run_cli(["gldim", str(p)])
    assert code == 1 and "syntax_error" in err


def test_cli_validation_error_exit_code(tmp_path):
    p = tmp_path / "bypass.alg"
    p.write_text("algebra b\nvertices 1 2 3\narrows 1->2 2->3 1->3\n")
    code, _, err = run_cli(["gldim", str(p)])
    assert code == 1 and "not_hasse" in err


def test_cli_usage_error_exit_code():
    code, _, _ = run_cli(["no-such-command"])
    assert code == 1


def test_cli_size_cap(tmp_path):
    names = [str(k) for k in range(1, 17)]
    doc = "algebra big\nvertices " + " ".join(names) + "\narrows " + " ".join(
        f"{k}->{k+1}" for k in range(1, 16)
    ) + "\n"
    p = tmp_path / "big.alg"
    p.write_text(doc)
    code, _, err = run_cli(["criterion", str(p)])
    assert code == 2 and "--force" in err
    code, out, _ = run_cli(["criterion", str(p), "--force"])
    assert code == 0
    code, out, _ = run_cli(["gldim", str(p)])
    assert code == 0 and b"skipped" in out


def test_cli_templates_and_random():
    code, out, _ = run_cli(["templates", "--list"])
    assert code == 0 and out.startswith(b"A:")
    code, out, _ = run_cli(["templates", "--emit", "Q", "2"])
    assert code == 0 and b"algebra Q_2" in out
    code, out2, _ = run_cli(["random", "--seed", "5", "--n", "6"])
    code2, out3, _ = run_cli(["random", "--seed", "5", "--n", "6"])
    assert out2 == out3


def test_cli_byte_determinism(doc_path):
    for argv in (["gldim", doc_path], ["criterion", doc_path], ["gldim", doc_path, "--json"],
                 ["compare", doc_path], ["critical", doc_path]):
        _, a, _ = run_cli(argv)
        _, b, _ = run_cli(argv)
        assert a == b


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_random_output_pinned(seed):
    # holds the random generator's call sequence fixed
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / f"random-s{seed}-n12.alg"
    code, out, _ = run_cli(["random", "--seed", str(seed), "--n", "12"])
    assert code == 0 and out == golden.read_bytes()


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "5", "--density", "0"], ["--n", "5", "--zero-rate", "2"]])
def test_cli_random_bad_params_exit_1(flags):
    code, out, err = run_cli(["random", "--seed", "1", *flags])
    assert code == 1 and out == b""
    assert err.startswith("critalg: ") and "Traceback" not in err


def _chain_doc(tmp_path, n):
    names = [str(k) for k in range(1, n + 1)]
    p = tmp_path / f"chain{n}.alg"
    p.write_text(f"algebra chain{n}\nvertices {' '.join(names)}\narrows "
                 + " ".join(f"{k}->{k + 1}" for k in range(1, n)) + "\n")
    return str(p)


@pytest.mark.parametrize("command", ["gldim", "criterion"])
def test_cli_timings_cover_the_work(command, doc_path, monkeypatch):
    import critalg.cli as cli

    clock = [100.0]
    real = cli.build_report

    def slow_build_report(*args, **kwargs):
        clock[0] += 6.0
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(cli, "build_report", slow_build_report)
    code, out, _ = run_cli([command, "--timings", "--json", doc_path])
    assert code == 0 and json.loads(out)["timings_ms"] == 6000


@pytest.mark.parametrize("command", ["gldim", "criterion"])
def test_cli_budget_stops_the_scan(command, tmp_path):
    # a zero budget is a budget: the scan stops at its first clock check
    path = _chain_doc(tmp_path, 9)
    code, _, err = run_cli([command, "--budget-seconds", "0", path])
    assert code == 2 and "budget" in err
    code, _, _ = run_cli([command, path])
    assert code == 0


def test_random_rejected_params():
    with pytest.raises(ValueError):
        RandomModel(seed=1, n=3, edge_density=0.0)
    with pytest.raises(ValueError):
        RandomModel(seed=1, n=3, zero_rate=1.5)


def test_golden_report_schema(diamond6):
    # any schema change must be reflected in the golden file and the version
    import pathlib

    golden_path = pathlib.Path(__file__).parent / "golden" / "diamond6.json"
    rendered = render_report(build_report(diamond6), "json")
    assert rendered == golden_path.read_bytes()
