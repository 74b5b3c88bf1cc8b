"""Minimal inputs that once broke `validate`, kept as description files.

Each file in ``regressions/`` states what it must produce in comment lines:

    # expect exit CODE
    # expect certified true|false
    # expect reason TEXT        (one line per reason, in order)

The time bound is generous: it only has to catch a return of exponential or
recursive behaviour.
"""

import json
import pathlib
import time

import pytest

from critalg.cli import main

CORPUS = sorted((pathlib.Path(__file__).parent / "regressions").glob("*.alg"))
SECONDS = 10.0


def expectations(path):
    exit_code, certified, reasons = None, None, []
    for line in path.read_text().splitlines():
        if not line.startswith("# expect "):
            continue
        key, _, value = line[len("# expect "):].partition(" ")
        if key == "exit":
            exit_code = int(value)
        elif key == "certified":
            certified = {"true": True, "false": False}[value]
        elif key == "reason":
            reasons.append(value)
        else:
            raise ValueError(f"{path.name}: unknown expectation {key!r}")
    if exit_code is None or certified is None:
        raise ValueError(f"{path.name}: needs '# expect exit' and '# expect certified'")
    return exit_code, certified, reasons


def test_corpus_is_present():
    assert {p.name for p in CORPUS} >= {"chain1200.alg", "diamonds20.alg"}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_validate_regression(path, capsysbinary):
    exit_code, certified, reasons = expectations(path)
    t0 = time.perf_counter()
    code = main(["validate", "--json", str(path)])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsysbinary.readouterr().out)
    assert code == exit_code
    assert doc["certified"] is certified
    assert doc["reasons"] == reasons
    assert elapsed <= SECONDS, f"validate took {elapsed:.1f} s"
