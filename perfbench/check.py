"""Correctness checks on the output of every benchmark op.

Three layers of checks, applied by ``run.py``:

* on every seed, a semantic check per op kind, against facts this file
  derives without critalg: the generated input itself, the catalogue
  template an input was emitted from, the uniserial resolutions of a chain,
  and the other ops run on the same input;
* on every seed, each repeat of an op must reproduce its first output byte
  for byte (outputs are deterministic);
* on the default seed, each op's exit code and stdout digest must equal the
  reference recorded from the seed commit in ``refs/<workload>.json``.

A check returns ``None`` when the output is correct and a one-line reason
when it is not.
"""

from __future__ import annotations

import json
import re

REPORT_KEYS = ["version", "algebra", "certified", "gldim", "simples", "criterion", "timings_ms"]


class Context:
    """What earlier ops established about each input, for cross-checks."""

    def __init__(self, inputs):
        self.inputs = {inp.name: inp for inp in inputs}
        self.criterion = {}  # input name -> parsed criterion report


def parse_alg(text: str):
    """(label, vertex names, arrows, zero pairs) of a description file."""
    label, names, arrows, zeros = None, [], [], []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if toks[0] == "algebra":
            label = toks[1]
        elif toks[0] == "vertices":
            names += toks[1:]
        elif toks[0] == "arrows":
            arrows += [tuple(t.split("->")) for t in toks[1:]]
        elif toks[0] == "zero":
            zeros.append((toks[1], toks[3]))
    return label, names, arrows, zeros


def _closure(names, arrows):
    """Strict down-sets by name; None if the arrows have a cycle."""
    below = {v: set() for v in names}
    out = {v: [] for v in names}
    indeg = {v: 0 for v in names}
    for s, t in arrows:
        out[s].append(t)
        indeg[t] += 1
    order = [v for v in names if indeg[v] == 0]
    for v in order:
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != len(names):
        return None
    for v in reversed(order):
        for w in out[v]:
            below[v] |= {w} | below[w]
    return below


def _input_of(ctx, argv):
    path = argv[-1]
    name = path.rsplit("/", 1)[-1][: -len(".alg")]
    return ctx.inputs[name]


def _load_json(out: bytes):
    try:
        return json.loads(out.decode("utf-8")), None
    except (UnicodeDecodeError, ValueError) as e:
        return None, f"output is not JSON: {e}"


# -- chains: resolutions of uniserial modules, computed directly ---------------------


def chain_dims(n: int, zeros) -> list[tuple[int, int]]:
    """(pd, id) of each simple of the n-chain 1 -> 2 -> .. -> n with the given
    zero pairs (0-based).  Every module met is an interval [a, b]; its
    projective cover is [a, r(a)], whose kernel is [b + 1, r(a)]."""

    def pds(zs):
        reach = [n - 1] * n  # r(a): last vertex with nonzero hom from a
        for s, t in zs:
            for a in range(s + 1):
                reach[a] = min(reach[a], t - 1)
        out = []
        for i in range(n):
            a, b, k = i, i, 0
            while reach[a] != b:
                a, b, k = b + 1, reach[a], k + 1
            out.append(k)
        return out

    pd = pds(zeros)
    idim = pds([(n - 1 - t, n - 1 - s) for s, t in zeros])[::-1]
    return list(zip(pd, idim))


# -- per-kind checks ---------------------------------------------------------------


def _check_report(data, inp):
    if list(data) != REPORT_KEYS:
        return f"report keys {list(data)} differ from the pinned schema"
    if data["algebra"] != inp.name:
        return f"algebra label {data['algebra']!r} is not {inp.name!r}"
    vertices = [s["vertex"] for s in data["simples"]]
    if sorted(vertices, key=int) != [str(k) for k in range(1, inp.n + 1)]:
        return "simples do not list each vertex once"
    if data["gldim"] != max(s["pd"] for s in data["simples"]):
        return "gldim is not the largest pd of a simple"
    if data["gldim"] != max(s["id"] for s in data["simples"]):
        return "gldim is not the largest id of a simple"
    if data["timings_ms"] != 0:
        return "timings_ms is not 0 without --timings"
    return None


def check_criterion(ctx, argv, out):
    inp = _input_of(ctx, argv)
    data, err = _load_json(out)
    if err:
        return err
    ctx.criterion[inp.name] = data
    err = _check_report(data, inp)
    if err:
        return err
    crit = data["criterion"]
    found = crit["critical"]
    if crit["verdict"] != ("critical_found" if found else "certified_gldim_le_2"):
        return f"verdict {crit['verdict']!r} does not match {len(found)} critical subsets"
    if not found and data["certified"] and data["gldim"] > 2:
        return "no critical subcategory on a certified input, yet gl.dim > 2"
    if any(len(c["subset"]) < 4 for c in found):
        return "a critical subset has fewer than four vertices"
    if inp.template:
        kind, param = inp.template
        full = {"subset": [str(k) for k in range(1, inp.n + 1)], "template": kind,
                "params": param, "opposite": False}
        if full not in [dict(c, subset=sorted(c["subset"], key=int)) for c in found]:
            return f"the full vertex set is not reported critical as {kind}_{param}"
    return None


_CRITICAL_LINE = re.compile(r"critical subcategory: \{([^}]*)\} ≅ (\S+)( \(uncertified hypotheses\))?$")


def check_critical(ctx, argv, out):
    inp = _input_of(ctx, argv)
    if inp.name not in ctx.criterion:
        return "criterion gave no report on this input to check against"
    lines = out.decode("utf-8").splitlines()
    exhaustive = {tuple(c["subset"]) for c in ctx.criterion[inp.name]["criterion"]["critical"]}
    certified = ctx.criterion[inp.name]["certified"]
    suffix = "" if certified else " (uncertified hypotheses)"
    if lines == [f"no critical subcategory{suffix}"]:
        subsets = []
    else:
        subsets = []
        for line in lines:
            m = _CRITICAL_LINE.match(line)
            if not m or (m.group(3) or "") != suffix:
                return f"unexpected line {line!r}"
            subsets.append((tuple(m.group(1).split(",")), m.group(2)))
    for subset, _ in subsets:
        if subset not in exhaustive:
            return f"guided-only critical subset {subset}"
    if inp.template:
        kind, param = inp.template
        full = tuple(str(k) for k in range(1, inp.n + 1))
        if (full, f"{kind}_{param}") not in [(tuple(sorted(s, key=int)), t) for s, t in subsets]:
            return f"guided search misses the full vertex set as {kind}_{param}"
    return None


def check_compare(ctx, argv, out):
    inp = _input_of(ctx, argv)
    lines = out.decode("utf-8").splitlines()
    if len(lines) < 2 or lines[0] != f"algebra {inp.name}":
        return "compare output does not start with the algebra and status lines"
    if lines[1] == "status: certified" and any(line.startswith("[DISAGREE]") for line in lines):
        return "a criterion disagrees with the engine on a certified input"
    if sum(line.startswith("[") for line in lines) != 6:
        return "compare did not report six checks"
    return None


def check_iz(ctx, argv, out):
    inp = _input_of(ctx, argv)
    if inp.name not in ctx.criterion:
        return "criterion gave no report on this input to check against"
    want = "yes" if ctx.criterion[inp.name]["gldim"] <= 2 else "no"
    if out.decode("utf-8") != f"gl.dim ≤ 2: {want}\n":
        return f"iz says {out!r}, the engine's gl.dim says {want}"
    return None


def check_gldim(ctx, argv, out):
    inp = _input_of(ctx, argv)
    data, err = _load_json(out)
    if err:
        return err
    err = _check_report(data, inp)
    if err:
        return err
    if data["criterion"] != {"verdict": "skipped_size_cap", "critical": []}:
        return "criterion not skipped above the size cap"
    zeros = parse_alg(inp.text)[3]
    if inp.name.startswith("chain"):
        want = chain_dims(inp.n, [(int(s) - 1, int(t) - 1) for s, t in zeros])
        got = [(s["pd"], s["id"]) for s in sorted(data["simples"], key=lambda s: int(s["vertex"]))]
        if got != want:
            return "chain pd/id differ from the uniserial resolutions"
        if not data["certified"]:
            return "a chain is reported uncertified"
    if not zeros and not data["certified"]:
        return "an incidence algebra without zero pairs is reported uncertified"
    return None


def check_validate(ctx, argv, out):
    inp = _input_of(ctx, argv)
    data, err = _load_json(out)
    if err:
        return err
    label, names, arrows, zeros = parse_alg(inp.text)
    if list(data) != ["algebra", "vertices", "arrows", "zero_pairs", "certified", "reasons"]:
        return f"validate keys {list(data)} are not the expected ones"
    if (data["algebra"], data["vertices"]) != (label, names):
        return "validate does not echo the label and vertices"
    if sorted(data["arrows"]) != sorted(f"{s}->{t}" for s, t in arrows):
        return "validate does not echo the arrows"
    if sorted(map(tuple, data["zero_pairs"])) != sorted(zeros):
        return "validate does not echo the zero pairs"
    if data["certified"] != (not data["reasons"]):
        return "certified does not match the absence of reasons"
    if inp.name.startswith("chain") and not data["certified"]:
        return "a chain has no contours, so it must be certified"
    if inp.name.startswith("diamonds"):
        # the zero pair joins the tips of one diamond: both of its paths are
        # killed, and the diamond is an irreducible contour
        (s, t), = zeros
        reasons = data["reasons"]
        if len(reasons) != 1 or not reasons[0].startswith(f"zero {s} ~> {t}: path "):
            return "a zero pair across a diamond must fail the gate once"
    return None


def check_random(ctx, argv, out):
    seed, n = argv[2], int(argv[4])
    label, names, arrows, zeros = parse_alg(out.decode("utf-8"))
    if label != f"random-s{seed}-n{n}" or names != [str(k) for k in range(1, n + 1)]:
        return "random output has the wrong label or vertices"
    below = _closure(names, arrows)
    if below is None:
        return "random output has a cycle"
    for s, t in arrows:
        if any(t in below[m] for m in below[s] if m != t):
            return f"arrow {s}->{t} is a bypass"
    arrow_set = set(arrows)
    for s, t in zeros:
        if t not in below[s] or (s, t) in arrow_set:
            return f"zero pair {s} ~> {t} has no path of length >= 2"
    return None


def validate_expected(inp) -> bytes:
    """validate --json on an input without contours (a chain): it echoes the
    input and is certified, since no path lies in any contour."""
    label, names, arrows, zeros = parse_alg(inp.text)
    return (json.dumps({
        "algebra": label,
        "vertices": names,
        "arrows": [f"{s}->{t}" for s, t in sorted(arrows, key=lambda a: (int(a[0]), int(a[1])))],
        "zero_pairs": [list(z) for z in zeros],
        "certified": True,
        "reasons": [],
    }, indent=2) + "\n").encode()


CHECKS = {
    "criterion": check_criterion,
    "critical": check_critical,
    "compare": check_compare,
    "iz": check_iz,
    "gldim": check_gldim,
    "validate": check_validate,
    "random": check_random,
}


def check(ctx, argv, rc, out):
    if rc != 0:
        return f"exit code {rc}"
    return CHECKS[argv[0]](ctx, argv, out)
