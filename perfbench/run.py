"""The critalg benchmark: one workload of CLI commands in a closed loop.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

One client in one process, no threads: each op is a call to
``critalg.cli.main(argv)`` with stdout captured, started when the previous
one returns.  A pass runs each of the workload's ops (``gen.py``, at least
100) once; passes repeat, at least twice, until about ``--seconds`` have
gone, so every run measures whole passes.  Every op's output is checked
(``check.py``).

The last line of stdout is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (``spans.py``).  Lines above it repeat the figures for people.

Other modes:
    --record-refs    write refs/<workload>.json: exit code and stdout digest
                     of every op at the default seed, from the code checked out
    --known-defects  run once the ops that fail today (left out of the
                     workloads, which must not fail); exits 1 while any does
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFS = HERE / "refs"
DEFAULT_SEED = 1
MIN_OPS = 100
SETUP_SAMPLES = 7

sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


def import_critalg():
    """critalg from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "critalg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no critalg sources under {src}")
    sys.path.insert(0, str(src))
    import critalg.cli

    if Path(critalg.cli.__file__).resolve().parent != src / "critalg":
        sys.exit(f"perfbench: imported critalg from {critalg.cli.__file__}, not {src}")
    return critalg.cli


class _Capture(io.TextIOBase):
    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, s):
        self.buffer.write(s.encode("utf-8"))
        return len(s)


def run_op(cli, argv):
    """(exit code, stdout bytes, seconds) of one in-process CLI call."""
    out, err = _Capture(), _Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # an escaped exception is a failed op, not a failed run
        rc = f"uncaught {type(e).__name__}: {e}"
    finally:
        dt = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return rc, out.buffer.getvalue(), dt


def setup(cli, workload, seed, workdir):
    """Write the workload's input files; return its inputs and its op list."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs, ops = gen.WORKLOADS[workload](seed)
    for inp in inputs:
        path = Path(inp.file.format(dir=workdir))
        if inp.template:
            rc, text, _ = run_op(cli, ["templates", "--emit", inp.template[0], str(inp.template[1])])
            if rc != 0:
                sys.exit(f"perfbench: templates --emit {inp.template} exited {rc}")
            path.write_bytes(text)
        else:
            path.write_text(inp.text)
    if len(ops) < MIN_OPS:  # p90 needs ten ops beyond it
        sys.exit(f"perfbench: {workload} has {len(ops)} ops, fewer than {MIN_OPS}")
    ops = [(op_id, [a.format(dir=workdir) for a in argv]) for op_id, argv in ops]
    return inputs, ops


def setup_seconds(workload, seed):
    """Median wall time of fresh processes that import critalg and write the
    workload's inputs: process start to the point the first op could run."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


class Checker:
    """Applies the three layers of checks in check.py; collects failures."""

    def __init__(self, workload, seed, inputs):
        self.ctx = check.Context(inputs)
        self.first = {}  # op id -> (exit code, digest) of its first run
        self.failures = {}  # op id -> reason
        self.refs = None
        ref_file = REFS / f"{workload}.json"
        if seed == DEFAULT_SEED and ref_file.is_file():
            self.refs = json.loads(ref_file.read_text())["ops"]

    def __call__(self, op_id, argv, rc, out):
        got = [rc, digest(out)]
        if op_id in self.first:
            if got != self.first[op_id]:
                self.fail(op_id, "output differs from the op's first run")
            return
        self.first[op_id] = got
        reason = check.check(self.ctx, argv, rc, out)
        if reason is None and self.refs is not None and got != self.refs.get(op_id):
            reason = "exit code or stdout differs from the seed commit's reference"
        if reason is not None:
            self.fail(op_id, reason)

    def fail(self, op_id, reason):
        self.failures.setdefault(op_id, reason)


def closed_loop(cli, ops, seconds, checker):
    """At least two whole passes over the op list, and more while the next
    one ends nearer to `seconds`.  Returns each op's times, in op order."""
    times = [[] for _ in ops]
    outputs = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for k, (op_id, argv) in enumerate(ops):
            rc, out, dt = run_op(cli, argv)
            times[k].append(dt)
            outputs.append((op_id, argv, rc, out))
        elapsed = time.perf_counter() - t0
        for item in outputs:  # checking stays outside the timed ops
            checker(*item)
        outputs.clear()
        if len(times[0]) >= 2 and elapsed + (time.perf_counter() - start) / 2 >= seconds:
            return times, elapsed


def end_to_end(ops, times, failed_ops, setup_s):
    """Each op's time is the fastest of its runs, one per pass: noise from
    other work on the machine only ever adds time, and comes in bursts of
    seconds that rarely cover one op in every pass."""
    best = [min(t) for t in times]
    attempted = sum(len(t) for t in times)
    failed = sum(len(t) for (op_id, _), t in zip(ops, times) if op_id in failed_ops)
    return {
        "ops_per_s": (len(best) / sum(best), "ops/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }, attempted, failed


def traced_pass(cli, ops, checker, workload, seed):
    """One pass in which every op runs untraced, then traced; both runs must
    give the same exit code and stdout."""
    tracer = spans.Tracer()
    plain = traced = 0.0
    for op_id, argv in ops:
        rc, out, dt = run_op(cli, argv)
        plain += dt
        checker(op_id, argv, rc, out)
        tracer.install()
        try:
            rc2, out2, dt2 = run_op(cli, argv)
        finally:
            tracer.uninstall()
        traced += dt2
        if (rc2, out2) != (rc, out):
            checker.fail(op_id, "traced run differs from the untraced run")
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{workload}-s{seed}.tsv.gz")
    layer = tracer.metrics()
    overhead = {"untraced_ops_per_s": len(ops) / plain, "traced_ops_per_s": len(ops) / traced,
                "spans": len(tracer)}
    overhead["overhead"] = 1 - overhead["traced_ops_per_s"] / overhead["untraced_ops_per_s"]
    return layer, overhead


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run(args):
    cli = import_critalg()
    workdir = WORK / f"{args.workload}-s{args.seed}"
    if args.setup_only:
        setup(cli, args.workload, args.seed, workdir / "setup")
        return 0
    inputs, ops = setup(cli, args.workload, args.seed, workdir)
    checker = Checker(args.workload, args.seed, inputs)
    print(f"workload {args.workload}: {gen.WHY[args.workload]}")
    print(f"seed {args.seed}, {len(ops)} ops per pass")
    if args.trace:
        layer, overhead = traced_pass(cli, ops, checker, args.workload, args.seed)
        failed = len(checker.failures)
        for name, reason in checker.failures.items():
            print(f"FAILED {name}: {reason}")
        for name, unit in spans.LAYER_METRICS.items():
            print(f"  {name:52s} {layer[name]:>14.6g} {unit}")
        print("tracing overhead: {overhead:.1%} of ops_per_s (untraced {untraced_ops_per_s:.4g} ops/s, "
              "traced {traced_ops_per_s:.4g} ops/s), {spans} spans".format(**overhead))
        metrics = {k: (layer[k], spans.LAYER_METRICS[k]) for k in spans.REPORTED}
        print(result_line(failed == 0, len(ops), failed, metrics))
        return 0
    setup_s = setup_seconds(args.workload, args.seed)
    times, elapsed = closed_loop(cli, ops, args.seconds, checker)
    metrics, attempted, failed = end_to_end(ops, times, checker.failures, setup_s)
    for name, reason in checker.failures.items():
        print(f"FAILED {name}: {reason}")
    print(f"{attempted} ops in {elapsed:.2f} s ({len(times[0])} passes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:>12.6g} {unit}")
    del metrics["error_rate"]  # 0 on every workload; attempted and failed carry it
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def record_refs():
    cli = import_critalg()
    for workload in gen.WORKLOADS:
        inputs, ops = setup(cli, workload, DEFAULT_SEED, WORK / f"{workload}-refs")
        checker = Checker(workload, None, inputs)
        refs = {}
        for op_id, argv in ops:
            rc, out, _ = run_op(cli, argv)
            checker(op_id, argv, rc, out)
            refs[op_id] = [rc, digest(out)]
        for name, reason in checker.failures.items():
            print(f"FAILED {workload} {name}: {reason}")
        REFS.mkdir(exist_ok=True)
        lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(refs.items()))
        (REFS / f"{workload}.json").write_text(f'{{"seed": {DEFAULT_SEED}, "ops": {{\n{lines}\n}}}}\n')
        print(f"{workload}: {len(refs)} references")
    return 0


def known_defects():
    cli = import_critalg()
    workdir = WORK / "defects"
    workdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for inp, argv in gen.KNOWN_DEFECTS:
        path = Path(inp.file.format(dir=workdir))
        path.write_text(inp.text)
        want = check.validate_expected(inp)
        rc, out, dt = run_op(cli, [a.format(dir=workdir) for a in argv])
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ok = (rc, out) == (0, want)
        failed += not ok
        print(f"{'ok' if ok else 'FAILED'} {' '.join(argv[:-1])} {inp.name}: exit {rc} after {dt:.1f} s, "
              f"peak RSS {peak:.0f} MB")
    return 1 if failed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-refs", action="store_true")
    p.add_argument("--known-defects", action="store_true")
    args = p.parse_args(argv)
    if args.record_refs:
        return record_refs()
    if args.known_defects:
        return known_defects()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
