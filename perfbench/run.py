"""Benchmark of ffhyper: three workloads, checked outputs, a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload cli-mix --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test           # quick check of the harness itself

BENCHMARK.json lists count-ladder and cli-mix; classify runs here and in
the traced pass but is not listed, because its spread is too wide (see
classify.py).

Each workload runs as a closed loop with one client: the next operation
starts when the previous one has finished.  The loop runs whole cycles
until --seconds have passed; every cycle runs the same operations (see
each workload module) in a new seeded order, so every run measures the
same mix.  Outputs are checked after the loop, outside the timed region.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass over all three workloads, timed by spans around
calls into the ffhyper layers.  Metric names and units come from
BENCHMARK.json; layer_map.json says which end-to-end metric each
per-layer metric should move.  Every per-layer metric comes from one
workload, except field.from_order.busy_s: that is the sum over the three
workloads of the per-cycle time to build each one's fields.  Run records and spans are written under
.perfbench/ in the checkout; perfbench/freeze.py regenerates the frozen
outputs in perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_BEFORE = 3


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "ffhyper", "__init__.py")):
    fail("no ffhyper sources under %s; run from the root of an ffhyper checkout" % SRC)
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import ffhyper  # noqa: E402

if not os.path.abspath(ffhyper.__file__).startswith(SRC + os.sep):
    fail("imported ffhyper from %s, not from %s" % (ffhyper.__file__, SRC))

import classify  # noqa: E402
import climix  # noqa: E402
import ladder  # noqa: E402
from common import load_expected, median, per_cycle, tail  # noqa: E402
from spans import NULL, Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (ladder, classify, climix)}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts():
    def cache_size(index):
        path = "/sys/devices/system/cpu/cpu0/cache/index%d/size" % index
        try:
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "L2": cache_size(2), "L3": cache_size(3)}


def setup_once(code):
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return time.perf_counter() - t0


def check_ops(w, ops):
    """[(op, label, reason)] for (op, inst, result) triples, in order."""
    failures = []
    state = {}
    for n, inst, res in ops:
        if isinstance(res, Exception):
            failures.append((n, w.label(inst), "raised %r" % (res,)))
            continue
        try:
            reasons = list(w.check_op(inst, res, state))
        except (ValueError, KeyError, TypeError) as exc:  # e.g. output that is not JSON
            reasons = ["output could not be checked: %r" % (exc,)]
        failures += [(n, w.label(inst), reason) for reason in reasons]
    return failures


def call(w, inst, tracer=NULL):
    try:
        return w.op(inst, tracer)
    except Exception as exc:  # an exception is a failed operation, not a crash
        return exc


def new_workload(mod, seed, workdir, quick):
    return mod.Workload(seed=seed, expected=EXPECTED[mod.NAME], root=ROOT,
                        workdir=tempfile.mkdtemp(dir=workdir), quick=quick)


def run_untraced(mod, seed, seconds, workdir, quick=False):
    """One end-to-end run: setup, warm-up, the timed loop, then checks.

    The loop runs whole cycles until ``seconds`` of loop time have passed.
    A set-up sample is taken before the loop and after each cycle, with
    the loop clock paused, so that one slow phase of the host does not set
    the median.  ``quick`` runs each workload's small instance set.
    """
    setups = [setup_once(mod.SETUP_CODE) for _ in range(SETUP_BEFORE)]
    w = new_workload(mod, seed, workdir, quick)
    ops = [("warmup-%d" % j, inst, call(w, inst)) for j, inst in enumerate(w.warmup())]
    durations = []
    cycles = 0
    loop_s = 0.0
    while not cycles or loop_s < seconds:
        t_cycle = time.perf_counter()
        for inst in w.cycle(cycles):
            t0 = time.perf_counter()
            res = call(w, inst)
            durations.append(time.perf_counter() - t0)
            ops.append((len(durations) - 1, inst, res))
        loop_s += time.perf_counter() - t_cycle
        cycles += 1
        setups.append(setup_once(mod.SETUP_CODE))
    failures = check_ops(w, ops)
    tail_s, tail_pct = tail(durations)
    metrics = {
        "throughput_ops_s": len(durations) / loop_s,
        "op_p50_s": median(durations),
        "op_tail_s": tail_s,
        "peak_rss_mb": w.peak_rss_mb(),
        "setup_s": median(setups),
    }
    notes = {"samples": len(durations), "cycles": cycles, "loop_s": loop_s,
             "tail_percentile": tail_pct, "setup_s": setups, "op_s": durations}
    if mod is climix:
        notes["known_defect_clique_cache_key"] = w.probe_clique_cache_key()
    if mod is ladder:
        notes["lattices"] = ladder.Workload.facts()
    return metrics, notes, ops, failures


def run_traced(mods, seed, seconds, workdir, quick=False):
    """The traced pass: whole traced cycles of each workload for seconds/len(mods).

    Each cycle starts with the workload's begin_cycle (fresh fields, and
    for cli-mix the startup and verify-suite timings), then runs every
    operation of the cycle inside a span named after the workload.
    """
    layers = {"field.from_order.busy_s": 0.0}
    notes, all_ops, failures, spans = {}, [], [], {}
    for mod in mods:
        tracer = Tracer()
        w = new_workload(mod, seed, workdir, quick)
        ops = []
        cycles = 0
        t_start = time.perf_counter()
        while True:
            failures += w.begin_cycle(tracer)
            for j, inst in enumerate(w.cycle(cycles)):
                op = "%s:%d:%d" % (mod.NAME, cycles, j)
                with tracer.span(mod.NAME + ".op", op):
                    ops.append((op, inst, call(w, inst, tracer)))
            cycles += 1
            if time.perf_counter() - t_start >= seconds / len(mods):
                break
        loop_s = time.perf_counter() - t_start
        failures += check_ops(w, ops)
        all_ops += ops
        by_name = tracer.by_name()
        layers["field.from_order.busy_s"] += per_cycle(by_name, "field.from_order", cycles)
        layers.update(w.layer_metrics(by_name, tracer.values, cycles))
        notes[mod.NAME] = {"traced_ops": len(ops), "cycles": cycles, "loop_s": loop_s,
                           "traced_throughput_ops_s": len(ops) / loop_s}
        spans[mod.NAME] = tracer.rows()
    return layers, notes, all_ops, failures, spans


def result_line(spec_metrics, values, attempted, failed):
    metrics = {}
    for m in spec_metrics:
        v = values[m["name"]]
        if not isinstance(v, (int, float)) or v != v:
            raise ValueError("metric %s has no measured value: %r" % (m["name"], v))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def failed_count(failures):
    return len({op for op, _label, _reason in failures})


def print_metrics(title, spec_metrics, values, extra=None):
    print(title)
    for m in spec_metrics:
        note = (extra or {}).get(m["name"], "")
        print("  %-44s %.6g %s%s" % (m["name"], values[m["name"]], m["unit"], note))


def print_failures(failures):
    for op, label, reason in failures:
        print("  FAILED op %s [%s]: %s" % (op, label, reason))


def write_record(name, record):
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)


def e2e_report(mod, seed, seconds, workdir, spec):
    metrics, notes, ops, failures = run_untraced(mod, seed, seconds, workdir)
    failed = failed_count(failures)
    n = notes["samples"]
    extra = {"throughput_ops_s": "  (closed loop, one client; %d ops in %d cycles, %.1f s)"
                                 % (n, notes["cycles"], notes["loop_s"]),
             "op_p50_s": "  (n=%d)" % n,
             "op_tail_s": "  (p%.1f, n=%d)" % (notes["tail_percentile"], n),
             "setup_s": "  (median of %d fresh interpreters)" % len(notes["setup_s"])}
    if mod.NAME in {w["name"] for w in spec["workloads"]}:
        title = "workload %s (seed %d):" % (mod.NAME, seed)
    else:
        title = ("workload %s (seed %d), dropped from BENCHMARK.json: not steady, no bound;"
                 " see CHANGES.md:" % (mod.NAME, seed))
    print_metrics(title, spec["end_to_end"], metrics, extra)
    print("  %-44s %.6g 1  (%d of %d ops)" % ("failed_ops_frac", failed / len(ops), failed, len(ops)))
    print_failures(failures)
    for lat in notes.get("lattices", ()):
        print("  EPO lattice k=%d q=%d: %d cells, %d bytes (computed), L3 %s"
              % (lat["k"], lat["q"], lat["lattice_cells"], lat["lattice_bytes_computed"],
                 FACTS["L3"]))
    if "known_defect_clique_cache_key" in notes:
        reproduced, detail = notes["known_defect_clique_cache_key"]
        print("  known defect, clique cache key without --budget-tuples: %s (%s)"
              % ("reproduced" if reproduced else "not reproduced", detail))
    write_record("%s-seed%d-trace0.json" % (mod.NAME, seed),
                 {"workload": mod.NAME, "seed": seed, "seconds": seconds, "machine": FACTS,
                  "metrics": metrics, "failed_ops_frac": failed / len(ops), "notes": notes,
                  "failures": failures})
    return metrics, len(ops), failed


def traced_report(mods, seed, seconds, workdir, spec):
    layers, notes, ops, failures, spans = run_traced(mods, seed, seconds, workdir)
    print_metrics("traced pass over %s (seed %d):" % (", ".join(m.NAME for m in mods), seed),
                  spec["per_layer"], layers)
    print_failures(failures)
    write_record("spans-seed%d.json" % seed, spans)
    write_record("layers-seed%d-trace1.json" % seed,
                 {"seed": seed, "seconds": seconds, "machine": FACTS, "metrics": layers,
                  "notes": notes, "failures": failures})
    return layers, len(ops), failed_count(failures)


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main(spec)

    if args.workload is None:
        return report_all(args)
    print("perfbench: machine %s" % json.dumps(FACTS, sort_keys=True))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        mod = WORKLOADS[args.workload]
        if args.trace:
            # every per-layer metric needs all three workloads; the named one goes first
            mods = [mod] + [m for m in WORKLOADS.values() if m is not mod]
            values, attempted, failed = traced_report(mods, args.seed, args.seconds, workdir, spec)
            line = result_line(spec["per_layer"], values, attempted, failed)
        else:
            values, attempted, failed = e2e_report(mod, args.seed, args.seconds, workdir, spec)
            line = result_line(spec["end_to_end"], values, attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0


def report_all(args):
    """Every workload untraced, then the traced pass, then the tracing overhead.

    Each run is a child process, as in single-run mode, so that peak_rss_mb
    belongs to that workload alone.
    """
    base = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    for name in WORKLOADS:
        subprocess.run(base + ["--workload", name, "--trace", "0"], check=True)
    subprocess.run(base + ["--workload", next(iter(WORKLOADS)), "--trace", "1"], check=True)
    results = os.path.join(ROOT, ".perfbench", "results")
    with open(os.path.join(results, "layers-seed%d-trace1.json" % args.seed), encoding="utf-8") as fh:
        traced = json.load(fh)["notes"]
    print("tracing overhead (traced minus untraced loop rate, operations per second;")
    print("the traced classify operation also runs the stepwise verdict):")
    for name in WORKLOADS:
        with open(os.path.join(results, "%s-seed%d-trace0.json" % (name, args.seed)),
                  encoding="utf-8") as fh:
            notes = json.load(fh)["notes"]
        plain = notes["samples"] / notes["loop_s"]
        rate = traced[name]["traced_throughput_ops_s"]
        print("  %-14s %+.4g 1/s (traced %.4g, untraced %.4g)" % (name, rate - plain, rate, plain))
    return 0


EXPECTED = load_expected() if os.path.isfile(os.path.join(HERE, "expected.json")) else {}
FACTS = machine_facts()

if __name__ == "__main__":
    sys.exit(main())
