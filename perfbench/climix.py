"""cli-mix: one ``ffhyper`` invocation per operation, one child process at a time.

Why: interpreter start and ``import ffhyper.cli`` dominate, together with
the result cache; the in-process workloads touch neither.  The split
between cache misses and hits shows a change that speeds one up at the
cost of the other.

One cycle runs every cached invocation of POOL three times and ``verify``
once, in a seeded order, against a fresh --cache-dir: the first
occurrence of an invocation computes and writes the cache, the others
replay it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

from ffhyper.field import Field
from ffhyper.parse import parse_poly
from ffhyper.verify import CHECKS, FIXTURES, run_checks

from common import children_rss_mb, median, per_cycle
from spans import NULL

NAME = "cli-mix"
CLI = "import sys\nfrom ffhyper.cli import main\nsys.exit(main())\n"
# Cached invocations at small sizes, covering the nine cached subcommands.
# The non-default --budget-tuples is above what the invocation needs, so it
# does not change the output.
POOL = [
    ["admissible", "--field", "13", "--poly", "x1*x2+x1*x3+x2*x3+x1+x2+x3"],
    ["epo", "--field", "61", "--poly", "x1*x2+1"],
    ["epo", "--field", "13", "--poly", "x1*x2+1", "--method", "both", "--workers", "2"],
    ["tuples", "--field", "101", "--poly", "x1*x2+1", "--m", "3"],
    ["tuples", "--field", "13", "--poly", "x1*x2*x3+1", "--m", "4", "--budget-tuples", "1000"],
    ["clique", "--field", "13", "--poly", "x1*x2+1"],
    ["weil", "--field", "13", "--poly", "x1^2+1"],
    ["xset", "--field", "7", "--poly", "x1^2+x2^2+x3^2"],
    ["bset", "--field", "7", "--poly", "x1*x2+1"],
    ["slavov", "--field", "29", "--poly", "x1;x1+1"],
    ["scan", "--field", "5,7,9", "--samples", "5", "--workers", "2"],
]
REPEATS = 3  # per cycle: the first occurrence writes the cache, the others replay it
VERIFY = ["verify"]
SUBCOMMANDS = ("admissible", "epo", "tuples", "clique", "weil", "xset", "bset",
               "slavov", "scan", "verify")
# invocation -> (JSON path, verify.FIXTURES value), checked on every uncached output
FIXTURE_CHECKS = {
    "epo --field 13 --poly x1*x2+1 --method both --workers 2":
        (("direct", "observed"), str(FIXTURES["epo"][(2, 13, "prod")])),
    "tuples --field 101 --poly x1*x2+1 --m 3":
        (("observed",), str(FIXTURES["msub"][(2, 101, "prod", 3)])),
    "tuples --field 13 --poly x1*x2*x3+1 --m 4 --budget-tuples 1000":
        (("observed",), str(FIXTURES["msub"][(3, 13, "prod", 4)])),
    "clique --field 13 --poly x1*x2+1": (("omega",), FIXTURES["omega"][(2, 13, "prod")]),
    "slavov --field 29 --poly x1;x1+1": (("observed",), str(FIXTURES["slavov"][29])),
}
FIELD_ORDERS = (5, 7, 9, 13, 29, 61, 101)
SETUP_CODE = ("import ffhyper.cli\nfrom ffhyper.field import Field\n"
              "for q in %r:\n    Field.from_order(q)\n" % (FIELD_ORDERS,))


def entry_key(args):
    return " ".join(args)


def poly_inputs(args):
    """(q, nvars, text) for each polynomial the CLI parses for ``args``."""
    opts = dict(zip(args[1::2], args[2::2]))
    if "--poly" not in args:
        return []
    q, text = int(opts["--field"]), opts["--poly"]
    if args[0] == "weil":
        return [(q, 1, text)]
    parts = [t.strip() for t in text.split(";")] if args[0] == "slavov" else [text]
    nvars = max(int(v) for v in re.findall(r"x(\d+)", text))
    return [(q, nvars, p) for p in parts]


class Workload:
    def __init__(self, seed, expected, root, workdir, quick=False):
        self.frozen = expected["outputs"]
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("FFHYPER_CACHE_DIR", None)
        self.entries = POOL + [VERIFY]
        self.repeats = 2 if quick else REPEATS
        self.fields = None
        self._cycles = []

    def begin_cycle(self, tracer):
        """Traced pass only: fresh fields, startup samples and in-process verify suites.

        Returns [(op, label, reason)] for each suite that did not pass.
        """
        self.fields = {}
        for q in FIELD_ORDERS:
            with tracer.span("field.from_order"):
                self.fields[q] = Field.from_order(q)
        for _ in range(5):
            with tracer.span("cli.startup"):
                subprocess.run([sys.executable, "-c", "import ffhyper.cli"], env=self.env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        # `ffhyper verify` prints each suite's seconds rounded to 1 ms, which
        # reads the same on every run for the fastest suites; time them here.
        failures = []
        for name in CHECKS:
            with tracer.span("verify." + name):
                report = run_checks(only=name)
            if not report["passed"]:
                failures.append(("%s:verify" % NAME, "verify suite " + name,
                                 "suite did not pass in-process"))
        return failures

    def cycle(self, c):
        while len(self._cycles) <= c:
            seq = [i for i in range(len(POOL)) for _ in range(self.repeats)] + [len(POOL)]
            self.rng.shuffle(seq)
            self._cycles.append(seq)
        return [(c, i) for i in self._cycles[c]]

    def warmup(self):
        return []

    def label(self, inst):
        return "ffhyper " + entry_key(self.entries[inst[1]])

    def run_cli(self, args):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", CLI] + args, env=self.env,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr

    def op(self, inst, tracer=NULL):
        """One invocation against the cache directory of its cycle.

        When tracing, the polynomials the CLI will parse are first parsed
        in-process, since the child's own parse cannot be timed from here.
        """
        c, i = inst
        args = self.entries[i]
        if tracer.enabled:
            for q, nvars, text in poly_inputs(args):
                with tracer.span("parse.parse_poly"):
                    parse_poly(self.fields[q], nvars, text)
        cdir = os.path.join(self.workdir, "cache-%d" % c)
        os.makedirs(cdir, exist_ok=True)
        before = set(os.listdir(cdir))
        with tracer.span("cli." + args[0]):
            dt, code, out, err = self.run_cli(args + ["--cache-dir", cdir])
        new = set(os.listdir(cdir)) - before
        written = sum(os.path.getsize(os.path.join(cdir, n)) for n in new)
        if args != VERIFY:
            tracer.note("miss_s" if new else "hit_s", dt)
            tracer.note("bytes_written", written)
        return code, out, err, len(new), written, dt

    @staticmethod
    def layer_metrics(spans, values, cycles):
        out = {
            "parse.parse_poly.busy_s": per_cycle(spans, "parse.parse_poly", cycles),
            "cli.startup_s": median(spans["cli.startup"]),
        }
        for sub in SUBCOMMANDS:
            out["cli.%s.p50_s" % sub] = median(spans["cli." + sub])
        out["cli.cache.misses"] = len(values["miss_s"]) / cycles
        out["cli.cache.hits"] = len(values["hit_s"]) / cycles
        out["cli.cache.bytes_written"] = sum(values["bytes_written"]) / cycles
        out["cli.miss.p50_s"] = median(values["miss_s"])
        out["cli.hit.p50_s"] = median(values["hit_s"])
        for name in CHECKS:
            out["verify.%s.s" % name] = per_cycle(spans, "verify." + name, cycles)
        return out

    def check_op(self, inst, res, state):
        """Yield a reason for each way the output of ``inst`` is wrong.

        ``state`` carries the first output of each invocation per cycle.
        """
        c, i = inst
        code, out, err, _new, _written, _dt = res
        args = self.entries[i]
        if b"Traceback" in err:
            yield "traceback on stderr: %s" % err.decode(errors="replace").strip()[-200:]
        if args == VERIFY:
            if code != 0:
                yield "exit code %d, expected 0" % code
                return
            report = json.loads(out)
            if not report["passed"] or [s["name"] for s in report["suites"]] != list(CHECKS):
                yield "verify did not pass all %d suites" % len(CHECKS)
            return
        frozen = self.frozen[entry_key(args)]
        if code != frozen["exit"]:
            yield "exit code %d, expected %d" % (code, frozen["exit"])
        if (c, i) in state:
            if (code, out) != state[(c, i)]:
                yield "replayed output differs from the uncached output of this invocation"
            return
        state[(c, i)] = (code, out)
        if hashlib.sha256(out).hexdigest() != frozen["sha256"]:
            yield "output bytes differ from the frozen output"
        if entry_key(args) in FIXTURE_CHECKS:
            path, want = FIXTURE_CHECKS[entry_key(args)]
            got = json.loads(out)
            for key in path:
                got = got[key]
            if got != want:
                yield "%s = %r, verify.FIXTURES has %r" % (".".join(path), got, want)

    @staticmethod
    def peak_rss_mb():
        return children_rss_mb()

    def probe_clique_cache_key(self):
        """Reproduce the clique cache key that leaves out --budget-tuples.

        A small node budget stores an inexact omega; a later default-budget
        call with the same cache directory replays it instead of the exact
        value.  Returns (reproduced, detail).
        """
        cdir = os.path.join(self.workdir, "probe-cache")
        base = ["clique", "--field", "13", "--poly", "x1*x2+1", "--cache-dir", cdir]
        self.run_cli(base + ["--budget-tuples", "3"])
        _dt, code, out, _err = self.run_cli(base)
        got = json.loads(out) if code == 0 else {}
        want = FIXTURES["omega"][(2, 13, "prod")]
        reproduced = (got.get("omega"), got.get("exact")) != (want, True)
        detail = "default-budget replay gave omega=%s exact=%s; exact answer omega=%d" % (
            got.get("omega"), got.get("exact"), want)
        return reproduced, detail
