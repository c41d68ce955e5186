"""Batch front end: parse inputs, run commands, cache byte-identical output.

Exit codes: 0 success, 1 check failure, 2 usage or parse error,
3 budget exceeded.  With a cache directory configured (flag or the
FFHYPER_CACHE_DIR environment variable), a repeated invocation with
the same canonical inputs replays the stored bytes exactly.

A replay parses the field and the polynomial, hashes the canonical
inputs and reads one file: it imports neither numpy nor the admissible,
groebner, bounds and verify modules, and runs no counting kernel.  Each
handler imports those inside the compute step that uses them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .errors import BudgetExceeded, FFHyperError, ParseError
from .field import Field
from .hypergraph import (
    DEFAULT_MEM_BUDGET,
    DEFAULT_TUPLE_BUDGET,
    build_hypergraph,
    count_epo_charsum,
    count_epo_direct,
    count_m_subsets,
    omega_clique,
    paley,
)
from .parse import parse_poly, poly_to_text
from .poly import UniPoly

CSV_VERSION = 1


def _frac_str(fr):
    fr = Fraction(fr)
    return "%d/%d" % (fr.numerator, fr.denominator)


def _infer_nvars(text):
    return max((int(m) for m in re.findall(r"x(\d+)", text)), default=0)


def _parse_field(spec):
    text = spec.strip()
    if text.isdigit():
        return Field.from_order(int(text))
    return Field.from_spec(text)


def _get_poly(args, F, nvars=None):
    if args.poly is None:
        raise ParseError("--poly is required for this command")
    if nvars is None:
        nvars = args.k or _infer_nvars(args.poly)
    if nvars < 1:
        raise ParseError("cannot infer the variable count; pass --k")
    return parse_poly(F, nvars, args.poly)


def _get_hypergraph(args, F):
    if args.paley:
        return paley(F, args.k or 2, mem_budget=args.budget_mem)
    return build_hypergraph(F, _get_poly(args, F), mem_budget=args.budget_mem)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(command, tag, header, rows):
    lines = ["# ffhyper csv v%d %s%s" % (CSV_VERSION, command, tag), ",".join(header)]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _maybe_cache(args, canon, compute):
    cdir = getattr(args, "cache_dir", None) or os.environ.get("FFHYPER_CACHE_DIR")
    if not cdir:
        return compute()
    canon = dict(canon, version=__version__, format=getattr(args, "format", "json"))
    key = hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()
    path = os.path.join(cdir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        return entry["exit"], entry["output"]
    except (FileNotFoundError, ValueError, TypeError, KeyError):
        pass  # a missing or undecodable entry is a miss and is rewritten below
    code, text = compute()
    os.makedirs(cdir, exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"version": __version__, "exit": code, "output": text}, fh)
    os.replace(tmp, path)
    return code, text


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (exit_code, output_text).  A handler's
# canon dict is both its cache key and the head of its JSON output.
# ---------------------------------------------------------------------------

def _head(args, F, **inputs):
    return {"command": args.command, "field": F.spec_string(), **inputs}


def cmd_admissible(args):
    F = _parse_field(args.field)
    f = _get_poly(args, F)
    canon = _head(args, F, poly=poly_to_text(f))

    def compute():
        from .admissible import is_admissible
        return 0, _json_text({**canon, **is_admissible(f).to_json()})

    return _maybe_cache(args, canon, compute)


def cmd_epo(args):
    F = _parse_field(args.field)
    Y = _get_hypergraph(args, F)
    canon = _head(args, F, poly=poly_to_text(Y.poly), method=args.method)

    def compute():
        q, k, d = F.q, Y.k, Y.poly.total_degree
        code = 0
        out = {**canon, "k": k, "d": d}
        rows = []
        if args.method in ("direct", "both"):
            direct = count_epo_direct(Y, workers=args.workers, budget=args.budget_tuples)
            out["direct"] = direct.to_json()
            rows.append([q, k, d, "direct", direct.observed,
                         _frac_str(direct.predicted_main), _frac_str(direct.deviation),
                         repr(direct.relative_deviation)])
        if args.method in ("charsum", "both"):
            charsum = count_epo_charsum(Y, workers=args.workers,
                                        budget=args.budget_tuples)
            out["charsum"] = {
                "S": str(2 * charsum.deviation),
                "estimate": _frac_str(charsum.observed),
                "predicted_main": _frac_str(charsum.predicted_main),
                "deviation": _frac_str(charsum.deviation),
            }
            rows.append([q, k, d, "charsum", _frac_str(charsum.observed),
                         _frac_str(charsum.predicted_main),
                         _frac_str(charsum.deviation), repr(charsum.relative_deviation)])
        if args.method == "both":
            diff = abs(direct.observed - charsum.observed)
            bound = (8 if k == 2 else 40) * q ** (2 * k - 1) if k in (2, 3) else None
            agree = bound is None or diff <= bound
            out["agreement"] = {"difference": _frac_str(diff),
                                "bound": bound, "pass": agree}
            if not agree:
                code = 1
        if args.format == "csv":
            header = ("q", "k", "d", "method", "observed", "predicted",
                      "deviation", "relative_deviation")
            return code, _csv_text("epo", "", header, rows)
        return code, _json_text(out)

    return _maybe_cache(args, canon, compute)


def cmd_tuples(args):
    F = _parse_field(args.field)
    Y = _get_hypergraph(args, F)
    if args.m is None or args.m < Y.k:
        raise ParseError("--m must be provided and at least the uniformity k")
    canon = _head(args, F, poly=poly_to_text(Y.poly), m=args.m)

    def compute():
        rep = count_m_subsets(Y, args.m, workers=args.workers,
                              budget=args.budget_tuples)
        code = 0 if rep.within_envelope else 1
        if args.format == "csv":
            header = ("q", "k", "d", "m", "observed", "predicted", "deviation",
                      "relative_deviation", "envelope", "within_envelope")
            row = [F.q, Y.k, Y.poly.total_degree, args.m, rep.observed,
                   _frac_str(rep.predicted_main), _frac_str(rep.deviation),
                   repr(rep.relative_deviation), repr(rep.envelope),
                   rep.within_envelope]
            return code, _csv_text("tuples", "", header, [row])
        return code, _json_text({**canon, "k": Y.k, **rep.to_json()})

    return _maybe_cache(args, canon, compute)


def cmd_clique(args):
    F = _parse_field(args.field)
    Y = _get_hypergraph(args, F)
    head = _head(args, F, poly=poly_to_text(Y.poly))

    def compute():
        omega, exact = omega_clique(Y, node_budget=args.budget_tuples)
        return 0, _json_text({**head, "k": Y.k, "omega": omega, "exact": exact})

    # the node budget can change the result, so it keys the cache; it is not printed
    return _maybe_cache(args, {**head, "node_budget": args.budget_tuples}, compute)


def cmd_weil(args):
    F = _parse_field(args.field)
    g = UniPoly.from_multi(_get_poly(args, F, nvars=1))
    canon = _head(args, F, poly=poly_to_text(g.to_multi()),
                  a=args.s if args.s is not None else 1)

    def compute():
        from .bounds import weil_check
        w = weil_check(F, g, canon["a"])
        code = 1 if w.applicable and not w.holds else 0
        return code, _json_text({**canon, **w.to_json()})

    return _maybe_cache(args, canon, compute)


def cmd_xset(args):
    F = _parse_field(args.field)
    f = _get_poly(args, F)
    canon = _head(args, F, poly=poly_to_text(f))

    def compute():
        from .bounds import enumerate_X
        X = enumerate_X(F, f)
        out = {**canon, **X.to_json(),
               "members": [list(u) for u in X.members],
               "constant_members": [list(u) for u in X.constant_members]}
        return (0 if X.holds else 1), _json_text(out)

    return _maybe_cache(args, canon, compute)


def cmd_bset(args):
    F = _parse_field(args.field)
    f = _get_poly(args, F)
    canon = _head(args, F, poly=poly_to_text(f))

    def compute():
        from .bounds import b_set_bound, enumerate_B
        B = enumerate_B(F, f, budget=args.budget_tuples)
        bound = b_set_bound(F.q, f.nvars, f.total_degree)
        out = {**canon, "k": f.nvars, "d": f.total_degree, "size": len(B),
               "empirical_bound": bound, "holds": len(B) <= bound,
               "members": [list(t) for t in sorted(B)]}
        return (0 if len(B) <= bound else 1), _json_text(out)

    return _maybe_cache(args, canon, compute)


def cmd_slavov(args):
    F = _parse_field(args.field)
    if args.poly is None:
        raise ParseError("--poly is required: a ';'-separated family")
    texts = [t.strip() for t in args.poly.split(";") if t.strip()]
    if not texts:
        raise ParseError("empty polynomial family")
    m = args.m or max(_infer_nvars(t) for t in texts)
    if m < 1:
        raise ParseError("cannot infer the variable count; pass --m")
    family = [parse_poly(F, m, t) for t in texts]
    canon = _head(args, F, m=m, family=[poly_to_text(g) for g in family])

    def compute():
        from .bounds import slavov_count
        rep = slavov_count(F, family, check_condition=True, budget=args.budget_tuples)
        code = 0 if rep.notes["condition_ok"] else 1
        return code, _json_text({**canon, **rep.to_json()})

    return _maybe_cache(args, canon, compute)


# ---------------------------------------------------------------------------
# Scan: a seeded sweep over (q, random symmetric f) emitting CSV rows.
# ---------------------------------------------------------------------------

def _row_seed(seed, q, i):
    return (seed * 1000003 + q) * 1000003 + i


def _scan_row(job):
    from .admissible import is_admissible, random_symmetric_poly
    q, i, k, d, m, seed = job
    F = Field.from_order(q)
    f = random_symmetric_poly(F, k, d, seed=_row_seed(seed, q, i))
    verdict = is_admissible(f)
    cells = [str(q), str(i), poly_to_text(f), verdict.status]
    if verdict.admissible:
        Y = build_hypergraph(F, f)
        epo = count_epo_direct(Y)
        tup = count_m_subsets(Y, m, with_envelope=False)
        cells += [str(epo.observed), repr(epo.relative_deviation),
                  str(tup.observed), repr(tup.relative_deviation)]
    else:
        cells += ["", "", "", ""]
    return ",".join(cells)


def scan_text(fields, samples, k, d, m, seed, workers):
    """Deterministic CSV sweep; byte-identical across worker counts."""
    jobs = [(q, i, k, d, m, seed) for q in fields for i in range(samples)]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_scan_row, jobs))
    else:
        rows = [_scan_row(j) for j in jobs]
    header = ("q,index,poly,status,epo_observed,epo_rel_dev,"
              "tuples_observed,tuples_rel_dev")
    tag = " seed=%d k=%d d=%d m=%d" % (seed, k, d, m)
    return _csv_text("scan", tag, header.split(","), [r.split(",") for r in rows])


def cmd_scan(args):
    try:
        fields = tuple(int(t) for t in args.field.split(",") if t.strip())
    except ValueError:
        raise ParseError("--field for scan must be a comma-separated integer list")
    if not fields:
        raise ParseError("empty field list")
    if args.format == "json":
        raise ParseError("scan writes CSV only")
    k = args.k or 2
    d = args.d or 2
    m = args.m or max(3, k)
    if m < k:
        raise ParseError("--m must be at least k")
    canon = {"command": "scan", "fields": list(fields), "samples": args.samples,
             "k": k, "d": d, "m": m, "seed": args.seed}

    def compute():
        return 0, scan_text(fields, args.samples, k, d, m, args.seed, args.workers)

    return _maybe_cache(args, canon, compute)


def cmd_verify(args):
    from .verify import run_checks
    report = run_checks(only=args.only, workers=args.workers)
    return (0 if report["passed"] else 1), _json_text(report)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.  Each flag is declared once in FLAGS; each
# subcommand takes the flags its handler reads, plus --out and --cache-dir
# (a no-op for verify, which is never cached).  Any other flag exits 2.
# ---------------------------------------------------------------------------

FLAGS = {
    "field": dict(help="field size q or p^n spec; for scan a comma-separated q list"),
    "poly": dict(help="polynomial text in x1..xk; for slavov a ';'-separated family"),
    "k": dict(type=int, help="uniformity / variable count"),
    "m": dict(type=int, help="tuple or family arity"),
    "s": dict(type=int, help="scalar multiplier"),
    "d": dict(type=int, help="polynomial degree"),
    "seed": dict(type=int, default=0),
    "samples": dict(type=int, default=50, help="random polynomials per field"),
    "workers": dict(type=int, default=1),
    "budget-tuples": dict(type=int, default=DEFAULT_TUPLE_BUDGET),
    "budget-mem": dict(type=int, default=DEFAULT_MEM_BUDGET),
    "method": dict(choices=("direct", "charsum", "both"), default="direct"),
    "paley": dict(action="store_true", help="use the sum polynomial x1+...+xk"),
    "only": dict(help="run only the checks whose name contains this text"),
    "format": dict(choices=("json", "csv"), default="json"),
    "out": dict(help="write output to a file instead of stdout"),
    "cache-dir": dict(help="result cache directory"),
}

GRAPH = "field poly k paley budget-tuples budget-mem"
COMMANDS = {
    "admissible": (cmd_admissible, "field poly k"),
    "epo": (cmd_epo, GRAPH + " method workers format"),
    "tuples": (cmd_tuples, GRAPH + " m workers format"),
    "clique": (cmd_clique, GRAPH),
    "weil": (cmd_weil, "field poly s"),
    "xset": (cmd_xset, "field poly k"),
    "bset": (cmd_bset, "field poly k budget-tuples"),
    "slavov": (cmd_slavov, "field poly m budget-tuples"),
    "scan": (cmd_scan, "field k d m seed samples workers format"),
    "verify": (cmd_verify, "only workers"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ffhyper",
        description="Hypergraphs from symmetric polynomials over odd finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags.split() + ["out", "cache-dir"]:
            sp.add_argument("--" + flag, **FLAGS[flag])
    sub.choices["scan"].set_defaults(format="csv")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command != "verify" and args.field is None:
            raise ParseError("--field is required")
        code, text = COMMANDS[args.command][0](args)
    except ParseError as exc:
        print("ffhyper: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print("ffhyper: budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (FFHyperError, ValueError) as exc:
        print("ffhyper: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
