import argparse
import json
import os

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from ffhyper.cli import build_parser, main


def run(args, capsys):
    code = main(args)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_admissible_json(capsys):
    code, out, err = run(
        ["admissible", "--field", "7", "--poly", "x1*x2*x3+1"], capsys)
    assert code == 0 and err == ""
    d = json.loads(out)
    assert d["status"] == "Admissible"
    assert d["k"] == 3 and d["degree"] == 3


def test_admissible_reports_a_witness(capsys):
    code, out, _ = run(
        ["admissible", "--field", "5", "--poly", "x1*x2+x1*x3+x2*x3"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "FailsPrimitive"
    assert d["witness"] == {"ext_degree": 1, "point": [0, 0]}


def test_epo_both_methods_agree(capsys):
    code, out, _ = run(
        ["epo", "--field", "13", "--poly", "x1*x2+1", "--method", "both"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["direct"]["observed"] == "7928"
    assert d["agreement"]["pass"] is True


def test_epo_both_methods_run_past_the_dense_lattice_limit(capsys):
    # q^4 = 260 M cells would exceed the default tuple budget; the fold
    # needs q^3 = 2 M
    code, out, _ = run(
        ["epo", "--field", "127", "--poly", "x1*x2+1", "--method", "both"], capsys)
    assert code == 0
    assert json.loads(out)["agreement"]["pass"] is True


def test_epo_csv_header(capsys):
    code, out, _ = run(
        ["epo", "--field", "13", "--poly", "x1*x2+1", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# ffhyper csv v1 epo"
    assert lines[1].startswith("q,k,d,method,observed")
    assert lines[2].split(",")[4] == "7928"


def test_tuples_inside_envelope(capsys):
    code, out, _ = run(
        ["tuples", "--field", "101", "--poly", "x1*x2+1", "--m", "3"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["observed"] == "22075"
    assert d["within_envelope"] is True


def test_clique_value(capsys):
    code, out, _ = run(["clique", "--field", "13", "--poly", "x1*x2+1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["exact"] is True and d["omega"] >= 2


def test_weil_holds(capsys):
    code, out, _ = run(["weil", "--field", "13", "--poly", "x1^2+1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["sum"] == -1 and d["holds"] is True and d["applicable"] is True


def test_weil_inapplicable_square_still_exits_zero(capsys):
    code, out, _ = run(
        ["weil", "--field", "13", "--poly", "x1^2+2*x1+1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["applicable"] is False


def test_xset_members(capsys):
    code, out, _ = run(["xset", "--field", "5", "--poly", "x1*x2+1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["members"] == [[0]]
    assert d["constant_members"] == [[0]]
    assert d["holds"] is True


def test_bset_members(capsys):
    code, out, _ = run(["bset", "--field", "5", "--poly", "x1*x2+1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["members"] == [[u, u] for u in range(5)]
    assert d["size"] == 5 and d["holds"] is True


def test_slavov_reports_condition(capsys):
    code, out, _ = run(["slavov", "--field", "13", "--poly", "x1;x1+1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["notes"]["condition_ok"] is True


def test_slavov_failing_family_exits_one(capsys):
    code, out, _ = run(["slavov", "--field", "13", "--poly", "x1;4*x1"], capsys)
    assert code == 1
    d = json.loads(out)
    assert d["notes"]["condition_failing_subsets"] == [[1, 2]]


def test_verify_single_suite(capsys):
    code, out, _ = run(["verify", "--only", "density"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert [s["name"] for s in d["suites"]] == ["density"]
    assert all(r["pass"] for s in d["suites"] for r in s["records"])


def test_extension_field_spec(capsys):
    code, out, _ = run(["epo", "--field", "3^2", "--poly", "x1*x2+1"], capsys)
    assert code == 0
    assert json.loads(out)["field"].startswith("3^2")


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_missing_field_is_a_usage_error(capsys):
    code, out, err = run(["epo", "--poly", "x1*x2+1"], capsys)
    assert code == 2 and "field" in err


def test_bad_poly_is_a_usage_error(capsys):
    code, out, err = run(["epo", "--field", "13", "--poly", "x1**2"], capsys)
    assert code == 2 and err.startswith("ffhyper:")


def test_even_characteristic_is_rejected(capsys):
    code, out, err = run(["epo", "--field", "4", "--poly", "x1*x2+1"], capsys)
    assert code == 2


@pytest.mark.parametrize("method", ["direct", "charsum"])
def test_budget_exit_code(method, capsys):
    code, out, err = run(
        ["epo", "--field", "13", "--poly", "x1*x2+1", "--budget-tuples", "10",
         "--method", method], capsys)
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("command", [["epo"], ["tuples", "--m", "3"], ["clique"]])
def test_paley_honours_the_memory_budget(command, capsys):
    args = command + ["--field", "9", "--budget-mem", "1"]
    assert run(args + ["--poly", "x1+x2"], capsys)[0] == 3
    code, out, err = run(args + ["--paley"], capsys)
    assert (code, out) == (3, "") and "exceeds the memory budget" in err


def test_verify_without_a_matching_check_is_a_usage_error(capsys):
    code, out, err = run(["verify", "--only", "nomatch"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("ffhyper: no check matches")


@pytest.mark.parametrize("field,poly,m", [("13", "x1^10*x2^10+1", "12"),
                                          ("5", "x1*x2+1", "100")])
def test_tuples_past_the_float_range_exit_zero(field, poly, m, capsys):
    code, out, err = run(["tuples", "--field", field, "--poly", poly, "--m", m], capsys)
    d = json.loads(out)
    assert code == 0 and err == ""
    assert d["envelope"] == "inf" and d["within_envelope"] is True


@pytest.mark.parametrize("args", [
    ["clique", "--field", "5", "--poly", "x1*x2+1", "--method", "both"],
    ["clique", "--field", "5", "--poly", "x1*x2+1", "--seed", "4"],
    ["admissible", "--field", "5", "--poly", "x1*x2+1", "--format", "csv"],
    ["verify", "--field", "5"],
    ["weil", "--field", "13", "--poly", "x1^2+1", "--k", "1"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def subcommand_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: sorted({o for a in sp._actions for o in a.option_strings} - {"-h", "--help"})
            for name, sp in sub.choices.items()}


def test_each_subcommand_declares_only_the_flags_it_reads():
    flags = subcommand_flags()
    assert sum(map(len, flags.values())) == 71
    assert all({"--out", "--cache-dir"} <= set(f) for f in flags.values())
    assert flags["verify"] == ["--cache-dir", "--only", "--out", "--workers"]
    assert [n for n, f in flags.items() if "--format" in f] == ["epo", "tuples", "scan"]


def test_unknown_subcommand_raises_argparse_exit(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--field", "5"])


# ---------------------------------------------------------------------------
# Output files and the result cache
# ---------------------------------------------------------------------------

def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "epo.json"
    code, out, _ = run(
        ["epo", "--field", "13", "--poly", "x1*x2+1", "--out", str(target)],
        capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["direct"]["observed"] == "7928"


def test_cache_replays_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["epo", "--field", "13", "--poly", "x1*x2+1",
            "--cache-dir", str(cache)]
    code1, out1, _ = run(args, capsys)
    assert code1 == 0
    assert any(cache.iterdir())
    code2, out2, _ = run(args, capsys)
    assert (code1, out1) == (code2, out2)


def test_cache_key_sees_through_poly_spelling(tmp_path, capsys):
    cache = tmp_path / "cache"
    code1, out1, _ = run(
        ["epo", "--field", "13", "--poly", "x1*x2+1",
         "--cache-dir", str(cache)], capsys)
    entries = sorted(p.name for p in cache.iterdir())
    code2, out2, _ = run(
        ["epo", "--field", "13", "--poly", "1+x2*x1",
         "--cache-dir", str(cache)], capsys)
    assert out1 == out2
    assert sorted(p.name for p in cache.iterdir()) == entries


def test_clique_cache_key_includes_the_node_budget(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    args = ["clique", "--field", "13", "--poly", "x1*x2+1"]
    code, out, _ = run(args + ["--budget-tuples", "3"] + cache, capsys)
    assert code == 0 and json.loads(out)["exact"] is False
    code, out, _ = run(args + cache, capsys)
    d = json.loads(out)
    assert code == 0 and (d["omega"], d["exact"]) == (5, True)


def _corrupt_then_rerun(tmp_path, capsys, damage):
    cache = tmp_path / "cache"
    args = ["epo", "--field", "13", "--poly", "x1*x2+1", "--cache-dir", str(cache)]
    first = run(args, capsys)
    (entry,) = cache.iterdir()
    damage(entry)
    assert run(args, capsys) == first
    assert json.loads(entry.read_text())["output"] == first[1]


def test_truncated_cache_entry_is_a_miss_and_is_rewritten(tmp_path, capsys):
    _corrupt_then_rerun(tmp_path, capsys,
                        lambda p: p.write_text(p.read_text()[:20]))


def test_cache_entry_without_exit_is_a_miss_and_is_rewritten(tmp_path, capsys):
    def drop_exit(p):
        entry = json.loads(p.read_text())
        del entry["exit"]
        p.write_text(json.dumps(entry))
    _corrupt_then_rerun(tmp_path, capsys, drop_exit)


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FFHYPER_CACHE_DIR", str(tmp_path / "envcache"))
    code, out, _ = run(["epo", "--field", "13", "--poly", "x1*x2+1"], capsys)
    assert code == 0
    assert any((tmp_path / "envcache").iterdir())


def test_worker_flag_does_not_change_output(capsys):
    base = run(["epo", "--field", "13", "--poly", "x1*x2+1"], capsys)
    for w in ("2", "8"):
        got = run(["epo", "--field", "13", "--poly", "x1*x2+1",
                   "--workers", w], capsys)
        assert got == base


# ---------------------------------------------------------------------------
# Deterministic scans
# ---------------------------------------------------------------------------

def test_scan_is_deterministic(capsys):
    args = ["scan", "--field", "5,7,9", "--samples", "4", "--seed", "3"]
    first = run(args, capsys)
    second = run(args, capsys)
    assert first == second
    assert first[1].splitlines()[0].startswith("# ffhyper csv v1 scan")


def test_scan_workers_agree(capsys):
    base = run(["scan", "--field", "5,7", "--samples", "4", "--seed", "0"],
               capsys)
    for w in ("2", "8"):
        got = run(["scan", "--field", "5,7", "--samples", "4", "--seed", "0",
                   "--workers", w], capsys)
        assert got == base


def test_scan_json_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["scan", "--field", "5", "--samples", "1", "--cache-dir", str(cache)]
    assert run(args + ["--format", "json"], capsys) == (2, "", "ffhyper: scan writes CSV only\n")
    assert not cache.exists()
    default = run(args, capsys)
    assert run(args + ["--format", "csv"], capsys) == default and default[0] == 0
    assert [p.name for p in cache.iterdir()] == [
        "2fa263b50212734d57ed7f0cc0d1ce41f7031cecec91b2dad469b2d7108076b4.json"]


def test_scan_marks_inadmissible_rows(capsys):
    code, out, _ = run(
        ["scan", "--field", "5", "--samples", "6", "--seed", "1"], capsys)
    assert code == 0
    rows = [r for r in out.splitlines() if r and not r.startswith("#")][1:]
    flagged = [r for r in rows if r.endswith(",,,")]
    assert flagged, "expected at least one non-admissible sample"
    for r in flagged:
        assert r.split(",")[3] in ("FailsPrimitive", "FailsSquareCondition")


# ---------------------------------------------------------------------------
# Imports: a cache replay loads no numpy and no counting or algebra module
# ---------------------------------------------------------------------------

# runs the CLI, then writes the loaded numpy, dataclasses and ffhyper modules to the last
# stderr line
CHILD = """import json, sys
from ffhyper.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m in ("numpy", "dataclasses") or m.startswith("ffhyper"))),
      file=sys.stderr)
sys.exit(code)
"""


def loaded_modules(child):
    return set(json.loads(child.stderr.splitlines()[-1]))


def test_a_cache_replay_loads_no_numpy_and_no_kernels(tmp_path, python_child):
    args = ["epo", "--field", "61", "--poly", "x1*x2+1", "--cache-dir", str(tmp_path / "cache")]
    miss = python_child(CHILD, *args)
    replay = python_child(CHILD, *args)
    assert (miss.returncode, replay.returncode) == (0, 0)
    assert replay.stdout == miss.stdout
    assert "numpy" in loaded_modules(miss)
    assert not loaded_modules(replay) & {"numpy", "ffhyper.verify", "ffhyper.bounds",
                                         "ffhyper.admissible", "ffhyper.groebner",
                                         "ffhyper.report", "dataclasses"}


def test_a_cold_threaded_scan_matches_one_worker(tmp_path, python_child):
    # with two workers, numpy is first imported inside the worker threads
    args = ["scan", "--field", "5,7,9", "--samples", "5"]
    one = python_child(CHILD, *args, "--workers", "1", "--cache-dir", str(tmp_path / "c1"))
    two = python_child(CHILD, *args, "--workers", "2", "--cache-dir", str(tmp_path / "c2"))
    assert (one.returncode, two.returncode) == (0, 0)
    assert two.stdout == one.stdout
    assert "numpy" in loaded_modules(two)


# ---------------------------------------------------------------------------
# Fuzz: any subcommand with any flags ends in a documented exit code
# ---------------------------------------------------------------------------

POLYS = ["x1*x2+1", "x1+x2", "x1*x2*x3+1", "x1^2+x2^2+x3^2", "x1^2+1", "x1;x1+1",
         "x1;4*x1", "x1*x2", "x1**2", "x1*(x2", "x0+1", "", ";", "y1+1"]
SMALL = st.integers(-1, 4).map(str)
FUZZ_FLAGS = {
    "--field": st.sampled_from(["3", "5", "7", "9", "4", "3^2", "x", ""]),
    "--poly": st.sampled_from(POLYS),
    "--k": SMALL,
    "--m": SMALL,
    "--s": SMALL,
    # scan with k = 4 and d = 4 runs the admissibility test for minutes (its
    # witness search has no budget yet), so d stays below 3
    "--d": st.integers(-1, 2).map(str),
    "--seed": st.integers(-1, 3).map(str),
    "--samples": st.integers(-1, 3).map(str),
    "--workers": st.integers(-1, 2).map(str),
    "--budget-tuples": st.integers(-1, 50).map(str),
    "--budget-mem": st.integers(-1, 50).map(str),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--method": st.sampled_from(["direct", "charsum", "both", "naive"]),
    "--paley": st.none(),
    "--only": st.sampled_from(["nomatch", "density"]),
    "--out": st.just("OUT"),
    "--cache-dir": st.just("CACHE"),
}


FLAGS_OF = subcommand_flags()
ODDS = {"--field": 9, "--poly": 9, "--only": 10}  # in ten


@st.composite
def invocations(draw):
    """A subcommand with most of its own flags, and sometimes one more of all 17."""
    name = draw(st.sampled_from(sorted(FLAGS_OF)))
    # the field and the polynomial gate the rest, so draw them more often;
    # verify always gets --only, since a run of all its suites takes a second
    flags = [f for f in FLAGS_OF[name] if draw(st.integers(0, 9)) < ODDS.get(f, 5)]
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_FLAGS))))
    args = [name]
    for flag in flags:
        args.append(flag)
        value = draw(FUZZ_FLAGS[flag])
        if value is not None:
            args.append(value)
    return args


@settings(deadline=None, derandomize=True, database=None, max_examples=200,
          phases=(Phase.explicit, Phase.generate),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(args=invocations())
def test_fuzzed_invocations_end_in_a_documented_exit(args, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FFHYPER_CACHE_DIR", raising=False)
    paths = {"OUT": str(tmp_path / "out.txt"), "CACHE": str(tmp_path / "cache")}
    args = [paths.get(a, a) for a in args]
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
        assert code == 2
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
