import json
import os

import pytest

from ffhyper.cli import main


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


def test_budget_exit_code(capsys):
    code, out, err = run(
        ["epo", "--field", "13", "--poly", "x1*x2+1", "--budget-tuples", "10"],
        capsys)
    assert code == 3 and "budget" in err


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


def test_scan_marks_inadmissible_rows(capsys):
    code, out, _ = run(
        ["scan", "--field", "5", "--samples", "6", "--seed", "1"], capsys)
    assert code == 0
    rows = [r for r in out.splitlines() if r and not r.startswith("#")][1:]
    flagged = [r for r in rows if r.endswith(",,,")]
    assert flagged, "expected at least one non-admissible sample"
    for r in flagged:
        assert r.split(",")[3] in ("FailsPrimitive", "FailsSquareCondition")
