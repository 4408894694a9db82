"""Command line behavior: dispatch, artifacts, manifests, exit codes."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cyclepoisson.cli import main
from cyclepoisson.errprob import ErrProbQuery, expected_block_error
from cyclepoisson.simulator import exhaustive_block_error
from cyclepoisson.table import EnsembleParams, fill_table, load_table, save_table


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------
# dispatch and exit codes
# ----------------------------------------------------------------------


def test_classify_spot_value(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "pde", "classify", "--y", "2", "--z", "1")
    assert rc == 0
    assert out.splitlines()[0] == "hyperbolic 5"


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["definitely-not-a-group"]) == 1
    assert main(["pde", "classify", "--y", "oops", "--z", "1"]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["table", "--help"]) == 0
    capsys.readouterr()


def test_validation_errors_exit_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "--out", str(tmp_path), "table", "build", "--m", "5")
    assert rc == 2
    assert "needs --m and --vmax" in err
    # analytic evaluation rejects eps = 1
    rc, _, err = run_cli(
        capsys, "--out", str(tmp_path),
        "errprob", "eval", "--n", "4", "--r", "1/2", "--eps", "1",
    )
    assert rc == 2


def test_io_errors_exit_3(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "--out", str(tmp_path), "table", "verify", "--file", str(tmp_path / "absent.cpt")
    )
    assert rc == 3
    assert "io error" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclepoisson.cli", "--out", str(tmp_path),
         "pde", "classify", "--y", "3", "--z", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "elliptic -63/4"


# ----------------------------------------------------------------------
# table subcommands
# ----------------------------------------------------------------------


def test_verify_flags_corruption(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(capsys, "--out", out, "table", "build", "--m", "3", "--vmax", "3", "--out", "t.cpt")
    path = tmp_path / "t.cpt"
    rc, outtext, _ = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
    assert rc == 0
    assert "ok:" in outtext
    table = load_table(path)
    # an edited row no longer matches the trailer's sha256, so the load fails
    path.write_bytes(path.read_bytes().replace(b"1 1 0 3/2", b"1 1 0 5/2"))
    rc, _, err = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
    assert rc == 2
    assert "sha256" in err
    # a wrong value saved with a valid trailer loads and fails the recheck
    table.entries[(1, 1, 0)] = Fraction(5, 2)
    save_table(table, path)
    rc, outtext, _ = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
    assert rc == 2
    assert "FAIL" in outtext


def test_verify_rejects_unloadable_files(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(capsys, "--out", out, "table", "build", "--m", "3", "--vmax", "3", "--out", "t.cpt")
    blob = (tmp_path / "t.cpt").read_bytes()
    body = blob[: blob.rindex(b"end sha256=")].replace(b"1 1 0 3/2", b"1 1 0 3/\xff")
    foo = blob[: blob.rindex(b"end sha256=")].replace(b"base=unit-origin", b"base=foo")
    signed_foo = foo + b"end sha256=%s\n" % hashlib.sha256(foo).hexdigest().encode()
    cases = {
        "v1.cpt": b"CPTABLE 1\nm=3 vmax=3 base=unit-origin\n0 0 0 1/1\n",
        "cut.cpt": blob[:-40],
        # re-signed, so strict ASCII decoding is what rejects it
        "ff.cpt": body + b"end sha256=%s\n" % hashlib.sha256(body).hexdigest().encode(),
        "base.cpt": signed_foo,
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        rc, outtext, err = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
        assert rc == 2, name
        assert err.startswith("error: line "), name
        assert "Traceback" not in err
        assert outtext == ""
        if name == "v1.cpt":
            assert "cyclepoisson table build --m 3 --vmax 3 --base unit-origin" in err
        if name == "ff.cpt":
            assert "non-ASCII" in err
        if name == "base.cpt":
            assert err.startswith("error: line 2: unknown base 'foo'")


def test_exponents_profiles_and_gaps(tmp_path, capsys):
    out = str(tmp_path)
    rc, outtext, _ = run_cli(
        capsys, "--out", out, "table", "exponents", "--m", "4", "--vmax", "4", "--t-list", "1,2"
    )
    assert rc == 0
    t1 = (tmp_path / "g_t1_m4.csv").read_text().splitlines()
    assert t1[0] == "v,g"
    v, g = t1[1].split(",")
    assert v == "1"
    assert abs(float(g) - math.log10(0.5)) < 1e-12
    t2 = (tmp_path / "g_t2_m4.csv").read_text().splitlines()
    assert t2[1] == "# v=1 gap zero-coefficient"
    assert t2[2].startswith("2,")
    plot = (tmp_path / "plot_exponents.gnuplot").read_text()
    assert "g_t1_m4.csv" in plot and "g_t2_m4.csv" in plot


def test_stopping_sets_count(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "stopping-sets", "count", "--m", "3", "--v", "2", "--t", "2"
    )
    assert rc == 0
    assert out.splitlines()[0] == "18"


# ----------------------------------------------------------------------
# pde subcommands
# ----------------------------------------------------------------------


def test_region_csv_contains_parabolic_axis(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "pde", "region", "--grid", "5")
    assert rc == 0
    rows = (tmp_path / "region.csv").read_text().splitlines()
    assert rows[0] == "y,z,discriminant,label"
    assert "0,1,0,parabolic" in rows


def test_alpha_survey_lists_six_cases(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "pde", "alpha", "--survey")
    assert rc == 0
    for idx in range(6):
        assert "case=%d" % idx in out
    # the alpha=2 row has exact rational roots
    assert "1 (mult 1)" in out and "7/2 (mult 1)" in out


def test_residual_operators_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path)
    rc, text, _ = run_cli(capsys, "--out", out, "pde", "residual", "--m", "3", "--operator", "both")
    assert rc == 0
    assert "operator=recurrence" in text and "PASS" in text
    doc = json.loads((tmp_path / "residual_reconciliation_m3.json").read_text())
    assert doc["recurrence"]["pass"] is True
    assert doc["printed"]["pass"] is False
    rc, _, _ = run_cli(capsys, "--out", out, "pde", "residual", "--m", "3", "--operator", "recurrence")
    assert rc == 0
    rc, _, _ = run_cli(capsys, "--out", out, "pde", "residual", "--m", "3", "--operator", "printed")
    assert rc == 2


def test_expansion_audit_report(tmp_path, capsys):
    out = str(tmp_path)
    rc, text, _ = run_cli(
        capsys, "--out", out, "pde", "verify-paper-expansion", "--points", "40", "--seed", "5"
    )
    assert rc == 0
    assert "do NOT reproduce" in text
    first = (tmp_path / "expansion_audit.csv").read_bytes()
    rows = first.decode().splitlines()
    assert rows[0] == "kind,a,b,exact,printed,equal"
    assert len(rows) == 81  # header + 40 expansion + 40 alpha-form rows
    # deterministic: same seed reproduces the same bytes
    run_cli(capsys, "--out", out, "pde", "verify-paper-expansion", "--points", "40", "--seed", "5")
    assert (tmp_path / "expansion_audit.csv").read_bytes() == first


# ----------------------------------------------------------------------
# errprob subcommands
# ----------------------------------------------------------------------


def test_eval_matches_library(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "errprob", "eval", "--n", "6", "--r", "1/2", "--eps", "1/10", "--breakdown",
    )
    assert rc == 0
    params = EnsembleParams(n=6, r=Fraction(1, 2))
    table = fill_table(params, 6)
    expect = expected_block_error(ErrProbQuery(params=params, epsilon=Fraction(1, 10), table=table))
    assert ("E_B = %s" % expect.value) in out
    assert "v=6 term=" in out


def test_sweep_csv_format(tmp_path, capsys):
    rc, _, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "errprob", "sweep", "--n", "4", "--r", "1/2", "--eps-list", "1/20,1/10",
    )
    assert rc == 0
    rows = (tmp_path / "errprob_sweep.csv").read_text().splitlines()
    assert rows[0] == "epsilon,value,float_value"
    assert len(rows) == 3
    eps, value, floatval = rows[1].split(",")
    assert eps == "1/20"
    num, den = value.split("/")
    assert abs(float(floatval) - int(num) / int(den)) < 1e-15


def test_hadamard_split_csv(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "errprob", "hadamard-split", "--n", "12", "--r", "3/4",
        "--t", "1", "--s", "0", "--x-list", "1/2,2",
    )
    assert rc == 0
    rows = (tmp_path / "hadamard_split.csv").read_text().splitlines()
    assert rows[0] == "t,s,series_id,v_window,root_test_estimate,verdict"
    assert len(rows) == 4
    assert "x=1/2 -> bounded" in out
    assert "x=2 -> divergent" in out


def test_hadamard_check_passes(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "errprob", "hadamard-check")
    assert rc == 0
    assert "nodes" in out


def test_known_series_output(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "errprob", "known-series", "--n", "8", "--x", "1/2"
    )
    assert rc == 0
    assert "diverges: True" in out
    assert "polynomial identities" in out


# ----------------------------------------------------------------------
# simulate / reconcile
# ----------------------------------------------------------------------


def test_simulate_json_contains_oracle(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "simulate", "--n", "3", "--r", "0", "--eps", "1",
        "--trials", "5000", "--seed", "7", "--json", "sim.json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["format"] == "cpsim/1"
    assert doc["rng"] == "splitmix64-ctr/v1"
    assert doc["epsilon"] == "1/1"
    exact = float(exhaustive_block_error(EnsembleParams(n=3, r=Fraction(0)), 1))
    assert doc["ci95"][0] <= exact <= doc["ci95"][1]
    on_disk = json.loads((tmp_path / "sim.json").read_text())
    assert on_disk == doc


def test_simulate_threads_bit_identical(tmp_path, capsys):
    out = str(tmp_path)
    argv = ["simulate", "--n", "20", "--r", "1/2", "--eps", "1/5", "--trials", "3000", "--seed", "5"]
    run_cli(capsys, "--out", out, *argv, "--json", "a.json")
    run_cli(capsys, "--out", out, "--threads", "3", *argv, "--json", "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_reconcile_report(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "reconcile", "--n", "4", "--r", "1/2", "--eps-list", "1/20,1/10",
        "--trials", "4000", "--seed", "3",
    )
    assert rc == 0
    doc = json.loads((tmp_path / "reconcile.json").read_text())
    assert doc["format"] == "cpreconcile/1"
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert set(row) == {
            "epsilon", "analytic", "analytic_float", "mc_p_hat",
            "mc_ci95", "mc_failures", "verdict",
        }
        assert row["verdict"] in ("within-ci", "outside-ci")
    assert "the exact block-failure probability" in doc["note"]
    assert "the same probability" in doc["note"]
    assert "verdict" in out


# ----------------------------------------------------------------------
# manifest plumbing
# ----------------------------------------------------------------------


def test_manifest_records_args_seed_and_hashes(tmp_path, capsys):
    out = str(tmp_path)
    argv = ["--out", out, "simulate", "--n", "2", "--r", "0", "--eps", "1/2",
            "--trials", "100", "--seed", "99", "--json", "sim.json"]
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["cmd"] == "simulate"
    assert manifest["args"] == argv
    assert manifest["seed"] == 99
    digest = hashlib.sha256((tmp_path / "sim.json").read_bytes()).hexdigest()
    assert manifest["artifact_hashes"] == {"sim.json": digest}


def test_manifest_written_for_stdout_only_runs(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "pde", "classify", "--y", "0", "--z", "0")
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["cmd"] == "pde classify"
    assert manifest["artifact_hashes"] == {}
    assert manifest["seed"] is None


def test_out_env_var_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYCLEPOISSON_OUT", str(tmp_path))
    rc, _, _ = run_cli(capsys, "pde", "region", "--grid", "3")
    assert rc == 0
    assert (tmp_path / "region.csv").exists()
    assert (tmp_path / "manifest.json").exists()
