"""Command line behavior: dispatch, artifacts, manifests, exit codes."""

import argparse
import bisect
import contextlib
import decimal
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepoisson import cli
from cyclepoisson.cli import build_parser, main
from cyclepoisson.errors import TableFormatError
from cyclepoisson.errprob import ErrProbQuery, block_error_probability, expected_block_error
from cyclepoisson.simulator import exhaustive_block_error
from cyclepoisson.table import (
    EnsembleParams,
    fill_table,
    load_table,
    save_table,
    stopping_set_count,
    verify_table,
)


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
# one parser branch per run
# ----------------------------------------------------------------------


def _group_choices(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _branches(parser, path=()):
    """Every group and leaf of the parser tree, as argv prefixes."""
    for name, sub in _group_choices(parser).items():
        yield (*path, name)
        if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
            yield from _branches(sub, (*path, name))


_BRANCHES = list(_branches(build_parser()))


def _main_output(argv, capsys):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _assert_like_the_full_tree(argv, monkeypatch, capsys):
    """main's exit code, stdout and stderr on argv are the full tree's, and so
    is the namespace of an argv the full tree accepts."""
    named = _main_output(argv, capsys)
    with monkeypatch.context() as patch:
        # naming nothing sends every argv to the full tree
        patch.setattr(cli, "_named_branch", lambda argv: cli._Branch())
        full = _main_output(argv, capsys)
    assert named == full, argv
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(list(argv)))
    except SystemExit:
        return
    assert vars(cli._parse(list(argv))) == expected, argv


def _branch_argvs(branch, out):
    """Argv shapes around one branch: help, usage errors and accepted runs."""
    return [
        [*branch, "--help"],
        [*branch],
        [*branch, "--no-such-option"],
        ["--out", out, *branch, "--help"],
        ["--out=" + out, *branch, "--no-such-option", "1"],
        ["--out", out, "--out=" + out, *branch],
        ["--out=first", "--out", out, *branch],
        # a bad typed value (int, rational), a repeated option, an attached value
        [*branch, "--m", "x"],
        [*branch, "--r", "x"],
        [*branch, "--m", "3", "--m", "4"],
        [*branch, "--m=3"],
        # "--" before, after and instead of the options
        [*branch, "--", "--m", "3"],
        [*branch, "--m", "3", "--"],
        [*branch, "--"],
        # --help after an option, an abbreviation, a negative number
        [*branch, "--m", "3", "-h"],
        [*branch, "--tri", "5"],
        [*branch, "--m", "-3"],
        # an empty --out, an --out named like the group, an extra positional
        ["--out", "", *branch],
        ["--out=", *branch, "--help"],
        ["--out", branch[0], *branch, "--help"],
        [*branch, "extra"],
        # a token the root rejects as ambiguous (--help or --out), unless after "--"
        [*branch, "--=x"],
        [*branch, "--m", "3", "--=x"],
        [*branch, "--", "--=x"],
    ]


def test_branches_cover_every_group():
    # 7 top-level groups (simulate and reconcile are leaves) and 15 leaves under them
    assert len(_BRANCHES) == 22
    assert [b for b in _BRANCHES if len(b) == 1] == [(name,) for name in cli._GROUPS]


@pytest.mark.parametrize("branch", _BRANCHES, ids=" ".join)
def test_named_branch_parses_like_the_full_tree(branch, tmp_path, monkeypatch, capsys):
    # the same exit code, stdout, stderr and namespace as the full tree,
    # from the named leaf's parser alone (the full tree where no leaf is
    # named); accepted runs write into tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CYCLEPOISSON_OUT", raising=False)
    for argv in _branch_argvs(branch, str(tmp_path / "out")):
        _assert_like_the_full_tree(argv, monkeypatch, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h", "table"],
        ["tabel", "build"],
        ["--o", "DIR", "table", "build"],
        ["--out", "DIR"],
        ["--out", "-x", "table", "build"],
        ["--out=-x", "table", "build"],
        ["--out", "--help"],
        ["--", "table"],
        ["--out", "table"],
        ["--=x", "table", "build"],
    ],
)
def test_root_argvs_get_the_full_tree(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli._named_branch(argv) == cli._Branch()
    _assert_like_the_full_tree(argv, monkeypatch, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["table", "--help"],
        ["table", "buidl"],
        ["table", "-h", "build"],
        ["--out", "DIR", "table", "--no-such", "build"],
        ["table", "build", "--m", "3", "--=x"],
    ],
)
def test_group_argvs_get_the_group_branch(argv, tmp_path, monkeypatch, capsys):
    # no leaf right after the group, or a token only the root rejects: the
    # full tree, which lists or rejects the group's leaves
    monkeypatch.chdir(tmp_path)
    assert cli._named_branch(argv) == cli._Branch()
    _assert_like_the_full_tree(argv, monkeypatch, capsys)


def test_leaf_argvs_name_the_leaf_and_the_last_out():
    branch = cli._named_branch(["--out", "a", "--out=b", "table", "build", "--m", "3"])
    assert branch == cli._Branch("table", "build", cli._GROUPS["table"].leaves["build"], "b", ("--m", "3"))
    assert cli._named_branch(["simulate", "--n", "3"]) == cli._Branch(
        "simulate", None, cli._GROUPS["simulate"], None, ("--n", "3")
    )


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (["table", "build", "--m", "3", "--vmax", "2", "--out", "t.cpt"], 1),
        (["--out", "o", "simulate", "--n", "3", "--r", "0", "--eps", "1/3", "--trials", "10", "--seed", "1"], 1),
        # unrecognized tokens: the leaf, then the full tree
        (["table", "build", "--m", "3", "--vmax", "2", "--bogus"], 1 + 23),
        (["simulate", "--n", "3", "--r", "0", "--eps", "1/3", "--trials", "10", "--seed", "1", "x"], 1 + 23),
        (["table", "--help"], 23),
        (["table", "buidl"], 23),
        (["--help"], 23),
    ],
)
def test_parsers_built_per_argv(argv, parsers, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    main(argv)
    capsys.readouterr()
    assert len(built) == parsers, built


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
    path.write_bytes(path.read_bytes().replace(b"\n1 1 0 3\n", b"\n1 1 0 5\n"))
    rc, _, err = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
    assert rc == 2
    assert "sha256" in err
    # a wrong value saved with a valid trailer loads and fails the recheck:
    # B(1,1,0) = 1! 2^1 A = 5 is saved as the row "1 1 0 5"
    assert table.levels[0][0] == (1, 1, 0, 3)
    table.levels[0][0] = (1, 1, 0, 5)
    save_table(table, path)
    rc, outtext, _ = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
    assert rc == 2
    assert "FAIL" in outtext


def test_verify_rejects_unloadable_files(tmp_path, capsys):
    out = str(tmp_path)
    run_cli(capsys, "--out", out, "table", "build", "--m", "3", "--vmax", "3", "--out", "t.cpt")
    blob = (tmp_path / "t.cpt").read_bytes()
    head = blob[: blob.rindex(b"end sha256=")]
    body = head.replace(b"\n1 1 0 3\n", b"\n1 1 0 \xff\n")
    # CPTABLE 3 headers carry no base label
    foo = head.replace(b"m=3 vmax=3", b"m=3 vmax=3 base=foo")
    empty = head.replace(b"m=3 vmax=3", b"m=3 vmax=3 base=empty")
    v2 = b"CPTABLE 2\nm=3 vmax=3 base=unit-origin\n0 0 0 1/1\n1 1 0 3/2\n"

    def sign(text):
        return text + b"end sha256=%s\n" % hashlib.sha256(text).hexdigest().encode()

    cases = {
        "v1.cpt": b"CPTABLE 1\nm=3 vmax=3 base=unit-origin\n0 0 0 1/1\n",
        "v2.cpt": sign(v2),
        "cut.cpt": blob[:-40],
        # re-signed, so strict ASCII decoding is what rejects it
        "ff.cpt": sign(body),
        "base.cpt": sign(foo),
        "empty.cpt": sign(empty),
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        rc, outtext, err = run_cli(capsys, "--out", out, "table", "verify", "--file", str(path))
        assert rc == 2, name
        assert err.startswith("error: line "), name
        assert "Traceback" not in err
        assert outtext == ""
        if name in ("v1.cpt", "v2.cpt"):
            assert err.startswith("error: line 1: CPTABLE %s files are no longer read" % name[1])
            assert "`cyclepoisson table build --m 3 --vmax 3`" in err
        if name == "ff.cpt":
            assert "non-ASCII" in err
        if name == "base.cpt":
            assert err.startswith("error: line 2: bad header 'm=3 vmax=3 base=foo'")
        if name == "empty.cpt":
            assert err.startswith("error: line 2: bad header 'm=3 vmax=3 base=empty'")


@pytest.mark.parametrize("m, count", [(b"1", b"9" * 5000), (b"9" * 5000, b"1")], ids=["count", "m"])
def test_verify_of_a_value_past_the_digit_limit_fails_cleanly(tmp_path, capsys, m, count):
    # a signed file with a 5000-digit value loads, and the recheck reports it
    body = b"CPTABLE 3\nm=%s vmax=1\n1 1 0 %s\n" % (m, count)
    path = tmp_path / "long.cpt"
    path.write_bytes(body + b"end sha256=%s\n" % hashlib.sha256(body).hexdigest().encode())
    rc, outtext, err = run_cli(capsys, "table", "verify", "--file", str(path))
    assert (rc, err) == (2, "")
    assert outtext.startswith("table: m=%s vmax=1, 2 entries\n" % m.decode())
    assert "FAIL boundary identity fails at (v=1,t=1)" in outtext


@pytest.mark.parametrize("m, vmax", [(1, 10**6), (10**10, 10**10)], ids=["vmax", "m-and-vmax"])
def test_verify_of_a_file_short_of_a_huge_vmax_fails_at_once(tmp_path, capsys, m, vmax):
    # the header sizes nothing: the levels checked are those the rows
    # reach, so the file fails the vmax check, in well under a second
    body = b"CPTABLE 3\nm=%d vmax=%d\n1 1 0 1\n" % (m, vmax)
    path = tmp_path / "short.cpt"
    path.write_bytes(body + b"end sha256=%s\n" % hashlib.sha256(body).hexdigest().encode())
    start = time.perf_counter()
    rc, outtext, err = run_cli(capsys, "table", "verify", "--file", str(path))
    assert time.perf_counter() - start < 5
    assert (rc, outtext) == (2, "")
    assert err == "error: line 2: rows stop at v=1 but the header declares vmax=%d\n" % vmax


@pytest.mark.parametrize("block", [None, 4096], ids=["one-block", "4096-byte-blocks"])
def test_a_wrong_sha256_is_reported_before_a_bad_row(tmp_path, capsys, monkeypatch, block):
    # the bad row comes first in the file, but a file whose sha256 fails is
    # reported as such, by the load and by the streamed verify alike, with
    # the trailer's line; read in 4096-byte blocks, the first batch of rows
    # is checked before the end of the file, where the sha256 is known
    if block:
        monkeypatch.setattr("cyclepoisson.table._READ_BLOCK", block)
    run_cli(capsys, "--out", str(tmp_path), "table", "build", "--m", "40", "--vmax", "40",
            "--out", "t.cpt")
    path = tmp_path / "t.cpt"
    blob = path.read_bytes()
    body = blob[: blob.rindex(b"end sha256=")].replace(b"\n1 1 0 40\n", b"\n1 1 0 040\n")
    for trailer, line, word in [
        (b"end sha256=%s\n" % (b"0" * 64), body.count(b"\n") + 1, "sha256 of the body"),
        (b"end sha256=%s\n" % hashlib.sha256(body).hexdigest().encode(), 3, "bad row '1 1 0 040'"),
    ]:
        path.write_bytes(body + trailer)
        with pytest.raises(TableFormatError) as exc:
            load_table(path)
        assert exc.value.line == line
        assert word in str(exc.value)
        rc, outtext, err = run_cli(capsys, "table", "verify", "--file", str(path))
        assert (rc, outtext, err) == (2, "", "error: %s\n" % exc.value)


@pytest.mark.parametrize("block", [64, 1024])
def test_a_wrong_sha256_stops_a_multi_block_file_before_any_row(
    tmp_path, capsys, monkeypatch, block
):
    # a file of many read blocks is hashed whole before its first line is
    # read, so with a wrong sha256 no row is parsed, by the load or by the
    # streamed verify, and both report the sha256 at the trailer's line;
    # batches of 16 rows would be parsed long before the end of the file
    path = tmp_path / "t.cpt"
    save_table(fill_table(EnsembleParams.from_checks(12), vmax=12), path)
    blob = path.read_bytes()
    body = blob[: blob.rindex(b"end sha256=")]
    path.write_bytes(body + b"end sha256=%s\n" % (b"0" * 64))
    assert len(blob) > 3 * block
    monkeypatch.setattr("cyclepoisson.table._READ_BLOCK", block)
    monkeypatch.setattr("cyclepoisson.table._LOAD_BATCH", 16)

    def parse(*_args):
        raise AssertionError("a row was parsed before the sha256 was known")

    monkeypatch.setattr("cyclepoisson.table._batch_rows", parse)
    with pytest.raises(TableFormatError) as exc:
        load_table(path)
    assert exc.value.line == body.count(b"\n") + 1
    assert "sha256 of the body does not match the trailer" in str(exc.value)
    rc, outtext, err = run_cli(capsys, "table", "verify", "--file", str(path))
    assert (rc, outtext, err) == (2, "", "error: %s\n" % exc.value)


def _count(table, key):
    """The count the table stores at key, 0 if none."""
    return next((row[3] for row in table.levels[key[0] - 1] if row[:3] == key), 0)


def _set_count(table, key, count):
    """Store the count at key (None deletes it), keeping its level's rows in key order."""
    level = table.levels[key[0] - 1]
    i = bisect.bisect_left(level, key)
    held = i < len(level) and level[i][:3] == key
    level[i:i + held] = [] if count is None else [(*key, count)]


@pytest.mark.parametrize(
    "key, expect",
    [
        # inside the rows the checks read, and read by row (3,2,2)
        ((2, 2, 1), ["recurrence fails at (3,2,2)"]),
        # outside them: t > v + 1, so 2t + s > 2v + 1
        ((1, 3, 0), []),
        # at level vmax, which no level reads
        ((3, 3, 1), []),
        # outside them with t <= v: 2t + s > 2v + 1
        ((1, 1, 2), []),
    ],
)
def test_streamed_verify_flags_a_row_outside_the_profile_support(tmp_path, capsys, key, expect):
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    _set_count(table, key, 1)
    path = tmp_path / "t.cpt"
    save_table(table, path)
    rc, outtext, err = run_cli(capsys, "table", "verify", "--file", str(path))
    assert (rc, err) == (2, "")
    assert outtext.splitlines() == ["table: m=4 vmax=3, %d entries" % len(table.entries)] + [
        "FAIL entry outside profile support 2t+s <= 2v at (%d,%d,%d)" % key
    ] + ["FAIL %s" % msg for msg in expect]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), data=st.data())
def test_streamed_verify_reports_what_verify_table_reports(tmp_path_factory, m, data):
    # edits a file can hold: positive counts at v in 1..vmax, t >= 1 and
    # t + s <= m, keys outside the profile support 2t + s <= 2v and outside
    # the rows the checks read included; level vmax keeps a row
    vmax = data.draw(st.integers(1, m), label="vmax")
    table = fill_table(EnsembleParams.from_checks(m), vmax)
    keys = st.one_of(
        st.sampled_from([row[:3] for level in table.levels for row in level]),
        st.integers(1, m).flatmap(
            lambda t: st.tuples(st.integers(1, vmax), st.just(t), st.integers(0, m - t))
        ),
    )
    # None deletes the key; an integer is added to its count, and a count
    # that is then not positive is deleted; the level's rows stay in key order
    edit = st.tuples(keys, st.one_of(st.none(), st.integers(-3, 3)))
    for key, delta in data.draw(st.lists(edit, min_size=1, max_size=6), label="edits"):
        count = _count(table, key) + (delta or 0)
        _set_count(table, key, count if delta is not None and count > 0 else None)
    if not table.levels[-1]:
        table.levels[-1].append((vmax, 1, 0, 1))
    path = tmp_path_factory.mktemp("verify") / "t.cpt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded == table
    problems = verify_table(loaded)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["table", "verify", "--file", str(path)])
    status = ["FAIL %s" % msg for msg in problems] or [
        "ok: support, origin, boundary and recurrence checks all pass"
    ]
    assert stdout.getvalue().splitlines() == [
        "table: m=%d vmax=%d, %d entries" % (m, vmax, len(loaded.entries))
    ] + status
    assert (rc, stderr.getvalue()) == (2 if problems else 0, "")


def build_and_save(out: Path, m: int, vmax: int) -> tuple[bytes, bytes]:
    """The file `table build` writes, and the one save_table writes of fill_table's table.

    Each is checked on the way: the build exits 0 and prints the table's
    entry count, and the saved table's sha256 is the one save_table returns.
    """
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["--out", str(out), "table", "build", "--m", str(m), "--vmax", str(vmax),
                   "--out", "built.cpt"])
    assert rc == 0
    n = max(m, vmax)
    table = fill_table(EnsembleParams(n=n, r=Fraction(n - m, n)), vmax)
    assert stdout.getvalue().splitlines()[0] == (
        "filled m=%d vmax=%d, %d nonzero entries" % (m, vmax, len(table.entries)))
    digest = save_table(table, out / "saved.cpt")
    saved = (out / "saved.cpt").read_bytes()
    assert hashlib.sha256(saved).hexdigest() == digest
    return (out / "built.cpt").read_bytes(), saved


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 8), vmax=st.integers(0, 12))
def test_table_build_writes_what_save_table_writes(tmp_path_factory, m, vmax):
    # the build streams the fill's levels into the writer; save_table sorts
    # a whole table into it; vmax > m too, where n = vmax
    built, saved = build_and_save(tmp_path_factory.mktemp("build"), m, vmax)
    assert built == saved


def test_table_build_deeper_than_the_digit_limit_of_a_denominator(tmp_path, capsys):
    # from v = 1424 at m = 2, the reduced denominator of some A(v,t,s) has
    # more than 4300 digits; the counts the file holds have far fewer
    limit = sys.get_int_max_str_digits()
    rc, _, err = run_cli(capsys, "--out", str(tmp_path), "table", "build",
                         "--m", "2", "--vmax", "1424", "--out", "t.cpt")
    assert (rc, err) == (0, "")
    lines = (tmp_path / "t.cpt").read_bytes().split(b"\n")
    assert lines[:2] == [b"CPTABLE 3", b"m=2 vmax=1424"]
    assert lines[-3].startswith(b"1424 2 0 ")
    assert sys.get_int_max_str_digits() == limit
    # both routes to the writer agree here too, and with the limit at its
    # floor of 640 digits, under the counts of the deepest levels (about
    # 857 digits at v = 1424), both write those levels through decimal
    built, saved = build_and_save(tmp_path, 2, 1424)
    assert built == saved
    sys.set_int_max_str_digits(640)
    try:
        assert build_and_save(tmp_path / "low", 2, 1424) == (built, built)
    finally:
        sys.set_int_max_str_digits(limit)


def test_table_build_peak_memory_stays_below_its_file(tmp_path, capsys):
    # the build holds one level at a time; holding the whole table, its
    # sorted rows and their text takes about 7 times the 1.34 MiB file
    tracemalloc.start()
    try:
        rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "table", "build",
                           "--m", "40", "--vmax", "40", "--out", "t.cpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < (tmp_path / "t.cpt").stat().st_size


def test_table_build_writes_nothing_before_validation(tmp_path, capsys):
    argv = ["table", "build", "--m", "3", "--vmax", "-1", "--out", "t.cpt"]
    fresh = tmp_path / "fresh"
    rc, _, err = run_cli(capsys, "--out", str(fresh), *argv)
    assert rc == 2
    assert "vmax must lie in 0..n" in err
    assert not fresh.exists()
    (tmp_path / "t.cpt").write_bytes(b"an older file\n")
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), *argv)
    assert rc == 2
    assert (tmp_path / "t.cpt").read_bytes() == b"an older file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.cpt"]


@pytest.mark.parametrize(
    "m, vmax, digest",
    [
        (12, 16, "a1913c18bb9961d1294801c83456e22ef6bbabb7c7500b360e0ba7c40276d591"),
        (5, 4, "58c64b9e7709c0e2cfc1eef1438f5939f6129eee68c5bc7589b2853778bee3a9"),
        (3, 3, "d182de87a8e2d8ea5f39a5bcd435642211bfa48494622890c36598c8e00b49bb"),
    ],
)
def test_table_build_bytes_are_pinned(m, vmax, digest, tmp_path, capsys):
    rc, _, _ = run_cli(
        capsys, "--out", str(tmp_path), "table", "build", "--m", str(m), "--vmax", str(vmax),
        "--out", "t.cpt",
    )
    assert rc == 0
    assert hashlib.sha256((tmp_path / "t.cpt").read_bytes()).hexdigest() == digest


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


def test_exponents_past_the_int_str_limit(tmp_path, capsys):
    # v! 2^v has more than 4300 digits at v = 1800, past the default
    # int-to-str limit; the log is taken in integers there
    rc, _, err = run_cli(
        capsys, "--out", str(tmp_path), "table", "exponents", "--m", "2", "--vmax", "1800",
        "--t-list", "1",
    )
    assert (rc, err) == (0, "")
    v, g = (tmp_path / "g_t1_m2.csv").read_text().splitlines()[-1].split(",")
    # P_1[2v] = 1, so g(v) = -log10(v! 2^v)
    assert v == "1800"
    assert abs(float(g) + (math.lgamma(1801) + 1800 * math.log(2)) / math.log(10)) < 1e-6


def test_stopping_sets_count(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "stopping-sets", "count", "--m", "3", "--v", "2", "--t", "2"
    )
    assert rc == 0
    assert out.splitlines()[0] == "18"


def test_stopping_sets_count_past_the_int_str_limit(tmp_path, capsys):
    # the count has 4406 digits, past the default int-to-str limit of 4300
    rc, out, err = run_cli(
        capsys, "--out", str(tmp_path), "stopping-sets", "count", "--m", "20", "--v", "2200",
        "--t", "10", "--digits",
    )
    assert (rc, err) == (0, "")
    first, second = out.splitlines()[:2]
    count = stopping_set_count(EnsembleParams(n=2200, r=Fraction(2180, 2200)), 2200, 10)
    assert first.isdigit() and len(first) == 4406
    assert int(decimal.Decimal(first)) == count
    assert second == "digits: 4406"


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
    # the survey file holds exactly what was printed
    assert (tmp_path / "alpha_survey.txt").read_text() == out
    # a single alpha prints only and writes nothing
    single = tmp_path / "single"
    rc, _, _ = run_cli(capsys, "--out", str(single), "pde", "alpha", "--alpha", "2")
    assert rc == 0
    assert not single.exists()


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


def test_expansion_audit_negative_seed_is_a_validation_error(tmp_path, capsys):
    # -5 would write seed 5's CSV while the manifest recorded -5
    out = tmp_path / "fresh"
    rc, _, err = run_cli(
        capsys, "--out", str(out), "pde", "verify-paper-expansion", "--points", "4", "--seed", "-5"
    )
    assert rc == 2
    assert err == "error: seed must be >= 0, got -5\n"
    assert not out.exists()


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


def _table_route(n, r, eps):
    params = EnsembleParams(n=n, r=r)
    return expected_block_error(ErrProbQuery(params, eps, fill_table(params, n)))


@pytest.mark.parametrize("n, r", [(4, Fraction(1, 2)), (6, Fraction(1, 3)), (12, Fraction(3, 4))])
def test_eval_and_sweep_bytes_match_table_route(n, r, tmp_path, capsys):
    # the commands take E_B from forest counts; their text is the one the
    # table route formats, byte for byte
    eps_list = [Fraction(0), Fraction(1, 20), Fraction(2, 7)]
    result = _table_route(n, r, eps_list[-1])
    expect = "x = %s\nE_B = %s\nE_B ~ %.15g\n" % (result.x, result.value, float(result.value))
    expect += "".join(
        "  v=%d term=%s (~%.6g)\n" % (v, term, float(term)) for v, term in result.per_v
    )
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "errprob", "eval", "--n", str(n),
                         "--r", str(r), "--eps", "2/7", "--breakdown")
    assert rc == 0
    assert out == expect
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "errprob", "sweep", "--n", str(n),
                       "--r", str(r), "--eps-list", "0,1/20,2/7")
    assert rc == 0
    rows = ["epsilon,value,float_value"]
    for eps in eps_list:
        value = _table_route(n, r, eps).value
        rows.append("%s,%s,%.15g" % (eps, value, float(value)))
    assert (tmp_path / "errprob_sweep.csv").read_text() == "\n".join(rows) + "\n"


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


_TINY_EPS = "1/10000019"  # at n = 600, E_B's denominator has more than 4,300 digits


def _eval_value(out, _dir):
    return out.splitlines()[1].removeprefix("E_B = ")


def _sweep_value(_out, out_dir):
    return (out_dir / "errprob_sweep.csv").read_text().splitlines()[1].split(",")[1]


def _reconcile_value(_out, out_dir):
    return json.loads((out_dir / "reconcile.json").read_text())["rows"][0]["analytic"]


@pytest.mark.parametrize(
    "argv, read",
    [
        (["errprob", "eval", "--n", "600", "--r", "1/2", "--eps", _TINY_EPS, "--breakdown"],
         _eval_value),
        (["errprob", "sweep", "--n", "600", "--r", "1/2", "--eps-list", _TINY_EPS], _sweep_value),
        (["reconcile", "--n", "600", "--r", "1/2", "--eps-list", _TINY_EPS, "--trials", "20",
          "--seed", "1"], _reconcile_value),
    ],
    ids=["eval", "sweep", "reconcile"],
)
def test_exact_values_past_the_int_str_limit(argv, read, tmp_path, capsys):
    # the exact value is written whole, without lifting the interpreter's
    # int-to-str limit, and reads back through decimal to the library's
    limit = sys.get_int_max_str_digits()
    expect = block_error_probability(EnsembleParams(n=600, r=Fraction(1, 2)), Fraction(_TINY_EPS))
    assert expect.value.denominator.bit_length() > limit * math.log2(10)
    rc, out, err = run_cli(capsys, "--out", str(tmp_path), *argv)
    assert rc == 0
    assert "Traceback" not in err
    num, den = read(out, tmp_path).split("/")
    assert Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den))) == expect.value
    assert sys.get_int_max_str_digits() == limit


def test_eval_prints_x_past_the_int_str_limit(tmp_path, capsys):
    # eps = 1/N with N = 9 10^4299 still parses, but at m = 2 x is
    # 1/(2(N-1)), whose denominator has 4,301 digits
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 4301
    rc, out, err = run_cli(capsys, "--out", str(tmp_path), "errprob", "eval", "--n", "4",
                           "--r", "1/2", "--eps", "1/9" + "0" * 4299)
    assert rc == 0
    assert "Traceback" not in err
    assert out.splitlines()[0] == "x = 1/17" + "9" * 4298 + "8"
    assert sys.get_int_max_str_digits() == limit


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
    # 2 is the factorial sequence's exact radius 2/t^2 at t = 1
    assert "x=2 -> boundary" in out
    assert "factorial: window v=7..12 estimate=0.584965 radius=2 (finite-radius)" in out


def test_hadamard_split_t5_uses_the_exact_radius(tmp_path, capsys):
    # the window estimate over v = 5..9 reads radius 0.0446 < 1/20; the
    # exact radius is 2/25
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "errprob", "hadamard-split", "--n", "10", "--r", "0",
        "--t", "5", "--s", "0", "--vmax", "9", "--x-list", "1/20",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("factorial: window v=5..9 ")
    assert lines[0].endswith(" radius=2/25 (finite-radius)")
    assert lines[1] == "  x=1/20 -> bounded"
    assert "radius=inf (infinite-radius)" in out


def test_hadamard_split_depth_0_estimate_is_nan(tmp_path, capsys):
    # a depth-0 table leaves the window v = 1..0 empty: nothing was
    # measured, so the estimate reads nan, not 0; the radii stay exact
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path),
        "errprob", "hadamard-split", "--n", "20", "--r", "1/2",
        "--t", "1", "--s", "0", "--vmax", "0",
    )
    assert rc == 0
    assert "factorial: window v=1..0 estimate=nan radius=2 (finite-radius)" in out
    rows = (tmp_path / "hadamard_split.csv").read_text().splitlines()
    assert rows[1:] == [
        "1,0,factorial,1-0,nan,finite-radius",
        "1,0,factorial-over-n2v,1-0,nan,finite-radius",
        "1,0,binomial-over-n2v,1-0,nan,infinite-radius",
    ]


@pytest.mark.parametrize("column", [["--t", "-1", "--s", "0"], ["--t", "1", "--s", "-2"]])
def test_hadamard_split_negative_column_exits_2(column, tmp_path, capsys):
    out_dir = tmp_path / "fresh"
    rc, out, err = run_cli(
        capsys, "--out", str(out_dir),
        "errprob", "hadamard-split", "--n", "12", "--r", "3/4", *column,
    )
    assert rc == 2
    assert out == ""
    assert "t and s must be >= 0" in err
    assert not out_dir.exists()


# sha256 of "<exit code>\0<stdout>\0<stderr>\0<CSV, or empty>" for
# `errprob hadamard-split` run with `--out .`, recorded when the command
# still filled the whole coefficient table; reading one kernel column
# must leave every byte as it was
_SPLIT_DIGESTS = [
    ("--n 12 --r 3/4 --t 1 --s 0 --x-list 1/2,2,4",
     "f1a6cc98a564765b0571a63779b417752bbe1f2ea1f6aed0aa01991daba1cce6"),
    ("--n 10 --r 0 --t 5 --s 0 --vmax 9 --x-list 1/20",
     "7607e982361dac43e34ee3ecd9911a3faf0bb12d59e622e002bf3ba5f0d9cde6"),
    ("--n 20 --r 1/2 --t 1 --s 0 --vmax 0",
     "d97072d1dcba42407c8f83511a644207d2cb9766a0fe0693bfa5b73af7680f2f"),
    ("--n 200 --r 1/2 --t 1 --s 0",
     "aa5eca349f4b18181f325845ecd79bdcf139a5b9161202c7fe9962006c8cc2f1"),
    ("--n 200 --r 1/2 --t 7 --s 3 --vmax 150 --x-list 1/100,2/49",
     "510b0e372d811e1a27daf3f03883fcc025c634f6437f6573455c60f6fd503870"),
    ("--n 60 --r 1/2 --t 31 --s 0",
     "60cb3f958277ffda1ad50e5bd257ee72b43e47393db305a18052d3ebc8857ad4"),
    ("--n 60 --r 1/2 --t 0 --s 4",
     "6211b03cacbaf2295785035ba435ad88c9b346434c3b98ec8c091959a97c790d"),
    ("--n 9 --r 1/3 --t 2 --s 5",
     "b1a9939c91df86302beb71c3ab0faeb77e8cd3c030cb057e3a1f7de2dcf0cd6d"),
    ("--n 9 --r 1/3 --t 2 --s 1 --vmax 10",
     "21d01f9ae5f4631d4aa94948fe2e0970544d0891788439614430b3ce1cb5d844"),
    ("--n 9 --r 1/3 --t 2 --s 1 --vmax -1",
     "765bf567c3b7f10f9e1d1104adf91f95da374bd9be16bc58eb0090028e22bb1e"),
    ("--n 8 --r 1/2 --t 9 --s 0 --vmax 3",
     "09d187994cb7c503a51b176f73597cb7e4e0e9019999b280f557609312f13a73"),
]


@pytest.mark.parametrize("argv, digest", _SPLIT_DIGESTS)
def test_hadamard_split_bytes_pinned(argv, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, "--out", ".", "errprob", "hadamard-split", *argv.split())
    csv = tmp_path / "hadamard_split.csv"
    blob = "%d\0%s\0%s\0%s" % (rc, out, err, csv.read_text() if csv.exists() else "")
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# sha256 of "<exit code>\0<stdout>\0<stderr>\0<artifact, or empty>" for
# forest-route runs with `--out .`, recorded while the forest counts still
# came from Renyi's alternating sum; the recurrence must leave every byte
# as it was.  The n = 2000 breakdown runs to tens of MB, so only its plain
# output is pinned.
_FOREST_ROUTE_DIGESTS = [
    ("errprob eval --n 1 --r 0 --eps 1/2", None,
     "9a02c2ba4aa9dd32358f4f21c41d3abf07bcbc3b62971ea1e99f07ffd4fba9c4"),
    ("errprob eval --n 1 --r 0 --eps 1/2 --breakdown", None,
     "e73e7aa33fa8231e7b9f4ab7ba274a80de874373ae0eb09e84c2b431bfddb883"),
    ("errprob eval --n 3 --r 2/3 --eps 1/2", None,
     "f39a3883255925cf363747528e92286c7816586337a4db52d53a7dca21fa38d6"),
    ("errprob eval --n 3 --r 2/3 --eps 1/2 --breakdown", None,
     "3443465fda43bdf45a3b3285307f95863f9e0f7e9641306cac58ce45cd55073d"),
    ("errprob eval --n 4 --r 1/2 --eps 1/10", None,
     "302d15776ef47c63f5848885f1e60bf3bde618817dfd9d7035eba7dcf406cf5f"),
    ("errprob eval --n 4 --r 1/2 --eps 1/10 --breakdown", None,
     "b44c87adf416750dea6e228c9f4699ae60a262194b379bf19fc25aa69a641925"),
    ("errprob eval --n 200 --r 1/2 --eps 1/20", None,
     "5c34b41376580df6d818de03ddf1efddbe5a15efb4fb56704e114969c8cb8ff1"),
    ("errprob eval --n 200 --r 1/2 --eps 1/20 --breakdown", None,
     "b9f5a9153ca885e848b96372d2a55b9f199876345a4effcb4f0e3848ab68372c"),
    ("errprob eval --n 600 --r 1/2 --eps 1/10000019", None,
     "8ab90eb86be97101c0e569da323674821d3ec144b8f36e01d3e990efd369c04d"),
    ("errprob eval --n 2000 --r 1/2 --eps 1/4", None,
     "91dd025862734826dee474fc478e9c905d44d02439d7fc299fa3ecd333963b56"),
    ("errprob sweep --n 200 --r 1/2 --eps-list 0,1/20,1/4", "errprob_sweep.csv",
     "49b360d318e602797291f3881e2ac48c5677f85e51cc4e57df0bd4e16bf3b524"),
    ("reconcile --n 200 --r 1/2 --eps-list 1/20,1/4 --trials 1000 --seed 7 --json r.json", "r.json",
     "15dec9266b104d4b22121c22e4feef53bde37ede41e2d307b3cca55042d8cea0"),
]


@pytest.mark.parametrize("argv, artifact, digest", _FOREST_ROUTE_DIGESTS)
def test_forest_route_bytes_pinned(argv, artifact, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, "--out", ".", *argv.split())
    text = (tmp_path / artifact).read_text() if artifact else ""
    blob = "%d\0%s\0%s\0%s" % (rc, out, err, text)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_hadamard_check_passes(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "errprob", "hadamard-check")
    assert rc == 0
    assert "nodes" in out


def test_hadamard_check_without_convergence_exits_2(tmp_path, capsys):
    # ToleranceNotMetError is a CyclePoissonError but no ValidationError
    rc, out, err = run_cli(
        capsys, "--out", str(tmp_path), "errprob", "hadamard-check", "--order", "8", "--tol", "0"
    )
    assert rc == 2
    assert err == "error: no convergence to 0 within 16384 nodes\n"
    assert out == ""


def test_known_series_output(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "errprob", "known-series", "--n", "8", "--x", "1/2"
    )
    assert rc == 0
    assert "diverges: True" in out
    assert "polynomial identities" in out


def test_known_series_crossing_past_the_listed_ratios(tmp_path, capsys):
    # (v+1)/20 > 1 first at v = 20, beyond the twelve ratios the report lists
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "errprob", "known-series", "--n", "12", "--x", "1/20"
    )
    assert rc == 0
    assert "  term ratio (v+1)|x| first exceeds 1 at v=20\n" in out


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


def test_threads_option_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "fresh"
    argv = ["simulate", "--n", "20", "--r", "1/2", "--eps", "1/5", "--trials", "300",
            "--seed", "5", "--json", "a.json"]
    rc, _, err = run_cli(capsys, "--out", str(out), "--threads", "2", *argv)
    assert rc == 1
    assert err.startswith("usage:")
    assert not out.exists()


@pytest.mark.parametrize("sub", [["eval", "--eps", "1/10"], ["sweep", "--eps-list", "1/10"]])
def test_errprob_vmax_is_a_usage_error(sub, tmp_path, capsys):
    # the E_B sum always runs to v = n, so there is no depth to choose
    out = tmp_path / "fresh"
    rc, _, err = run_cli(capsys, "--out", str(out), "errprob", sub[0], "--n", "4",
                         "--r", "1/2", *sub[1:], "--vmax", "4")
    assert rc == 1
    assert err.startswith("usage:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reconcile", "--n", "4", "--eps-list", ","],
        ["errprob", "sweep", "--n", "4", "--r", "1/2", "--eps-list", ","],
        ["table", "exponents", "--m", "4", "--t-list", " , "],
    ],
)
def test_empty_list_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "fresh"
    rc, _, err = run_cli(capsys, "--out", str(out), *argv)
    assert rc == 1
    assert "empty list" in err
    assert not out.exists()


def test_exponents_default_list_stops_at_m(tmp_path, capsys):
    # the default t list runs to 50; only its values <= m are profiled
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "table", "exponents", "--m", "10")
    assert rc == 0
    assert "wrote 6 profile files" in out
    names = ["g_t%d_m10.csv" % t for t in (1, 2, 3, 4, 5, 10)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        names + ["manifest.json", "plot_exponents.gnuplot"]
    )
    plot = (tmp_path / "plot_exponents.gnuplot").read_text()
    assert [plot.index(name) for name in names] == sorted(plot.index(name) for name in names)
    # an explicit t above m is still an error
    rc, _, err = run_cli(
        capsys, "--out", str(tmp_path / "fresh"), "table", "exponents", "--m", "10",
        "--t-list", "2,11",
    )
    assert rc == 2
    assert "t values must not exceed m = 10" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "demo", "--order", "-1"],
        ["errprob", "hadamard-check", "--order", "-1"],
    ],
)
def test_negative_order_is_a_validation_error(argv, tmp_path, capsys):
    rc, _, err = run_cli(capsys, "--out", str(tmp_path), *argv)
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_exponents_repeated_t_written_once(tmp_path, capsys):
    rc, out, _ = run_cli(
        capsys, "--out", str(tmp_path), "table", "exponents", "--m", "4", "--t-list", "2,1,2"
    )
    assert rc == 0
    assert "wrote 2 profile files" in out
    plot = (tmp_path / "plot_exponents.gnuplot").read_text()
    assert plot.count("g_t2_m4.csv") == plot.count("g_t1_m4.csv") == 1
    assert plot.index("g_t2_m4.csv") < plot.index("g_t1_m4.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "build", "--m", "0", "--vmax", "3"],
        ["stopping-sets", "count", "--m", "0", "--v", "2", "--t", "1"],
        ["pde", "residual", "--m", "0"],
        ["table", "exponents", "--m", "0"],
    ],
)
def test_m_zero_is_a_validation_error(argv, tmp_path, capsys):
    rc, _, err = run_cli(capsys, "--out", str(tmp_path / "fresh"), *argv)
    assert rc == 2
    assert err.startswith("error: m must be >= 1")


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


def test_reconcile_rows_equal_one_simulate_each_in_list_order(tmp_path, capsys):
    # the list is not sorted: the highest epsilon is decided first inside,
    # and the rows still come back in the order given
    eps_list = ["1/5", "1/20", "1/10"]
    common = ["--n", "200", "--r", "1/2", "--trials", "2000", "--seed", "7"]
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "reconcile", *common,
                       "--eps-list", ",".join(eps_list))
    assert rc == 0
    rows = json.loads((tmp_path / "reconcile.json").read_text())["rows"]
    assert [row["epsilon"] for row in rows] == eps_list
    simulated = []
    for eps in eps_list:
        rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "simulate", *common, "--eps", eps)
        assert rc == 0
        simulated.append(json.loads(out)["failures"])
    assert [row["mc_failures"] for row in rows] == simulated


@pytest.mark.parametrize(
    "bad, message",
    [
        ("3/2", "epsilon must lie in [0, 1], got 3/2"),
        # the simulator takes epsilon = 1; only the exact side refuses it
        ("1", "epsilon = 1 leaves x undefined (division by zero)"),
    ],
)
def test_reconcile_checks_every_epsilon_before_drawing(tmp_path, monkeypatch, capsys, bad, message):
    # all epsilons share one draw, so the exact side sees all of them first:
    # a bad last epsilon stops the run before a trial of 1/10 is drawn
    from cyclepoisson import simulator

    monkeypatch.setattr(simulator, "_range_failures", lambda *args: pytest.fail("drew trials"))
    out = tmp_path / "fresh"
    rc, _, err = run_cli(capsys, "--out", str(out), "reconcile", "--n", "4",
                         "--eps-list", "1/10," + bad, "--trials", "10")
    assert (rc, err) == (2, "error: %s\n" % message)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, repeated, distinct, artifact",
    [
        (["errprob", "sweep", "--n", "4", "--r", "1/2", "--eps-list"],
         "1/10,1/10,2/20", "1/10", "errprob_sweep.csv"),
        (["reconcile", "--n", "4", "--trials", "400", "--seed", "3", "--eps-list"],
         "1/10,2/20,1/20,1/10", "1/10,1/20", "reconcile.json"),
        (["errprob", "hadamard-split", "--n", "12", "--r", "3/4", "--t", "1", "--s", "0", "--x-list"],
         "1/2,2,4/8,2/1", "1/2,2", "hadamard_split.csv"),
    ],
)
def test_repeated_list_values_run_once(argv, repeated, distinct, artifact, tmp_path, capsys):
    # repeats are compared by value (2/20 is 1/10) and the first one is kept,
    # so the sweep writes one 1/10 row
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), *argv, repeated)
    assert rc == 0
    data = (tmp_path / artifact).read_bytes()
    assert run_cli(capsys, "--out", str(tmp_path), *argv, distinct) == (0, out, "")
    assert (tmp_path / artifact).read_bytes() == data


@pytest.mark.parametrize("seed", ["-1", str(1 << 64), "18446744073709551623"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "3", "--r", "0", "--eps", "1/3", "--trials", "10", "--json", "s.json"],
        ["reconcile", "--n", "4", "--eps-list", "1/3", "--trials", "10"],
    ],
)
def test_seed_outside_64_bits_is_a_validation_error(argv, seed, tmp_path, capsys):
    # masking would run seed 2^64 - 1 for -1, and seed 7 for 2^64 + 7
    out = tmp_path / "fresh"
    rc, _, err = run_cli(capsys, "--out", str(out), *argv, "--seed", seed)
    assert rc == 2
    assert err == "error: seed must lie in 0..2^64-1, got %s\n" % seed
    assert not out.exists()


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


def test_no_manifest_for_runs_without_artifacts(tmp_path, capsys, monkeypatch):
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "pde", "classify", "--y", "0", "--z", "0")
    assert rc == 0
    assert not (tmp_path / "manifest.json").exists()
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "simulate", "--n", "2",
                       "--r", "0", "--eps", "1/2", "--trials", "10", "--seed", "5")
    assert rc == 0
    assert not (tmp_path / "manifest.json").exists()
    # table verify beside a committed table leaves that table's manifest as it was
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), "table", "build",
                       "--m", "3", "--vmax", "4", "--out", "t.cpt")
    assert rc == 0
    before = (tmp_path / "manifest.json").read_bytes()
    assert json.loads(before)["cmd"] == "table build"
    rc, out, _ = run_cli(capsys, "--out", str(tmp_path), "table", "verify",
                         "--file", str(tmp_path / "t.cpt"))
    assert rc == 0 and "ok:" in out
    assert (tmp_path / "manifest.json").read_bytes() == before
    # the same from inside the directory, where the default out dir is "."
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CYCLEPOISSON_OUT", raising=False)
    rc, out, _ = run_cli(capsys, "table", "verify", "--file", "t.cpt")
    assert rc == 0 and "ok:" in out
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "t.cpt"]


def test_shorter_manifest_over_a_longer_one(tmp_path, capsys, monkeypatch):
    # a rerun into a used directory must leave the same manifest bytes as a
    # run into a fresh one; the argv is recorded, so both run from one
    # working directory with the same relative --out
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CYCLEPOISSON_OUT", raising=False)
    simulate = ["simulate", "--n", "20", "--r", "1/2", "--eps", "1/5", "--trials", "100",
                "--seed", "3", "--json", "s.json"]
    manifest = tmp_path / "used" / "manifest.json"
    rc, _, _ = run_cli(capsys, "--out", "used", *simulate)
    assert rc == 0
    fresh = manifest.read_bytes()
    (tmp_path / "used").rename(tmp_path / "fresh")
    rc, _, _ = run_cli(capsys, "--out", "used", "table", "exponents", "--m", "12")
    assert rc == 0
    assert len(manifest.read_bytes()) > len(fresh)
    rc, _, _ = run_cli(capsys, "--out", "used", *simulate)
    assert rc == 0
    rewritten = manifest.read_bytes()
    assert json.loads(rewritten)["cmd"] == "simulate"
    assert rewritten == fresh


def test_table_build_digest_and_rebuild_over_a_larger_file(tmp_path, capsys):
    def build(out, m, vmax):
        rc, _, _ = run_cli(capsys, "--out", str(out), "table", "build",
                           "--m", str(m), "--vmax", str(vmax), "--out", "t.cpt")
        assert rc == 0
        blob = (out / "t.cpt").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact_hashes"] == {"t.cpt": hashlib.sha256(blob).hexdigest()}
        return blob

    larger = build(tmp_path, 12, 16)
    smaller = build(tmp_path, 4, 4)
    assert len(smaller) < len(larger)
    assert load_table(tmp_path / "t.cpt") == fill_table(EnsembleParams.from_checks(4), 4)
    assert smaller == build(tmp_path / "fresh", 4, 4)


REPORTS = Path(__file__).resolve().parent.parent / "reports"
_HASHED_REPORTS = sorted(
    p.parent.name
    for p in REPORTS.glob("*/manifest.json")
    if json.loads(p.read_text())["artifact_hashes"]
)


def test_hashed_reports_are_the_expected_five():
    assert _HASHED_REPORTS == ["alpha", "appendix", "expansion", "reconcile", "residual"]


@pytest.mark.parametrize("name", _HASHED_REPORTS)
def test_report_reproduces_byte_for_byte(name, tmp_path, capsys):
    # each manifest names its command and the sha256 of every file it wrote;
    # rerunning that command elsewhere must give the same bytes
    report = REPORTS / name
    manifest = json.loads((report / "manifest.json").read_text())
    argv = manifest["args"]
    assert argv[:2] == ["--out", "reports/%s" % name]
    rc, _, _ = run_cli(capsys, "--out", str(tmp_path), *argv[2:])
    assert rc == 0
    hashes = manifest["artifact_hashes"]
    assert sorted(p.name for p in report.iterdir()) == sorted([*hashes, "manifest.json"])
    for artifact, digest in hashes.items():
        assert hashlib.sha256((report / artifact).read_bytes()).hexdigest() == digest, artifact
        assert (tmp_path / artifact).read_bytes() == (report / artifact).read_bytes(), artifact
    fresh = json.loads((tmp_path / "manifest.json").read_text())
    assert fresh["artifact_hashes"] == hashes
    assert fresh["seed"] == manifest["seed"]


def test_appendix_report_reruns_over_itself(tmp_path, capsys):
    # the committed files rewritten in place by their own command stay the same
    report = REPORTS / "appendix"
    manifest = json.loads((report / "manifest.json").read_text())
    out = tmp_path / "appendix"
    shutil.copytree(report, out)
    rc, _, _ = run_cli(capsys, "--out", str(out), *manifest["args"][2:])
    assert rc == 0
    hashes = manifest["artifact_hashes"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*hashes, "manifest.json"])
    for artifact, digest in hashes.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact
    assert json.loads((out / "manifest.json").read_text())["artifact_hashes"] == hashes


def test_print_only_run_creates_no_out_dir(tmp_path, capsys):
    out = tmp_path / "fresh"
    rc, _, _ = run_cli(capsys, "--out", str(out), "pde", "classify", "--y", "0", "--z", "0")
    assert rc == 0
    assert not out.exists()


def test_simulate_json_into_fresh_out_dir(tmp_path, capsys):
    out = tmp_path / "fresh" / "nested"
    rc, _, _ = run_cli(capsys, "--out", str(out), "simulate", "--n", "2", "--r", "0",
                       "--eps", "1/2", "--trials", "10", "--seed", "5", "--json", "sim.json")
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sim.json"]


def test_manifest_lands_in_out_dir_for_absolute_artifacts(tmp_path, capsys):
    out = tmp_path / "fresh"
    target = tmp_path / "elsewhere" / "sim.json"
    rc, _, _ = run_cli(capsys, "--out", str(out), "simulate", "--n", "2", "--r", "0",
                       "--eps", "1/2", "--trials", "10", "--seed", "5", "--json", str(target))
    assert rc == 0
    assert target.exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest["artifact_hashes"]) == [str(target)]


def test_out_env_var_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CYCLEPOISSON_OUT", str(tmp_path))
    rc, _, _ = run_cli(capsys, "pde", "region", "--grid", "3")
    assert rc == 0
    assert (tmp_path / "region.csv").exists()
    assert (tmp_path / "manifest.json").exists()
