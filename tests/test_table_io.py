"""CPTABLE file format: canonical writes, and loads that are complete or raise.

A CPTABLE 3 file holds the integer counts B = v! 2^v A(v,t,s), one row
"<v> <t> <s> <B>" each, and ends with "end sha256=<hex>" over every byte
before it, so no truncation or changed byte can load; the rows are then
validated.
"""

import decimal
import hashlib
import io
import itertools
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclepoisson.table as cptable
from cyclepoisson.combinatorics import factorial
from cyclepoisson.errors import TableFormatError
from cyclepoisson.table import (
    _LOAD_BATCH,
    CoeffTable,
    EnsembleParams,
    _filled_levels,
    _write_cptable,
    _write_over,
    fill_table,
    load_table,
    save_table,
    stopping_set_count,
)


@pytest.fixture
def table4(tmp_path):
    params = EnsembleParams.from_checks(4)
    table = fill_table(params, vmax=3)
    path = tmp_path / "m4v3.cptable"
    save_table(table, path)
    return params, table, path


def signed(body: bytes) -> bytes:
    """body followed by the trailer that the writer would give it."""
    return body + b"end sha256=%s\n" % hashlib.sha256(body).hexdigest().encode()


def write(tmp_path, text, name="case.cptable"):
    """Write a hand-made body with a valid trailer, so only the rows are at fault."""
    path = tmp_path / name
    path.write_bytes(signed(text.encode()))
    return path


def write_raw(tmp_path, blob: bytes, name="raw.cptable"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


def test_roundtrip(table4):
    _params, table, path = table4
    loaded = load_table(path)
    assert loaded == table
    assert loaded.vmax == 3
    assert not loaded.is_partial


def test_file_shape(table4):
    _params, _table, path = table4
    blob = path.read_bytes()
    text = blob.decode("ascii")
    lines = text.split("\n")
    assert lines[0] == "CPTABLE 3"
    assert lines[1] == "m=4 vmax=3"
    # the origin is implied; the first row is B(1,1,0) = 1! 2^1 A = binom(4,1)
    assert lines[2] == "1 1 0 4"
    assert text.endswith("\n")
    assert "\r" not in text
    body = blob[: blob.rindex(b"end sha256=")]
    assert lines[-2] == "end sha256=" + hashlib.sha256(body).hexdigest()
    rows = [tuple(map(int, row.split())) for row in lines[2:-2]]
    assert all(len(row) == 4 for row in rows)
    assert rows == sorted(rows)
    assert rows == list(itertools.chain(*_table.levels))


def test_load_bad_magic(tmp_path):
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, "CPTABLE 9\nm=3 vmax=1\n"))
    assert "line 1" in str(err.value)


def test_load_bad_header(tmp_path):
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, "CPTABLE 3\nm=3 vmax=x\n"))
    assert "line 2" in str(err.value)


def test_load_unknown_base_is_a_format_error(tmp_path):
    # a CPTABLE 3 header has no base label, so one that carries any label,
    # the old unit-origin included, is a bad header
    for label in ("foo", "empty", "unit-origin"):
        with pytest.raises(TableFormatError) as err:
            load_table(write(tmp_path, "CPTABLE 3\nm=3 vmax=0 base=%s\n" % label))
        assert err.value.line == 2
        assert "bad header 'm=3 vmax=0 base=%s'" % label in str(err.value)


def test_load_bad_row_syntax(tmp_path):
    text = "CPTABLE 3\nm=3 vmax=1\n1 1 0 3\n1 2 0 3/2\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "line 4" in str(err.value)


def test_load_rejects_zero_value(tmp_path):
    # zero entries are omitted, so a zero count is no row at all
    text = "CPTABLE 3\nm=3 vmax=1\n1 1 0 0\n1 2 0 3\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert err.value.line == 3
    assert "bad row '1 1 0 0'" in str(err.value)


def test_load_rejects_out_of_order_rows(tmp_path):
    text = "CPTABLE 3\nm=3 vmax=1\n1 2 0 1\n1 1 0 3\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "order" in str(err.value)


def test_load_rejects_v_above_declared(tmp_path):
    text = "CPTABLE 3\nm=3 vmax=1\n2 1 0 3\n1 1 0 3\n"
    with pytest.raises(TableFormatError):
        load_table(write(tmp_path, text))


def test_load_rejects_levels_short_of_declared(tmp_path):
    text = "CPTABLE 3\nm=3 vmax=2\n1 1 0 3\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "vmax=2" in str(err.value)


def test_load_rejects_indices_outside_support(tmp_path):
    # s can be at most m - t
    text = "CPTABLE 3\nm=3 vmax=1\n1 1 3 1\n1 2 0 1\n"
    with pytest.raises(TableFormatError):
        load_table(write(tmp_path, text))


def test_load_rejects_origin_conflict(tmp_path):
    # the origin is implied; no row can give it another value
    text = "CPTABLE 3\nm=3 vmax=1\n0 0 0 2\n1 1 0 3\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert err.value.line == 3
    assert "bad row" in str(err.value)


@pytest.mark.parametrize(
    "key, delta",
    [
        ((2, 1, 1), Fraction(1, 7)),
        # 2! 2^2 * 1/16 is a half, which a floor division would lose
        ((2, 1, 1), Fraction(1, 16)),
        ((2, 1, 0), Fraction(1, 7)),
        ((0, 0, 0), Fraction(1, 2)),
    ],
    ids=["recurrence-7", "recurrence-16", "boundary-7", "origin-2"],
)
def test_load_rejects_non_integral_count(table4, tmp_path, key, delta):
    # a row holds the integer count B = v! 2^v A, so A off by delta, its
    # count written as the fraction it then is, cannot load even when
    # signed; the origin has no row, so that one is written before the first
    _params, table, path = table4
    lines = body_lines(path)
    prefix = "%d %d %d " % key
    count = (table.entries[key] + delta) * factorial(key[0]) * 2 ** key[0]
    row = prefix + "%d/%d" % (count.numerator, count.denominator)
    if key[0]:
        idx = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[idx] = row
    else:
        idx = 2
        lines.insert(idx, row)
    err = load_error(tmp_path, lines)
    assert err.line == idx + 1
    assert "bad row %r" % row in str(err)


def _edit(lines, idx, row):
    lines[idx] = row


def _swap(lines, idx):
    lines[idx], lines[idx + 1] = lines[idx + 1], lines[idx]


def _cut(lines, idx):
    del lines[idx:]


def _pad_count(lines, idx):
    # the same count with a leading zero, which no canonical file has
    key, count = lines[idx].rsplit(" ", 1)
    lines[idx] = "%s 0%s" % (key, count)


# m = 4, vmax = 3: file line 3 is "1 1 0 4", lines 4-7 hold v = 2
# ("2 1 0 4" .. "2 2 0 36"), lines 8-15 v = 3 ("3 1 0 4" .. "3 3 0 360")
ROW_FAULTS = {
    "syntax": (lambda ls: _edit(ls, 8, "3 1 1 3//2"), 9, "bad row"),
    "zero-value": (lambda ls: _edit(ls, 4, "2 1 1 0"), 5, "bad row"),
    "negative-count": (lambda ls: _edit(ls, 5, "2 1 2 -48"), 6, "bad row"),
    "leading-zero-count": (lambda ls: _pad_count(ls, 11), 12, "bad row"),
    "leading-zero-s": (lambda ls: _edit(ls, 9, "3 1 02 360"), 10, "bad row"),
    "fraction-count": (lambda ls: _edit(ls, 6, "2 2 0 72/2"), 7, "bad row"),
    "out-of-order": (lambda ls: _swap(ls, 9), 11, "order"),
    "v-above-vmax": (lambda ls: _edit(ls, 14, "4 1 0 1"), 15, "vmax"),
    "t0-at-v1": (lambda ls: ls.insert(3, "2 0 1 1"), 4, "bad row"),
    "t-plus-s-above-m": (lambda ls: ls.insert(7, "2 2 3 1"), 8, "support"),
    "explicit-origin": (lambda ls: ls.insert(2, "0 0 0 1"), 3, "bad row"),
    "second-v0-row": (lambda ls: ls.insert(2, "0 1 0 1"), 3, "bad row"),
    "origin-value": (lambda ls: ls.insert(2, "0 0 0 2"), 3, "bad row"),
    "short-of-vmax": (lambda ls: _cut(ls, 7), 2, "vmax=3"),
}


def body_lines(path):
    text = path.read_text()
    return text[: text.rindex("end sha256=")].split("\n")[:-1]


def load_error(tmp_path, lines) -> TableFormatError:
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, "\n".join(lines) + "\n"))
    return err.value


@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_load_error_names_the_failing_line(table4, tmp_path, fault):
    _params, _table, path = table4
    lines = body_lines(path)
    edit, line, word = ROW_FAULTS[fault]
    edit(lines)
    err = load_error(tmp_path, lines)
    assert err.line == line
    assert word in str(err)


def _outcome(path):
    """The loaded table, or the text of the load's error."""
    try:
        return load_table(path)
    except TableFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("block", [10, 37, 64])
def test_small_read_blocks_load_and_fail_alike(table4, tmp_path, monkeypatch, block):
    # the reader takes the file a block at a time and holds back its last
    # line; blocks far smaller than the file give the table, or the error
    # and line, that one block holding the whole file gives
    _params, table, path = table4
    blob = path.read_bytes()
    body = blob[: blob.rindex(b"end sha256=")]
    files = {
        "valid": blob,
        "cut": blob[:-30],
        "other digest": body + b"end sha256=" + b"0" * 64 + b"\n",
        "bad row, other digest": body.replace(b"\n3 1 0 ", b"\n3 1 00 ") + blob[len(body):],
        "non-ASCII": signed(body.replace(b"\n3 2 0 ", b"\n3 2 0 \xff")),
        "bad header": signed(body.replace(b"vmax=3", b"vmax=x")),
    }
    for fault, (edit, _line, _word) in ROW_FAULTS.items():
        lines = body_lines(path)
        edit(lines)
        files[fault] = signed(("\n".join(lines) + "\n").encode())
    paths = {
        name: write_raw(tmp_path, data, name=name.replace(" ", "_")) for name, data in files.items()
    }
    whole = {name: _outcome(p) for name, p in paths.items()}
    assert whole["valid"] == table
    assert sum(isinstance(out, str) for out in whole.values()) == len(files) - 1
    monkeypatch.setattr(cptable, "_READ_BLOCK", block)
    assert {name: _outcome(p) for name, p in paths.items()} == whole


def test_a_file_changed_between_the_two_reads_does_not_load(table4, tmp_path, monkeypatch):
    # a file over one block is hashed, then read again for its rows; a
    # signed file that the second read finds in its place fails that
    # read's sha256 at its end, so no row the trailer did not sign loads
    _params, table, path = table4
    blob = path.read_bytes()
    body = blob[: blob.rindex(b"end sha256=")]
    changed = signed(body.replace(b"\n1 1 0 4\n", b"\n1 1 0 5\n"))
    assert load_table(write_raw(tmp_path, changed)).levels[0][0] == (1, 1, 0, 5)
    monkeypatch.setattr(cptable, "_READ_BLOCK", 64)
    real, passes = cptable._line_blocks, []

    def line_blocks(buf, fh):
        passes.append(buf)
        if len(passes) == 2:
            fh = io.BytesIO(changed)
            buf = fh.read(len(buf))
        return real(buf, fh)

    monkeypatch.setattr(cptable, "_line_blocks", line_blocks)
    with pytest.raises(TableFormatError) as err:
        load_table(path)
    assert len(passes) == 2
    assert err.value.line == body.count(b"\n") + 1
    assert "the file changed while it was read" in str(err.value)


@pytest.fixture(scope="module")
def table40_body(tmp_path_factory):
    """The body lines of an m = vmax = 40 file: 16,610 rows, several batches."""
    table = fill_table(EnsembleParams.from_checks(40), vmax=40)
    assert len(table.entries) == 16611 > 2 * _LOAD_BATCH
    path = tmp_path_factory.mktemp("cpt") / "m40.cpt"
    save_table(table, path)
    assert load_table(path) == table
    return body_lines(path)


@pytest.mark.parametrize(
    "edit, line, word",
    [
        # a fault in the third batch
        (lambda ls: _pad_count(ls, 9999), 10000, "bad row"),
        # the last row of the first batch swapped with the first of the next,
        # so each batch is in order by itself and only the boundary is not
        (lambda ls: _swap(ls, 1 + _LOAD_BATCH), 3 + _LOAD_BATCH, "order"),
    ],
    ids=["line-10000", "batch-boundary"],
)
def test_load_error_line_in_a_many_batch_table(table40_body, tmp_path, edit, line, word):
    lines = list(table40_body)
    edit(lines)
    err = load_error(tmp_path, lines)
    assert err.line == line
    assert word in str(err)


ROW_RE = re.compile(r"[1-9][0-9]* [1-9][0-9]* (?:0|[1-9][0-9]*) [1-9][0-9]*")


def walk_rows(lines, m, vmax):
    """The (line, message) load_table raises for rows lines under header m, vmax, or None.

    The reference for the batch checks: the rows are checked one at a
    time from file line 3, each for its syntax, then order, v <= vmax and
    t + s <= m, and the first that fails is named; a file whose rows all
    pass must reach vmax.  Tokens of any length are read through decimal.
    """
    prev_key = (0, 0, 0)
    for idx, line in enumerate(lines, start=3):
        if not ROW_RE.fullmatch(line):
            return idx, "bad row %r" % (line,)
        tokens = line.split()
        v, t, s = key = tuple(int(decimal.Decimal(tok)) for tok in tokens[:3])
        if key <= prev_key:
            return idx, "rows out of order at (%s)" % ", ".join(tokens[:3])
        prev_key = key
        if v > vmax:
            return idx, "v exceeds declared vmax"
        if t + s > m:
            return idx, "indices outside support"
    if prev_key[0] != vmax:
        return 2, "rows stop at v=%d but the header declares vmax=%d" % (prev_key[0], vmax)
    return None


BAD_ROWS = [
    "", "x", "1 1 0", "1 1 0 4 4", "1 1 0 0", "0 1 0 1", "1 0 1 1", "1 1 01 2",
    "1 1 0 -3", "1 1 0 3/2", "1  1 0 3", "1 1 0 3 ",
]
# past m = vmax = 5, past the map of small indices, past the int-to-str digit limit
BIG = ["6", "7", str(10**6), "9" * 5000]


def _apply_edit(lines, kind, i, k):
    """Edit row lines[i] (taken modulo the rows) by kind, k picking the value."""
    i %= len(lines)
    tokens = lines[i].split()
    if kind == "syntax":
        lines[i] = BAD_ROWS[k % len(BAD_ROWS)]
    elif kind == "repeat":
        # the same key again, with the same count or another
        lines.insert(i + 1, lines[i] if k % 2 else " ".join(tokens[:3] + ["1"]))
    elif kind == "swap":
        lines[i : i + 2] = lines[i : i + 2][::-1]
    elif kind == "key" and len(tokens) == 4:
        # a small key anywhere, so one row can fail two checks at once
        tokens[:3] = map(str, (1 + k % 7, 1 + k // 7 % 7, k // 49 % 8))
        lines[i] = " ".join(tokens)
    elif len(tokens) == 4:
        col = "vtsB".index(kind)
        tokens[col] = "5" if kind == "s" and k % 2 else BIG[k % len(BIG)]
        lines[i] = " ".join(tokens)


@pytest.mark.parametrize("batch", [1, 3, 16])
@settings(max_examples=60, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["syntax", "repeat", "swap", "key", "v", "t", "s", "B"]),
            st.integers(0, 100),
            st.integers(0, 400),
        ),
        min_size=1,
        max_size=3,
    )
)
# a repeated key; one row out of order with t + s > m; one with v > vmax and t + s > m
@example(edits=[("repeat", 0, 1)])
@example(edits=[("key", 2, 35)])
@example(edits=[("key", 0, 40)])
def test_batches_name_the_first_bad_line_the_row_walk_names(tmp_path_factory, batch, edits):
    # faults land on batch edges and several share a batch; the load
    # raises exactly the walk's line and message, or loads the rows
    table = fill_table(EnsembleParams.from_checks(5), vmax=5)
    lines = ["%d %d %d %d" % row for row in itertools.chain(*table.levels)]
    for edit in edits:
        _apply_edit(lines, *edit)
    body = "".join(line + "\n" for line in ["CPTABLE 3", "m=5 vmax=5", *lines])
    path = write(tmp_path_factory.mktemp("cpt"), body)
    expect = walk_rows(lines, 5, 5)
    with mock.patch.object(cptable, "_LOAD_BATCH", batch):
        if expect is None:
            loaded = load_table(path)
            assert list(itertools.chain(*loaded.levels)) == [
                tuple(int(decimal.Decimal(tok)) for tok in line.split()) for line in lines
            ]
            return
        with pytest.raises(TableFormatError) as err:
            load_table(path)
    assert str(err.value) == "line %d: %s" % expect


def test_load_complete_requires_origin_row(tmp_path):
    # no CPTABLE 3 row or level holds the origin; it is implied, so a
    # loaded table always has it
    text = "CPTABLE 3\nm=3 vmax=1\n1 1 0 3\n"
    table = load_table(write(tmp_path, text))
    assert table.levels == [[(1, 1, 0, 3)]]
    assert table.entries == {(0, 0, 0): 1, (1, 1, 0): Fraction(3, 2)}


def test_vmax0_table_is_the_origin(tmp_path):
    # a vmax=0 table stores the origin and nothing else, so its file has no row
    table = fill_table(EnsembleParams.from_checks(3), vmax=0)
    path = tmp_path / "origin.cptable"
    save_table(table, path)
    assert path.read_bytes() == signed(b"CPTABLE 3\nm=3 vmax=0\n")
    loaded = load_table(path)
    assert loaded == table
    assert loaded.entries == {(0, 0, 0): 1}


def test_v1_file_rejected_with_rebuild_hint(tmp_path):
    text = "CPTABLE 1\nm=4 vmax=3 base=empty\n1 1 0 2/1\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write_raw(tmp_path, text.encode()))
    assert "line 1" in str(err.value)
    assert "`cyclepoisson table build --m 4 --vmax 3`" in str(err.value)


def test_v2_file_rejected_with_rebuild_hint(tmp_path):
    # CPTABLE 2 held each entry as a reduced fraction; it is no longer read,
    # signed or not
    text = "CPTABLE 2\nm=12 vmax=16 base=unit-origin\n0 0 0 1/1\n1 1 0 6/1\n"
    for blob in (text.encode(), signed(text.encode())):
        with pytest.raises(TableFormatError) as err:
            load_table(write_raw(tmp_path, blob))
        assert err.value.line == 1
        assert "CPTABLE 2 files are no longer read" in str(err.value)
        assert "`cyclepoisson table build --m 12 --vmax 16`" in str(err.value)


def test_rebuild_hint_reads_only_the_first_two_lines(tmp_path, monkeypatch):
    # the hint needs the second line, not the rows after it, so a CPTABLE 2
    # file of 8 MiB is rejected with about one read block held; a second
    # line that goes on past a block is read to its end
    head = b"CPTABLE 2\nm=12 vmax=16 base=unit-origin\n"
    path = write_raw(tmp_path, head + b"1 1 0 6/1\n" * ((8 << 20) // 10))
    tracemalloc.start()
    try:
        with pytest.raises(TableFormatError) as err:
            load_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "`cyclepoisson table build --m 12 --vmax 16`" in str(err.value)
    assert peak < 2 * cptable._READ_BLOCK
    monkeypatch.setattr(cptable, "_READ_BLOCK", 10)
    with pytest.raises(TableFormatError) as err:
        load_table(path)
    assert err.value.line == 1
    assert "`cyclepoisson table build --m 12 --vmax 16`" in str(err.value)


def test_count_past_the_digit_limit_round_trips(tmp_path):
    # counts of any length are written and read without lifting the
    # interpreter's int-to-str digit limit (4300 digits by default)
    limit = sys.get_int_max_str_digits()
    big = 10**5000 + 1
    table = CoeffTable(EnsembleParams.from_checks(1), [[(1, 1, 0, big)]])
    path = tmp_path / "big.cpt"
    digest = save_table(table, path)
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert blob.split(b"\n")[2] == b"1 1 0 1" + b"0" * 4999 + b"1"
    assert load_table(path) == table
    assert sys.get_int_max_str_digits() == limit


LONG = "9" * 5000


@pytest.mark.parametrize(
    "text, line, word",
    [
        ("CPTABLE 3\nm=1 vmax=1\n1 1 0 %s\n" % LONG, None, None),
        ("CPTABLE 3\nm=1 vmax=1\n%s 1 0 1\n" % LONG, 3, "vmax"),
        ("CPTABLE 3\nm=1 vmax=1\n1 %s 0 1\n" % LONG, 3, "support"),
        ("CPTABLE 3\nm=1 vmax=1\n1 1 %s 1\n" % LONG, 3, "support"),
        ("CPTABLE 3\nm=%s vmax=1\n1 %s 0 1\n1 1 0 1\n" % (LONG, LONG), 4, "order"),
        ("CPTABLE 3\nm=1 vmax=%s\n1 1 0 1\n" % LONG, 2, "vmax=" + LONG),
        ("CPTABLE 3\nm=1 vmax=1\n1 1 0 -%s\n" % LONG, 3, "bad row"),
    ],
    ids=["count", "v", "t", "s", "order", "header-vmax", "negative-count"],
)
def test_rows_of_any_length_load_or_raise_a_format_error(tmp_path, text, line, word):
    path = write(tmp_path, text)
    if line is None:
        assert load_table(path).levels == [[(1, 1, 0, 10**5000 - 1)]]
        return
    with pytest.raises(TableFormatError) as err:
        load_table(path)
    assert err.value.line == line
    assert word in str(err.value)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 7), vmax=st.integers(0, 8))
def test_save_load_round_trip(tmp_path_factory, m, vmax):
    n = max(m, vmax)
    table = fill_table(EnsembleParams(n=n, r=Fraction(n - m, n)), vmax)
    path = tmp_path_factory.mktemp("cpt") / "t.cpt"
    save_table(table, path)
    assert load_table(path) == table


def test_s0_rows_are_stopping_set_counts(tmp_path):
    # each s = 0 row's count is the number of assignments of v variables
    # covering exactly t checks, each at least twice
    params = EnsembleParams.from_checks(9)
    path = tmp_path / "t.cpt"
    save_table(fill_table(params, 9), path)
    rows = [tuple(map(int, line.split())) for line in body_lines(path)[2:]]
    boundary = [row for row in rows if row[2] == 0]
    assert len(boundary) == sum(range(1, 10))
    for v, t, _s, b in boundary:
        assert b == stopping_set_count(params, v, t)


def test_trailer_must_match_and_end_the_file(table4, tmp_path):
    _params, _table, path = table4
    blob = path.read_bytes()
    body = blob[: blob.rindex(b"end sha256=")]
    digest = hashlib.sha256(body).hexdigest().encode()
    cases = {
        "missing": body,
        "uppercase hex": body + b"end sha256=" + digest.upper() + b"\n",
        "short hex": body + b"end sha256=" + digest[:-1] + b"\n",
        "no final newline": blob[:-1],
        "CRLF": blob[:-1] + b"\r\n",
        "line after trailer": blob + b"0 0 0 1/1\n",
        "second trailer": blob + blob[len(body):],
        "bytes after trailer": blob + b"x",
        "other digest": body + b"end sha256=" + b"0" * 64 + b"\n",
    }
    for name, bad in cases.items():
        with pytest.raises(TableFormatError):
            load_table(write_raw(tmp_path, bad, name=name.replace(" ", "_")))


def test_non_ascii_byte_is_a_format_error(table4, tmp_path):
    _params, _table, path = table4
    text = path.read_bytes().decode("ascii")
    body = text[: text.rindex("end sha256=")].replace("1 1 0 ", "1 1 0 \xff", 1)
    # signed so that the digest holds and decoding is what fails
    with pytest.raises(TableFormatError) as err:
        load_table(write_raw(tmp_path, signed(body.encode("latin-1"))))
    assert "non-ASCII" in str(err.value)


def test_truncated_mid_token_loads_partial(table4, tmp_path):
    # the partial load is gone: a cut inside the trailer raises
    _params, _table, path = table4
    with pytest.raises(TableFormatError):
        load_table(write_raw(tmp_path, path.read_bytes()[:-4]))


def test_truncation_never_yields_wrong_values(table4, tmp_path):
    # every byte cut of the file raises, the empty file included
    _params, _table, path = table4
    blob = path.read_bytes()
    for cut_len in range(len(blob)):
        with pytest.raises(TableFormatError):
            load_table(write_raw(tmp_path, blob[:cut_len]))


def test_every_row_byte_substitution_raises(table4, tmp_path):
    _params, _table, path = table4
    blob = path.read_bytes()
    rows_start = blob.index(b"\n", blob.index(b"\n") + 1) + 1
    rows_end = blob.rindex(b"end sha256=")
    for pos in range(rows_start, rows_end):
        for byte in {blob[pos] ^ 1, ord("0"), ord("7"), ord(" "), ord("/"), ord("\n"), 0xFF}:
            if byte == blob[pos]:
                continue
            bad = blob[:pos] + bytes([byte]) + blob[pos + 1:]
            with pytest.raises(TableFormatError):
                load_table(write_raw(tmp_path, bad))


def test_missing_trailing_newline_is_partial(table4, tmp_path):
    # the writer always ends with a newline; without it the trailer is malformed
    _params, _table, path = table4
    with pytest.raises(TableFormatError):
        load_table(write_raw(tmp_path, path.read_bytes().rstrip(b"\n")))


@settings(max_examples=12, deadline=None)
@given(m=st.integers(1, 6), data=st.data())
def test_saved_file_loads_whole_or_raises(tmp_path_factory, m, data):
    # fill_table needs vmax <= n, and n = m for a table-only ensemble
    vmax = data.draw(st.integers(0, m), label="vmax")
    table = fill_table(EnsembleParams.from_checks(m), vmax)
    path = tmp_path_factory.mktemp("cpt") / "t.cpt"
    save_table(table, path)
    assert load_table(path) == table
    blob = path.read_bytes()
    for cut_len in range(len(blob)):
        with pytest.raises(TableFormatError):
            load_table(write_raw(path.parent, blob[:cut_len]))
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
    with pytest.raises(TableFormatError):
        load_table(write_raw(path.parent, blob[:pos] + bytes([byte]) + blob[pos + 1:]))


# ----------------------------------------------------------------------
# the artifact writer: in place, then cut to the new length
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "old, new",
    [
        (b"a much longer old line\nand a second one\n", b"short\n"),
        (b"short\n", b"a much longer new line\nand a second one\n"),
        (b"identical bytes\n", b"identical bytes\n"),
        (None, b"a file that did not exist\n"),
    ],
    ids=["shorter-over-longer", "longer-over-shorter", "identical", "missing"],
)
def test_write_over_leaves_exactly_the_data(old, new, tmp_path):
    path = tmp_path / "artifact.csv"
    if old is not None:
        path.write_bytes(old)
        inode = path.stat().st_ino
    _write_over(path, [new[:5], new[5:]])
    assert path.read_bytes() == new
    if old is not None:
        assert path.stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_source_that_raises_leaves_what_came_before_it(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"a much longer old line\n")

    def chunks():
        yield b"new\n"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _write_over(path, chunks())
    assert path.read_bytes() == b"new\n"


@pytest.mark.parametrize("kept", [0, 1, 3], ids=["header", "one-level", "all-levels"])
def test_interrupted_build_leaves_a_file_load_table_refuses(tmp_path, kept):
    # the old file is longer and valid, and the build stops mid-table or
    # before its trailer
    path = tmp_path / "t.cpt"
    save_table(fill_table(EnsembleParams.from_checks(6), 6), path)

    def levels():
        yield from itertools.islice(_filled_levels(4, 3), kept)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _write_cptable(path, 4, 3, levels())
    with pytest.raises(TableFormatError):
        load_table(path)
