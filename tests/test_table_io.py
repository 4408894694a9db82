"""CPTABLE file format: canonical writes, and loads that are complete or raise.

A CPTABLE 2 file ends with "end sha256=<hex>" over every byte before it,
so no truncation or changed byte can load; the rows are then validated.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepoisson.errors import TableFormatError
from cyclepoisson.table import (
    BaseConfig,
    EnsembleParams,
    fill_table,
    load_table,
    save_table,
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
    assert lines[0] == "CPTABLE 2"
    assert lines[1] == "m=4 vmax=3 base=unit-origin"
    assert lines[2] == "0 0 0 1/1"
    assert text.endswith("\n")
    assert "\r" not in text
    body = blob[: blob.rindex(b"end sha256=")]
    assert lines[-2] == "end sha256=" + hashlib.sha256(body).hexdigest()
    rows = lines[2:-2]
    keys = [tuple(int(x) for x in row.split()[:3]) for row in rows]
    assert keys == sorted(keys)


def test_load_bad_magic(tmp_path):
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, "CPTABLE 9\nm=3 vmax=1 base=unit-origin\n"))
    assert "line 1" in str(err.value)


def test_load_bad_header(tmp_path):
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, "CPTABLE 2\nm=3 vmax=x base=unit-origin\n"))
    assert "line 2" in str(err.value)


def test_load_unknown_base_is_a_format_error(tmp_path):
    # the header regex admits any lowercase label; only BaseConfig knows
    # which ones exist
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, "CPTABLE 2\nm=3 vmax=0 base=foo\n0 0 0 1/1\n"))
    assert err.value.line == 2
    assert "'foo'" in str(err.value)


def test_load_bad_row_syntax(tmp_path):
    text = (
        "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n"
        "0 0 0 1/1\n1 1 0 3/2/9\n1 1 0 3/2\n"
    )
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "line 4" in str(err.value)


def test_load_rejects_zero_value(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n0 0 0 1/1\n1 1 0 0/1\n1 1 0 3/2\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "omitted" in str(err.value)


def test_load_rejects_unreduced_fraction(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n0 0 0 1/1\n1 1 0 6/4\n1 2 0 1/1\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "lowest terms" in str(err.value)


def test_load_rejects_out_of_order_rows(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n0 0 0 1/1\n1 2 0 1/1\n1 1 0 3/2\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "order" in str(err.value)


def test_load_rejects_v_above_declared(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n0 0 0 1/1\n2 1 0 3/8\n1 1 0 3/2\n"
    with pytest.raises(TableFormatError):
        load_table(write(tmp_path, text))


def test_load_rejects_levels_short_of_declared(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=2 base=unit-origin\n0 0 0 1/1\n1 1 0 3/2\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "vmax=2" in str(err.value)


def test_load_rejects_indices_outside_support(tmp_path):
    # s can be at most m - t
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n0 0 0 1/1\n1 1 3 1/1\n1 2 0 1/1\n"
    with pytest.raises(TableFormatError):
        load_table(write(tmp_path, text))


def test_load_rejects_origin_conflict(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n0 0 0 2/1\n1 1 0 3/2\n"
    with pytest.raises(TableFormatError):
        load_table(write(tmp_path, text))


def test_load_complete_requires_origin_row(tmp_path):
    text = "CPTABLE 2\nm=3 vmax=1 base=unit-origin\n1 1 0 3/2\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write(tmp_path, text))
    assert "base row" in str(err.value)


def test_load_empty_base_complete(tmp_path):
    # under the empty base config a vmax=0 table stores nothing at all
    params = EnsembleParams.from_checks(3)
    table = fill_table(params, vmax=0, base=BaseConfig.EMPTY)
    path = tmp_path / "empty.cptable"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded == table
    assert loaded.entries == {}


def test_v1_file_rejected_with_rebuild_hint(tmp_path):
    text = "CPTABLE 1\nm=4 vmax=3 base=empty\n1 1 0 2/1\n"
    with pytest.raises(TableFormatError) as err:
        load_table(write_raw(tmp_path, text.encode()))
    assert "line 1" in str(err.value)
    assert "cyclepoisson table build --m 4 --vmax 3 --base empty" in str(err.value)


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
@given(m=st.integers(1, 6), base=st.sampled_from(list(BaseConfig)), data=st.data())
def test_saved_file_loads_whole_or_raises(tmp_path_factory, m, base, data):
    # fill_table needs vmax <= n, and n = m for a table-only ensemble
    vmax = data.draw(st.integers(0, m), label="vmax")
    table = fill_table(EnsembleParams.from_checks(m), vmax, base=base)
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
