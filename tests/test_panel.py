import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ccepanel as cp
import ccepanel.panel as panel_module
from ccepanel import InvalidInputError, PanelFormatError

import oracles


def test_panel_validation():
    with pytest.raises(InvalidInputError):
        cp.Panel(np.zeros((1, 5)), np.zeros((1, 5, 2)))  # N < 2
    with pytest.raises(InvalidInputError):
        cp.Panel(np.zeros((5, 1)), np.zeros((5, 1, 2)))  # T < 2
    with pytest.raises(InvalidInputError):
        cp.Panel(np.zeros((3, 4)), np.zeros((3, 5, 2)))  # shape mismatch
    y = np.zeros((3, 4))
    y[1, 2] = np.nan
    with pytest.raises(InvalidInputError, match="balanced"):
        cp.Panel(y, np.zeros((3, 4, 1)))


def test_read_small_panel(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "id,time,y,x1\n"
        "a,1,0,1.5\n"
        "a,2,1,2.5\n"
        "b,1,1,-0.5\n"
        "b,2,0,0.25\n"
    )
    panel = cp.read_panel_csv(path)
    assert (panel.n_units, panel.n_periods, panel.n_covariates) == (2, 2, 1)
    assert_allclose(panel.outcomes, [[0, 1], [1, 0]])
    assert_allclose(panel.covariates[:, :, 0], [[1.5, 2.5], [-0.5, 0.25]])


def test_read_panel_orders_units_by_appearance_and_times_ascending(tmp_path):
    path = tmp_path / "p.csv"
    # unit z appears first; times are out of order and numeric
    path.write_text(
        "id,time,y,x1\n"
        "z,10,1,1\n"
        "a,2,0,2\n"
        "z,2,0,3\n"
        "a,10,1,4\n"
    )
    panel = cp.read_panel_csv(path)
    # row 0 is unit z; periods sorted numerically (2 before 10)
    assert_allclose(panel.covariates[0, :, 0], [3, 1])
    assert_allclose(panel.covariates[1, :, 0], [2, 4])


def test_read_panel_missing_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,time,y,x1\n1,1,0,1\n1,2,0,1\n2,1,0,1\n")
    with pytest.raises(PanelFormatError, match=r"\(2,2\)"):
        cp.read_panel_csv(path)


def test_read_panel_duplicate_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,time,y,x1\n1,1,0,1\n1,1,0,2\n")
    with pytest.raises(PanelFormatError, match="duplicate"):
        cp.read_panel_csv(path)


def test_read_panel_non_numeric_reports_row(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("id,time,y,x1\n1,1,0,1\n1,2,zero,1\n")
    with pytest.raises(PanelFormatError, match="row 3"):
        cp.read_panel_csv(path)


def test_read_panel_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("unit,period,outcome\n")
    with pytest.raises(PanelFormatError, match="header"):
        cp.read_panel_csv(path)


def test_round_trip_is_bit_identical(tmp_path):
    draw = cp.generate(cp.DgpConfig(n_units=12, n_periods=9, seed=4))
    path = tmp_path / "panel.csv"
    cp.write_panel_csv(draw.panel, path)
    back = cp.read_panel_csv(path)
    assert np.array_equal(back.outcomes, draw.panel.outcomes)
    assert np.array_equal(back.covariates, draw.panel.covariates)


def test_subpanel_slices():
    y = np.arange(12.0).reshape(3, 4)
    x = np.arange(24.0).reshape(3, 4, 2)
    panel = cp.Panel(y, x)
    sub = panel.subpanel(units=slice(0, 2), periods=slice(1, 4))
    assert (sub.n_units, sub.n_periods) == (2, 3)
    assert_allclose(sub.outcomes, y[:2, 1:])
    assert_allclose(sub.covariates, x[:2, 1:])
    # the fit reshapes a period half's arrays on every outer iteration
    assert sub.outcomes.flags.c_contiguous and sub.covariates.flags.c_contiguous


# --- the CSV reader against the row-by-row oracle -------------------------


def _outcome(read, path):
    """The arrays a reader returns (as shape and bytes), or its error."""
    try:
        panel = read(path)
    except (PanelFormatError, InvalidInputError) as exc:
        return type(exc).__name__, str(exc)
    return [(a.shape, a.tobytes()) for a in (panel.outcomes, panel.covariates)]


def _same_as_oracle(path):
    got = _outcome(cp.read_panel_csv, path)
    assert got == _outcome(oracles.read_panel_csv_rows, path)
    return got


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _rows(n, t):
    return [f"u{i},{s + 1},{(i + s) % 2},{i - 0.25 * s}" for i in range(n) for s in range(t)]


def test_read_panel_wrong_field_count(tmp_path):
    path = _write(tmp_path / "p.csv", ["id,time,y,x1", "1,1,0,1", "1,2,0", "2,1,0,1"])
    with pytest.raises(PanelFormatError, match="row 3 has 3 fields, expected 4"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)


def test_read_panel_empty_file_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(PanelFormatError, match="empty file"):
        cp.read_panel_csv(empty)
    header = _write(tmp_path / "header.csv", ["id,time,y,x1"])
    with pytest.raises(PanelFormatError, match="no data rows"):
        cp.read_panel_csv(header)
    blank = _write(tmp_path / "blank.csv", ["id,time,y,x1", "", "  ", ",,,"])
    with pytest.raises(PanelFormatError, match="no data rows"):
        cp.read_panel_csv(blank)
    for path in (empty, header, blank):
        _same_as_oracle(path)


def test_read_panel_skips_blank_and_whitespace_rows(tmp_path):
    plain = _write(tmp_path / "plain.csv", ["id,time,y,x1"] + _rows(2, 3))
    rows = _rows(2, 3)
    gappy = _write(tmp_path / "gappy.csv",
                   ["id,time,y,x1", ""] + rows[:2] + ["   ", ",,,", " , ,\t, "] + rows[2:] + [""])
    assert _same_as_oracle(gappy) == _outcome(cp.read_panel_csv, plain)
    # blank rows still count in the row numbers of an error
    bad = _write(tmp_path / "bad.csv", ["id,time,y,x1", "", "  "] + rows[:2] + ["u9,1,zero,1"])
    with pytest.raises(PanelFormatError, match="row 6"):
        cp.read_panel_csv(bad)
    _same_as_oracle(bad)


def test_read_panel_strips_ids_and_times(tmp_path):
    plain = _write(tmp_path / "plain.csv", ["id,time,y,x1"] + _rows(2, 2))
    padded = _write(tmp_path / "padded.csv", [
        "id,time,y,x1", " u0 ,1,0,0.0", "u0, 2 ,1,-0.25", "\tu1,1 ,1,1.0", "u1  ,  2,0,0.75",
    ])
    assert _same_as_oracle(padded) == _outcome(cp.read_panel_csv, plain)
    # a padded label names the same cell as the bare one
    dup = _write(tmp_path / "dup.csv", ["id,time,y,x1", "u0,1,0,1", " u0 , 1 ,0,1"])
    with pytest.raises(PanelFormatError, match=r"duplicate cell \(id=u0, time=1\) at row 3"):
        cp.read_panel_csv(dup)
    _same_as_oracle(dup)


def test_read_panel_lexicographic_time_labels(tmp_path):
    path = _write(tmp_path / "p.csv", [
        "id,time,y,x1", "a,mar,0,3", "a,jan,0,1", "a,feb,0,2", "b,feb,1,5", "b,jan,1,4", "b,mar,1,6",
    ])
    panel = cp.read_panel_csv(path)
    assert_allclose(panel.covariates[:, :, 0], [[2, 1, 3], [5, 4, 6]])  # feb, jan, mar
    _same_as_oracle(path)
    # one non-numeric label makes the whole order lexicographic: "10" < "9" < "x"
    mixed = _write(tmp_path / "mixed.csv",
                   ["id,time,y,x1", "a,9,0,1", "a,x,0,2", "a,10,0,3", "b,9,0,4", "b,x,0,5", "b,10,0,6"])
    assert_allclose(cp.read_panel_csv(mixed).covariates[:, :, 0], [[3, 1, 2], [6, 4, 5]])
    _same_as_oracle(mixed)


def test_read_panel_units_need_not_be_contiguous(tmp_path):
    path = _write(tmp_path / "p.csv", [
        "id,time,y,x1", "b,2,0,4", "a,1,0,1", "c,1,0,7", "b,1,0,3", "a,2,0,2", "c,2,0,8",
    ])
    panel = cp.read_panel_csv(path)
    assert_allclose(panel.covariates[:, :, 0], [[3, 4], [1, 2], [7, 8]])  # b, a, c
    _same_as_oracle(path)


def test_read_panel_quoted_fields(tmp_path):
    path = _write(tmp_path / "p.csv", [
        'id,time,y,"x1"', '"a,1",1,"0","1.5"', '"a,1","2",1,2.5', 'b,1,"1",-0.5', '"b",2,0," 0.25 "',
    ])
    panel = cp.read_panel_csv(path)
    assert_allclose(panel.covariates[:, :, 0], [[1.5, 2.5], [-0.5, 0.25]])
    _same_as_oracle(path)


def test_read_panel_counts_missing_cells_beyond_ten(tmp_path):
    rows = _rows(4, 5)
    path = _write(tmp_path / "p.csv", ["id,time,y,x1"] + rows[:5] + ["u1,1,0,0", "u2,2,0,0", "u3,3,0,0"])
    with pytest.raises(PanelFormatError, match=r"missing cells \(u1,2\), .* and 2 more$"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)


def test_read_panel_reports_the_first_fault_in_file_order(tmp_path):
    # a duplicate before a non-numeric field: the duplicate's message wins
    path = _write(tmp_path / "p.csv", ["id,time,y,x1", "1,1,0,1", "1,1,0,2", "1,2,zero,1"])
    with pytest.raises(PanelFormatError, match="duplicate cell .* at row 3"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)


def test_read_panel_faults_past_the_first_block(tmp_path):
    # 1,200 rows: the duplicate's two rows lie in different 1,024-row blocks
    rows = _rows(3, 400)
    dup = list(rows)
    dup[1038] = "u0,6,0,0"  # file row 1,040 repeats file row 7
    dup[1048] = "u2,249,one,0"  # file row 1,050
    path = _write(tmp_path / "dup.csv", ["id,time,y,x1"] + dup)
    with pytest.raises(PanelFormatError, match=r"duplicate cell \(id=u0, time=6\) at row 1040"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)
    nonnum = list(rows)
    nonnum[1033] = "u2,234,0,x"  # file row 1,035, before the duplicate
    nonnum[1038] = "u0,6,0,0"
    path = _write(tmp_path / "nonnum.csv", ["id,time,y,x1"] + nonnum)
    with pytest.raises(PanelFormatError, match="non-numeric field in row 1035"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)
    _same_as_oracle(_write(tmp_path / "good.csv", ["id,time,y,x1"] + rows))


def test_read_panel_opens_a_faulty_file_once(tmp_path):
    path = _write(tmp_path / "p.csv", ["id,time,y,x1", "1,1,0,1", "1,2,zero,1", "2,1,0,1"])
    with mock.patch.object(panel_module, "open", wraps=open, create=True) as opened:
        with pytest.raises(PanelFormatError, match="non-numeric field in row 3"):
            cp.read_panel_csv(path)
    assert opened.call_count == 1


def test_read_panel_names_a_row_over_the_csv_field_limit(tmp_path):
    # 1,200 rows: the over-long field (file row 1,100) is in the second
    # block; a duplicate in the first block comes first in file order
    rows = _rows(3, 400)
    rows[1098] = rows[1098].rsplit(",", 1)[0] + "," + "1" * 200_000
    path = _write(tmp_path / "long.csv", ["id,time,y,x1"] + rows)
    with pytest.raises(PanelFormatError, match="row 1100 cannot be read: field larger"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)
    rows[10] = rows[3]  # file row 12 repeats file row 5
    path = _write(tmp_path / "dup.csv", ["id,time,y,x1"] + rows)
    with pytest.raises(PanelFormatError, match=r"duplicate cell \(id=u0, time=4\) at row 12"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)
    path = _write(tmp_path / "header.csv", ["id,time,y,x1" + "1" * 200_000] + rows)
    with pytest.raises(PanelFormatError, match="row 1 cannot be read"):
        cp.read_panel_csv(path)
    _same_as_oracle(path)


# Field strings: valid in unusual spellings, invalid, and non-finite.  The
# package converts a column at a time, the oracle a field at a time with
# ``float``; both must accept exactly the same strings.
ODD_FIELDS = [" 1.5 ", "1_0", "+.5", "-0", "-0.0", "1e-400", "١", "\t2\t",
              "1e400", "-inf", "nan", "Infinity",
              "0x1p3", "1__0", "_1", "", " ", "abc", "1,5", "1.0j"]
BLANK_ROWS = ["", "   ", ",,,", " ,\t, ,"]
TIME_LABELS = [
    ["1", "2", "3", "4"],
    ["10", "9", "1", "2"],
    ["jan", "feb", "mar", "apr"],
    ["1", "x", "10", "9"],
    ["1", "01", "1.0", "2"],
    ["1.5", "-3", "1e1", "0"],
    ["2", "nan", "1", "-inf"],
]


@st.composite
def garbled_csv(draw):
    n, t, k = draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(1, 2))
    labels = draw(st.sampled_from(TIME_LABELS))[:t]
    number = st.floats(-1e3, 1e3).map(repr)
    pad = st.sampled_from(["", " ", "\t"])
    rows = [
        [draw(pad) + f"u{i}" + draw(pad), draw(pad) + labels[s] + draw(pad)]
        + [draw(number) for _ in range(k + 1)]
        for i in range(n) for s in range(t)
    ]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(
            ["field", "field", "drop", "extra", "dup", "delete", "blank", "long"]))
        if kind == "field" and len(rows[at]) > 2:
            rows[at][draw(st.integers(2, len(rows[at]) - 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif kind == "drop":
            rows[at] = rows[at][:-1]
        elif kind == "extra":
            rows[at] = rows[at] + ["0"]
        elif kind == "dup":
            rows[at] = rows[draw(st.integers(0, len(rows) - 1))][:2] + rows[at][2:]
        elif kind == "delete":
            del rows[at]
        elif kind == "long":  # a field over the csv module's size limit
            rows.insert(at, ["u0", labels[0], "1" * 200_000] + ["0"] * k)
        else:
            rows.insert(at, [draw(st.sampled_from(BLANK_ROWS))])
    header = ",".join(["id", "time", "y"] + [f"x{j}" for j in range(1, k + 1)])
    return [header] + [",".join(row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(lines=garbled_csv(), block=st.sampled_from([1, 2, 3, 1024]))
def test_reader_matches_row_oracle(lines, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "p.csv", lines)
        with mock.patch.object(panel_module, "_BLOCK_ROWS", block):
            _same_as_oracle(path)


def test_read_panel_names_the_first_non_finite_row(tmp_path):
    for value in ("nan", "inf", "-Infinity", "1e400"):
        path = _write(tmp_path / "p.csv",
                      ["id,time,y,x1", "1,1,0,1", "1,2,0,1", f"2,1,0,{value}", "2,2,nan,1"])
        with pytest.raises(PanelFormatError, match=f"non-finite field in row 4: .*'{value}'"):
            cp.read_panel_csv(path)
        _same_as_oracle(path)


def test_read_panel_rejects_non_utf8(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"id,time,y,x1\n1,1,0,1\n1,2,0,\xff\n2,1,0,1\n2,2,0,1\n")
    with pytest.raises(PanelFormatError, match=r"p\.csv: not UTF-8 text: .*0xff"):
        cp.read_panel_csv(path)


def test_period_order_does_not_depend_on_the_hash_seed(tmp_path):
    # 1, 01 and 1.0 are three periods with the same numeric value
    path = _write(tmp_path / "p.csv", [
        "id,time,y,x1", "a,1.0,0,3", "a,1,0,2", "a,01,0,1", "b,01,0,4", "b,1.0,0,6", "b,1,0,5",
    ])
    script = f"import ccepanel; print(ccepanel.read_panel_csv({str(path)!r}).covariates.tolist())"
    src = str(Path(cp.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        outputs.add(proc.stdout)
    assert outputs == {"[[[1.0], [2.0], [3.0]], [[4.0], [5.0], [6.0]]]\n"}  # 01, 1, 1.0


def test_writer_matches_row_oracle(tmp_path):
    # 1,500 cells: the writer's second block is a partial one
    panel = cp.generate(cp.DgpConfig(n_units=30, n_periods=50, seed=3)).panel
    x = panel.covariates.copy()
    x[0, :4, 0] = [-0.0, 5e-324, 1e300, -1.25e-7]
    panel = cp.Panel(panel.outcomes, x)
    cp.write_panel_csv(panel, tmp_path / "blocks.csv")
    oracles.write_panel_csv_rows(panel, tmp_path / "rows.csv")
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 30 * 50
