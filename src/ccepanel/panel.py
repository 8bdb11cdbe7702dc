"""Balanced panel container and long-format CSV ingestion.

The CSV schema is ``id,time,y,x1,...,xk`` (UTF-8, '.' decimal separator).
Blank rows are skipped and ids and time labels are stripped of surrounding
whitespace.  Units are ordered by first appearance in the file; periods are
sorted ascending by time label (by numeric value, then by label, when every
label is a number other than NaN; lexicographically otherwise).

The reader converts the file a block of rows at a time, a column at a time,
with ids and time labels as integer codes.  A file with a fault is read a
second time, row by row, only to word the error of its first faulty row.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .exceptions import InvalidInputError, PanelFormatError


@dataclass(frozen=True)
class Panel:
    """Balanced N x T panel of scalar outcomes and k-dimensional covariates.

    Attributes
    ----------
    outcomes : ndarray, shape (N, T)
    covariates : ndarray, shape (N, T, k)
    """

    outcomes: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.outcomes, dtype=float)
        x = np.asarray(self.covariates, dtype=float)
        if y.ndim != 2:
            raise InvalidInputError("outcomes must be an N x T matrix")
        if x.ndim != 3:
            raise InvalidInputError("covariates must be an N x T x k array")
        if x.shape[:2] != y.shape:
            raise InvalidInputError(
                f"covariate shape {x.shape} inconsistent with outcomes {y.shape}"
            )
        n, t = y.shape
        if n < 2 or t < 2:
            raise InvalidInputError(f"panel needs N >= 2 and T >= 2, got N={n}, T={t}")
        if x.shape[2] < 1:
            raise InvalidInputError("panel needs at least one covariate")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise InvalidInputError("panel contains non-finite cells (must be balanced)")
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "covariates", x)

    @property
    def n_units(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_periods(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[2]

    def subpanel(self, units=slice(None), periods=slice(None)) -> "Panel":
        """New Panel restricted to the given unit/period slices."""
        return Panel(
            self.outcomes[units, periods],
            self.covariates[units, periods, :],
        )


def read_panel_csv(path) -> Panel:
    """Parse a long-format CSV file into a balanced :class:`Panel`.

    Raises :class:`PanelFormatError` on a file that is not UTF-8, a missing
    header, a row with the wrong number of fields, non-numeric or
    non-finite fields (with the row number), duplicate (id, time) cells, or
    an unbalanced panel (listing up to 10 missing cells).  When a file has
    several faults, the first in file order is reported.
    """
    try:
        panel = _read_blocks(path)
        if panel is None:
            _raise_first_fault(path)
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: not UTF-8 text: {exc}") from None
    return panel


# Rows per block of the CSV reader and writer.  A block's rows are Python
# strings until the block is converted, so this bounds the reader's memory
# above its arrays; much larger blocks raise the peak without being faster.
_BLOCK_ROWS = 1024


@contextmanager
def _data_rows(path):
    """Open ``path``, check its header, and yield (csv reader over the data
    rows, number of covariates)."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise PanelFormatError(f"cannot read panel file: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise PanelFormatError(f"{path}: row 1 cannot be read: {exc}") from None
        header = [h.strip() for h in header]
        if len(header) < 4 or header[0] != "id" or header[1] != "time" or header[2] != "y":
            raise PanelFormatError(
                f"{path}: header must be 'id,time,y,x1,...,xk', got {header!r}"
            )
        k = len(header) - 3
        expected_x = [f"x{j}" for j in range(1, k + 1)]
        if header[3:] != expected_x:
            raise PanelFormatError(
                f"{path}: covariate columns must be {expected_x}, got {header[3:]}"
            )
        yield reader, k


class _Codes(dict):
    """Label -> integer code, in order of first appearance."""

    def __missing__(self, label):
        self[label] = code = len(self)
        return code


def _read_blocks(path):
    """The panel from one column-wise pass over blocks of rows, or None when
    the file has a fault (which ``_raise_first_fault`` then words)."""
    units, times = _Codes(), _Codes()
    unit_codes, time_codes, values = [], [], []
    with _data_rows(path) as (reader, k):
        try:
            for block in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
                columns = _block_columns(block, k)
                if columns is None:
                    columns = _block_columns([row for row in block if not _is_blank(row)], k)
                    if columns is None:
                        return None
                ids, labels, vals = columns
                unit_codes.append(
                    np.fromiter(map(units.__getitem__, map(str.strip, ids)), np.intp))
                time_codes.append(
                    np.fromiter(map(times.__getitem__, map(str.strip, labels)), np.intp))
                values.append(vals)
        except csv.Error:
            return None  # a row the csv module cannot read (a field over its size limit)
    if not units:
        return None  # no data rows
    values = np.concatenate(values, axis=1)
    n, t = len(units), len(times)
    if values.shape[1] != n * t or not np.isfinite(values).all():
        return None  # a duplicate, a missing cell or a non-finite field
    period = np.empty(t, dtype=np.intp)
    period[[times[label] for label in _sort_time_labels(times)]] = np.arange(t)
    cell = np.concatenate(unit_codes) * t + period[np.concatenate(time_codes)]
    if (np.bincount(cell, minlength=n * t) != 1).any():
        return None
    y = np.empty(n * t)
    y[cell] = values[0]
    x = np.empty((n * t, k))
    x[cell] = values[1:].T
    return Panel(y.reshape(n, t), x.reshape(n, t, k))


def _block_columns(rows, k):
    """(ids, time labels, (k+1, rows) float values) of rows that all have
    k + 3 fields with numbers in the value fields, else None."""
    if not rows:
        return (), (), np.empty((k + 1, 0))
    try:
        ids, labels, *fields = zip(*rows, strict=True)
        if len(fields) == k + 1:
            # each field goes through float(), as in the row scan
            return ids, labels, np.array(fields, dtype=float)
    except ValueError:
        pass
    return None


def _is_blank(row) -> bool:
    return not row or all(not c.strip() for c in row)


def _numbered_rows(path, reader):
    """(row number, row) of each data row; a row the csv module cannot read
    (a field over its size limit) raises an error naming that row."""
    row_no = 1
    try:
        for row_no, row in enumerate(reader, start=2):
            yield row_no, row
    except csv.Error as exc:
        raise PanelFormatError(f"{path}: row {row_no + 1} cannot be read: {exc}") from None


def _raise_first_fault(path):
    """Re-read ``path`` row by row and raise the error of its first fault in
    file order; reached only when ``_read_blocks`` met a fault."""
    with _data_rows(path) as (reader, k):
        units: dict[str, None] = {}
        times: set[str] = set()
        cells: set[tuple[str, str]] = set()
        for row_no, row in _numbered_rows(path, reader):
            if _is_blank(row):
                continue
            if len(row) != k + 3:
                raise PanelFormatError(
                    f"{path}: row {row_no} has {len(row)} fields, expected {k + 3}"
                )
            try:
                vals = [float(c) for c in row[2:]]
            except ValueError:
                raise PanelFormatError(
                    f"{path}: non-numeric field in row {row_no}: {row!r}"
                ) from None
            if not all(map(math.isfinite, vals)):
                raise PanelFormatError(f"{path}: non-finite field in row {row_no}: {row!r}")
            uid, tlabel = row[0].strip(), row[1].strip()
            if (uid, tlabel) in cells:
                raise PanelFormatError(
                    f"{path}: duplicate cell (id={uid}, time={tlabel}) at row {row_no}"
                )
            units[uid] = None
            times.add(tlabel)
            cells.add((uid, tlabel))

    if not cells:
        raise PanelFormatError(f"{path}: no data rows")
    time_order = _sort_time_labels(times)
    n_missing = len(units) * len(time_order) - len(cells)
    if n_missing:
        missing = ((uid, tl) for uid in units for tl in time_order if (uid, tl) not in cells)
        shown = ", ".join(f"({u},{t})" for u, t in islice(missing, 10))
        more = "" if n_missing <= 10 else f" and {n_missing - 10} more"
        raise PanelFormatError(f"{path}: unbalanced panel, missing cells {shown}{more}")
    raise RuntimeError(f"{path}: the block reader rejected a panel the row scan accepts")


def _sort_time_labels(labels):
    """Numerically, ties broken by label (``01`` < ``1`` < ``1.0``), when
    every label is a number other than NaN; else lexicographically."""
    try:
        keyed = sorted((float(label), label) for label in labels)
    except ValueError:
        return sorted(labels)
    if any(math.isnan(value) for value, _ in keyed):
        return sorted(labels)
    return [label for _, label in keyed]


def write_panel_csv(panel: Panel, path) -> None:
    """Write a Panel in the long-format CSV schema (ids and times are 1-based)."""
    n, t, k = panel.n_units, panel.n_periods, panel.n_covariates
    y = panel.outcomes.reshape(-1)
    x = panel.covariates.reshape(-1, k)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "y"] + [f"x{j}" for j in range(1, k + 1)])
        for start in range(0, n * t, _BLOCK_ROWS):
            cell = np.arange(start, min(start + _BLOCK_ROWS, n * t))
            # repr of a python float is the shortest exact round trip
            columns = [y[cell].tolist()] + x[cell].T.tolist()
            writer.writerows(zip((cell // t + 1).tolist(), (cell % t + 1).tolist(),
                                 *(map(repr, col) for col in columns)))
