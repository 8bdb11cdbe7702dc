"""Balanced panel container and long-format CSV ingestion.

The CSV schema is ``id,time,y,x1,...,xk`` (UTF-8, '.' decimal separator).
Blank rows are skipped and ids and time labels are stripped of surrounding
whitespace.  Units are ordered by first appearance in the file; periods are
sorted ascending by time label (by numeric value, then by label, when every
label is a number other than NaN; lexicographically otherwise).

The reader converts the file a block of rows at a time, a column at a time,
with ids and time labels as integer codes.  A block that fails conversion
is walked row by row to word the error of its first faulty row, and the
file is read no further.
"""

from __future__ import annotations

import csv
import math
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
        """New Panel restricted to the given unit/period slices.

        Its arrays are C-contiguous (a period slice is copied), so the
        fit's reshapes of them are views rather than copies.
        """
        return Panel(
            np.ascontiguousarray(self.outcomes[units, periods]),
            np.ascontiguousarray(self.covariates[units, periods, :]),
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
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise PanelFormatError(f"cannot read panel file: {exc}") from exc
    try:
        with fh:
            return _read_blocks(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: not UTF-8 text: {exc}") from None


# Rows per block of the CSV reader and writer.  A block's rows are Python
# strings until the block is converted, so this bounds the reader's memory
# above its arrays; much larger blocks raise the peak without being faster.
_BLOCK_ROWS = 1024


class _Codes(dict):
    """Label -> integer code, in order of first appearance."""

    def __missing__(self, label):
        self[label] = code = len(self)
        return code


def _read_blocks(path, reader):
    """The panel from one pass over blocks of rows, each converted a column
    at a time; a block that fails conversion is walked row by row to find
    its first fault, and reading stops there."""
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

    units, times = _Codes(), _Codes()
    unit_codes, time_codes, row_nos, values = [], [], [], []
    fault, last = None, 1  # the first fault's message; the row number of the last row read
    while fault is None:
        block = []
        try:
            block.extend(islice(reader, _BLOCK_ROWS))
        except csv.Error as exc:  # a field over the csv module's size limit
            fault = f"{path}: row {last + len(block) + 1} cannot be read: {exc}"
        if not block:
            break
        first_row, last = last + 1, last + len(block)
        numbers = np.arange(first_row, last + 1)
        columns = _block_columns(block, k)
        if columns is None:
            columns, numbers, row_fault = _first_fault(path, block, first_row, k)
            fault = row_fault or fault  # a faulty row precedes the unreadable one
        ids, labels, vals = columns
        unit_codes.append(np.fromiter(map(units.__getitem__, map(str.strip, ids)), np.intp))
        time_codes.append(np.fromiter(map(times.__getitem__, map(str.strip, labels)), np.intp))
        row_nos.append(np.asarray(numbers, dtype=np.intp))
        values.append(vals)
    if not units:
        raise PanelFormatError(fault or f"{path}: no data rows")

    n, t = len(units), len(times)
    time_order = _sort_time_labels(times)
    period = np.empty(t, dtype=np.intp)
    period[[times[label] for label in time_order]] = np.arange(t)
    unit_codes, time_codes = np.concatenate(unit_codes), np.concatenate(time_codes)
    cell = unit_codes * t + period[time_codes]
    # an unbalanced file can name far more cells than it has rows, so only
    # a full count of cells is binned
    if fault or len(cell) != n * t or (np.bincount(cell) != 1).any():
        present, first = np.unique(cell, return_index=True)
        if len(present) < len(cell):
            # every coded row precedes the fault, so a duplicate among them wins
            repeat = np.ones(len(cell), dtype=bool)
            repeat[first] = False
            at = repeat.argmax()  # the first repeat in file order
            uid, tlabel = list(units)[unit_codes[at]], list(times)[time_codes[at]]
            row_no = np.concatenate(row_nos)[at]
            raise PanelFormatError(
                f"{path}: duplicate cell (id={uid}, time={tlabel}) at row {row_no}")
        if fault:
            raise PanelFormatError(fault)
        # the first 10 missing cells, in unit x period order, lie below len(cell) + 10
        low = np.arange(min(n * t, len(cell) + 10))
        unit_order, n_missing = list(units), n * t - len(cell)
        shown = ", ".join(f"({unit_order[c // t]},{time_order[c % t]})"
                          for c in low[~np.isin(low, present)][:10])
        more = "" if n_missing <= 10 else f" and {n_missing - 10} more"
        raise PanelFormatError(f"{path}: unbalanced panel, missing cells {shown}{more}")
    values = np.concatenate(values, axis=1)
    y = np.empty(n * t)
    y[cell] = values[0]
    x = np.empty((n * t, k))
    x[cell] = values[1:].T
    return Panel(y.reshape(n, t), x.reshape(n, t, k))


def _block_columns(rows, k):
    """(ids, time labels, (k+1, rows) float values) of rows that all have
    k + 3 fields with finite numbers in the value fields, else None."""
    if not rows:
        return (), (), np.empty((k + 1, 0))
    try:
        ids, labels, *fields = zip(*rows, strict=True)
        if len(fields) == k + 1:
            # each field goes through float(), as in _first_fault
            values = np.array(fields, dtype=float)
            if np.isfinite(values).all():
                return ids, labels, values
    except ValueError:
        pass
    return None


def _first_fault(path, rows, row_no, k):
    """(the columns of the non-blank rows before the first faulty one, their
    row numbers, that row's error message or None); ``row_no`` numbers
    ``rows[0]``."""
    numbered = [(n, row) for n, row in enumerate(rows, start=row_no) if any(map(str.strip, row))]
    columns, message = _block_columns([row for _, row in numbered], k), None
    if columns is None:  # some non-blank row is faulty: walk to the first
        for i, (n, row) in enumerate(numbered):
            if len(row) != k + 3:
                message = f"{path}: row {n} has {len(row)} fields, expected {k + 3}"
                break
            try:
                vals = [float(c) for c in row[2:]]
            except ValueError:
                message = f"{path}: non-numeric field in row {n}: {row!r}"
                break
            if not all(map(math.isfinite, vals)):
                message = f"{path}: non-finite field in row {n}: {row!r}"
                break
        del numbered[i:]
        columns = _block_columns([row for _, row in numbered], k)
    return columns, [n for n, _ in numbered], message


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
