"""Dataset I/O and preprocessing: every CSV read and write, min-max scaling.

Datasets, scores and the evaluation reports are all written by
`_write_lines`. Both readers go through `_read_table`. For a path or a
seekable byte stream, `read_csv` first parses the numbers with numpy's
chunked `np.loadtxt` (`_read_fast`); if that fails in any way, or the
label column holds more than 0/1, the source is read again by the
per-cell row loop `_read_rows`. The loop is the only reader of text
streams and species tables, and the only source of `ParseError` and
`RaggedRows`, so every error names the line and field it always did.
Paths and byte streams are decoded with "surrogateescape", so a byte
that is not UTF-8 reads as a lone surrogate: numpy's parser declines
it, and the loop reports the physical line holding the first one.

CSV conventions: UTF-8 (one leading byte-order mark is ignored), comma
separated, decimal numbers. An optional header row names the columns;
an optional label column holds 0 (normal) or 1 (outlier). Values are
written with Python's shortest round-trip float representation, so
write -> read is bit-exact.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import re
import warnings
from typing import Union

import numpy as np

from .errors import ParseError, RaggedRows
from .types import Dataset, LabeledDataset, ScoreReport, validate_dataset

Source = Union[str, os.PathLike, io.IOBase]
# What "surrogateescape" decodes an invalid byte 0x80..0xFF to.
_UNDECODABLE = re.compile("[\udc80-\udcff]")
# Lines per write of `_write_lines`. Writing a 10^5-point 6-D dataset in
# one join took as long and held 41.5 MiB of text (tracemalloc's peak);
# in joins of 2^12 lines the peak was 1.7 MiB.
_WRITE_LINES = 1 << 12


def preprocess(
    data: Dataset, *, normalize: bool = True, scale: float = 300.0
) -> Dataset:
    """Min-max normalize per column (optional), then multiply by scale.

    Constant columns map to all zeros rather than dividing by zero. The
    default scale of 300 stretches normalized data to [0, 300], a range
    the default n_d = 80 suits.
    """
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    validate_dataset(data)
    pts = data.points
    if normalize:
        lo = pts.min(axis=0)
        span = pts.max(axis=0) - lo
        safe = np.where(span > 0, span, 1.0)
        pts = np.where(span > 0, (pts - lo) / safe, 0.0)
    return Dataset(pts * scale)


@contextlib.contextmanager
def _text_handle(source: Source, mode: str):
    """A UTF-8 text handle on a path, text stream, or byte stream.

    A path is opened and closed here. A caller's stream is left open: a
    byte stream is used through a wrapper that is detached afterwards,
    so the wrapper never closes it. Paths and byte streams are read with
    "surrogateescape", so invalid bytes reach `_text_lines` to be named.
    """
    errors = "surrogateescape" if mode == "r" else "strict"
    if isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8", errors=errors, newline="") as handle:
            yield handle
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        handle = io.TextIOWrapper(source, encoding="utf-8", errors=errors, newline="")
        try:
            yield handle
        finally:
            handle.detach()


def _text_lines(handle):
    """Yield the lines of a text handle, without one leading byte-order mark.

    Raises:
        ParseError: on the first line holding a byte that is not UTF-8
            (an escaped surrogate U+DC80..U+DCFF).
    """
    lines = itertools.chain([handle.readline().removeprefix("\ufeff")], handle)
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii() and (bad := _UNDECODABLE.search(line)):
            byte = ord(bad.group()) - 0xDC00
            raise ParseError(line_no, 0, f"byte 0x{byte:02x} is not UTF-8")
        yield line


def _parse_float(text: str, line_no: int, field_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            line_no, field_no, f"could not parse {text!r} as a number"
        ) from None


def _resolve_label_column(label_column, header, width, line_no):
    if isinstance(label_column, str):
        if header is None:
            raise ValueError("a named label column requires has_header=True")
        try:
            idx = header.index(label_column)
        except ValueError:
            raise ParseError(
                line_no, 0, f"no column named {label_column!r} in header"
            ) from None
    else:
        label_column = int(label_column)
        idx = label_column + width if label_column < 0 else label_column
    # A header may name more columns than the data rows hold.
    if not 0 <= idx < width:
        raise ParseError(line_no, 0, f"label column {label_column!r} out of range")
    return idx


def _read_table(source: Source, has_header: bool, label_column, text_labels: bool):
    """(features, labels) of a CSV: numpy's parser first, else the row loop.

    The label column, if any, is left out of the float features and
    returned per row: 0/1 flags as a bool array, or stripped text with
    text_labels; labels is None without a label column. A path or a
    seekable byte stream without text labels is first read by
    `_read_fast`; when that declines, it is read again from the same
    position by `_read_rows`, which alone reports malformed input. A
    caller's text stream goes straight to the loop: it may split lines
    other than at the "\n", "\r" and "\r\n" numpy splits at (an
    io.StringIO splits only at "\n").
    """
    owned = not isinstance(source, io.TextIOBase)  # opened with newline=""
    with _text_handle(source, "r") as handle:
        if owned and not text_labels and handle.seekable():
            start = handle.tell()
            table = _read_fast(handle, start, has_header, label_column)
            if table is not None:
                return table
            handle.seek(start)
        return _read_rows(handle, has_header, label_column, text_labels)


def _read_fast(handle, start, has_header: bool, label_column):
    """(features, flags) parsed by `np.loadtxt`, or None to leave it to the loop.

    numpy's parser reads the handle in chunks, so no copy of the text is
    held. It accepts a subset of what the loop accepts: plain decimal,
    nan and inf cells, surrounding whitespace, and empty lines. Anything
    else (quotes, underscores, non-ASCII digits, blank-field rows, a
    ragged row, a bad label) makes it fail, and the loop then reads the
    source and reports the first fault. On success the values are the
    loop's bit for bit: both parse a cell with the same string-to-double
    conversion.
    """
    try:
        if handle.read(1) != "\ufeff":
            handle.seek(start)
        header = None
        if has_header:
            line = handle.readline()
            header = [f.strip() for f in line.rstrip("\r\n").split(",")]
            if '"' in line or not any(header) or _UNDECODABLE.search(line):
                return None  # a quoted, blank or undecodable first line: the loop decides
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "no data" is declined below
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        if table.shape[0] == 0:
            return None
        if label_column is None:
            return table, None
        idx = _resolve_label_column(label_column, header, table.shape[1], 0)
    except (ValueError, ParseError):
        return None
    labels = table[:, idx]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        return None
    return np.delete(table, idx, axis=1), labels == 1.0


def _read_rows(handle, has_header: bool, label_column, text_labels: bool):
    """The row loop: every reader's fallback and its only error source.

    Blank rows and the header are skipped. Cells are parsed in file
    order, so the first bad one is reported, with the physical line on
    which its record starts (a quoted cell may span lines).
    """
    reader = csv.reader(_text_lines(handle))
    rows = []
    line_no = 1  # the physical line the next record starts on
    for fields in reader:
        if any(f.strip() for f in fields):
            rows.append((line_no, fields))
        line_no = reader.line_num + 1
    if not rows:
        raise ParseError(0, 0, "empty input")
    header = None
    first_line = rows[0][0]  # the header's line when there is one
    if has_header:
        header = [f.strip() for f in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(0, 0, "no data rows after header")
    width = len(rows[0][1])
    label_idx = None
    if label_column is not None:
        label_idx = _resolve_label_column(label_column, header, width, first_line)
    text_idx = label_idx if text_labels else None

    points = np.empty((len(rows), width - (label_idx is not None)))
    flags = np.empty(len(rows), dtype=bool)
    texts = []
    for r, (line_no, fields) in enumerate(rows):
        if len(fields) != width:
            raise RaggedRows(line_no, width, len(fields))
        c = 0
        for f, cell in enumerate(fields):
            if f == text_idx:
                texts.append(cell.strip())
                continue
            value = _parse_float(cell.strip(), line_no, f + 1)
            if f == label_idx:
                if value not in (0.0, 1.0):
                    raise ParseError(line_no, f + 1, f"label must be 0 or 1, got {cell!r}")
                flags[r] = bool(value)
            else:
                points[r, c] = value
                c += 1
    if label_idx is None:
        return points, None
    return points, texts if text_labels else flags


def read_csv(
    source: Source,
    has_header: bool = False,
    label_column: "str | int | None" = None,
) -> "Dataset | LabeledDataset":
    """Read a dataset, optionally with a 0/1 outlier label column.

    Args:
        source: Path, text stream, or byte stream of UTF-8 CSV.
        has_header: First row names the columns.
        label_column: Column holding 0/1 labels, by header name or
            0-based index (negatives count from the right). When given,
            a LabeledDataset is returned.

    Raises:
        ParseError: Empty input, unparseable cell, bad label value, or
            a byte that is not UTF-8 (1-based line/field position
            reported; field 0 for a byte).
        RaggedRows: A row whose field count differs from the first row.
        TooFewPoints / TooFewDimensions / NonFiniteValue: Validation of
            the parsed matrix.
    """
    points, flags = _read_table(source, has_header, label_column, text_labels=False)
    data = validate_dataset(Dataset(points))
    if flags is None:
        return data
    return LabeledDataset(data, flags)


def read_species_table(
    source: Source, label_column: int = -1, has_header: bool = False
) -> "dict[str, np.ndarray]":
    """Group numeric feature rows by a string class column.

    Suited to UCI-style files such as iris.data, where the last field is
    the species name. Row order within each group is preserved.
    """
    features, names = _read_table(source, has_header, label_column, text_labels=True)
    column = np.asarray(names)
    return {name: features[column == name] for name in dict.fromkeys(names)}


def _write_rows(sink: Source, header, rows) -> None:
    """Write a header row and then rows of string cells as CSV to a path or stream.

    Every cell this package writes is a formatted number or a fixed
    column name, so none needs CSV quoting, and joining the cells with
    commas writes what csv.writer would, faster (on 10^5 score rows, in
    about half its time).
    """
    _write_lines(sink, map(",".join, itertools.chain([header], rows)))


def _write_lines(sink: Source, lines) -> None:
    """Write CSV lines, each without its newline, to a path or stream.

    Lines are joined _WRITE_LINES at a time, so the text held stays flat
    however many lines there are. A caller's stream is flushed and left
    open.
    """
    lines = iter(lines)
    with _text_handle(sink, "w") as handle:
        while chunk := list(itertools.islice(lines, _WRITE_LINES)):
            chunk.append("")
            handle.write("\n".join(chunk))
        handle.flush()


def write_csv(data: "Dataset | LabeledDataset", sink: Source) -> None:
    """Write a dataset as CSV, with a trailing `label` column when labeled."""
    labeled = isinstance(data, LabeledDataset)
    points = data.data.points if labeled else data.points
    names = [f"x{j + 1}" for j in range(points.shape[1])] + (["label"] if labeled else [])
    # repr of a Python float is its shortest round-trip form. The points
    # become Python floats _WRITE_LINES rows at a time, so the lists held
    # stay flat too.
    rows = (
        ",".join(map(repr, row))
        for start in range(0, len(points), _WRITE_LINES)
        for row in points[start : start + _WRITE_LINES].tolist()
    )
    if labeled:
        rows = (row + (",1" if f else ",0") for row, f in zip(rows, data.is_outlier.tolist()))
    _write_lines(sink, itertools.chain([",".join(names)], rows))


def write_scores(report: ScoreReport, sink: Source) -> None:
    """Write `index,score,rank` rows ordered by rank ascending.

    Scores carry 12 significant digits; rank runs 1..q with the
    strongest outlier candidate first.
    """
    scores = report.scores.tolist()
    rows = (
        "%d,%.12g,%d" % (point, scores[point], rank)
        for rank, point in enumerate(report.ranking.tolist(), start=1)
    )
    _write_lines(sink, itertools.chain(["index,score,rank"], rows))
