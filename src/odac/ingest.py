"""Dataset I/O and preprocessing: every CSV read and write, min-max scaling.

Datasets, scores and the evaluation reports are all written by
`_write_rows`; both readers share the row loop `_read_table`.

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
import os
from typing import Union

import numpy as np

from .errors import ParseError, RaggedRows
from .types import Dataset, LabeledDataset, ScoreReport, validate_dataset

Source = Union[str, os.PathLike, io.IOBase]


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
    so the wrapper never closes it.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, mode, encoding="utf-8", newline="") as handle:
            yield handle
    elif isinstance(source, io.TextIOBase):
        yield source
    else:
        handle = io.TextIOWrapper(source, encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.detach()


def _text_lines(source: Source):
    """Yield the lines of a source, without one leading byte-order mark."""
    with _text_handle(source, "r") as handle:
        yield handle.readline().removeprefix("\ufeff")
        yield from handle


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
            return header.index(label_column)
        except ValueError:
            raise ParseError(
                line_no, 0, f"no column named {label_column!r} in header"
            ) from None
    idx = int(label_column)
    if idx < 0:
        idx += width
    if not 0 <= idx < width:
        raise ParseError(line_no, 0, f"label column {label_column} out of range")
    return idx


def _read_table(source: Source, has_header: bool, label_column, text_labels: bool):
    """The row loop both readers share: (features, labels) of a CSV.

    Blank rows and the header are skipped. Cells are parsed in file
    order, so the first bad one is reported. The label column, if any,
    is left out of the float features and returned per row: 0/1 flags as
    a bool array, or stripped text with text_labels; labels is None
    without a label column.
    """
    rows = [
        (line_no, fields)
        for line_no, fields in enumerate(csv.reader(_text_lines(source)), start=1)
        if any(f.strip() for f in fields)
    ]
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
        ParseError: Empty input, unparseable cell, or bad label value
            (1-based line/field position reported).
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
    """Write a header row and then the rows as CSV to a path or stream.

    A caller's stream is flushed and left open.
    """
    with _text_handle(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        handle.flush()


def write_csv(data: "Dataset | LabeledDataset", sink: Source) -> None:
    """Write a dataset as CSV, with a trailing `label` column when labeled."""
    labeled = isinstance(data, LabeledDataset)
    dataset = data.data if labeled else data
    names = [f"x{j + 1}" for j in range(dataset.n)] + (["label"] if labeled else [])
    rows = ([repr(float(v)) for v in point] for point in dataset.points)
    if labeled:
        rows = (row + ["1" if f else "0"] for row, f in zip(rows, data.is_outlier))
    _write_rows(sink, names, rows)


def write_scores(report: ScoreReport, sink: Source) -> None:
    """Write `index,score,rank` rows ordered by rank ascending.

    Scores carry 12 significant digits; rank runs 1..q with the
    strongest outlier candidate first.
    """
    rows = (
        [int(point), format(report.scores[point], ".12g"), rank]
        for rank, point in enumerate(report.ranking, start=1)
    )
    _write_rows(sink, ["index", "score", "rank"], rows)
