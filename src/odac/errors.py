"""Exception types shared across the library."""

from __future__ import annotations

import sys


class OdacError(Exception):
    """Base class for all odac errors."""


class TooFewPoints(OdacError):
    """Scoring requires more than two points."""


class TooFewDimensions(OdacError):
    """Scoring requires at least two feature dimensions."""


class NonFiniteValue(OdacError):
    """A NaN or infinity was found in the data.

    Attributes:
        row: 0-based row of the offending cell.
        column: 0-based column of the offending cell.
    """

    def __init__(self, row: int, column: int) -> None:
        self.row = row
        self.column = column
        super().__init__(f"non-finite value at row {row}, column {column}")


class InvalidTopR(OdacError):
    """s_n exceeds the number of reference points available per query."""


class ParseError(OdacError):
    """A CSV cell could not be parsed.

    Attributes:
        line: 1-based line number in the input, 0 when the input is empty.
        column: 1-based field number, 0 when not applicable.
    """

    def __init__(self, line: int, column: int, message: str) -> None:
        self.line = line
        self.column = column
        super().__init__(f"line {line}, field {column}: {message}")


class RaggedRows(OdacError):
    """A CSV row has a different field count than the first row.

    Attributes:
        line: 1-based line number of the offending row.
    """

    def __init__(self, line: int, expected: int, got: int) -> None:
        self.line = line
        self.expected = expected
        self.got = got
        super().__init__(
            f"line {line}: expected {expected} fields, got {got}"
        )


class NoOutliersLabeled(OdacError):
    """Evaluation requires at least one point labeled as an outlier."""


class SimilarityUnderflow(OdacError):
    """A similarity that a score sums is below the smallest normal double.

    A subnormal similarity keeps too few significant bits for the scores
    to be trusted, so both scorers reject such input instead. It arises
    when n_d is far smaller than the neighbour distances.

    Attributes:
        n_d: The observation offset that was rejected.
    """

    def __init__(self, n_d: float) -> None:
        self.n_d = n_d
        super().__init__(
            f"n_d = {n_d:g} is too small for these points: a summed similarity "
            f"falls below the smallest normal double ({sys.float_info.min:g})"
        )
