"""Parse data-point streams from CSV or JSONL text.

CSV: one point per line, comma-separated decimal reals in Python float
syntax without ``_`` digit separators, optional single header line (detected
when the first field of the first content line is not such a number).
JSONL: one object per line with a required "features" array, whose values
DataPoint judges as it does any caller's, and an optional "id" string kept
as the point's label.

Input is bytes, read as UTF-8 and decoded here one line at a time; a line
that is not valid UTF-8 is a bad line. A line ends at ``\n`` only; any
``\r`` just before its end is dropped, and a ``\r`` anywhere else is part
of the line. One byte-order mark (U+FEFF) at the start of the first line is
dropped. Blank lines are ignored everywhere. Points come out in input
order; the engine, not this module, numbers them.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterator

from .errors import ClusteringError, ParseError
from .model import DataPoint, validate_point


def _csv_number(text: str) -> float:
    """float() of a CSV field, refusing the ``_`` digit separators float() allows."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return float(text)


def _parse_csv_fields(line: str) -> list[float]:
    fields = line.split(",")
    if "_" not in line:
        # float() ignores the same surrounding whitespace that strip() removes
        try:
            return [float(field) for field in fields]
        except ValueError:
            pass  # the loop below names the bad column
    values = []
    for col, field in enumerate(fields, start=1):
        text = field.strip()
        try:
            values.append(_csv_number(text))
        except ValueError:
            raise ParseError(
                f"column {col}: {text!r} is not a number", column=col
            ) from None
    return values


def parse_json(text: str) -> object:
    """The value of a JSON text read from outside; every failure is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", column=err.colno) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _parse_jsonl_fields(line: str) -> tuple[list, str | None]:
    """The raw "features" list and the "id" of a JSONL line; DataPoint judges the values."""
    obj = parse_json(line)
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    if "features" not in obj:
        raise ParseError('missing required key "features"')
    feats = obj["features"]
    if not isinstance(feats, list) or not feats:
        raise ParseError('"features" must be a non-empty array of numbers')
    label = obj.get("id")
    if label is not None and not isinstance(label, str):
        raise ParseError('"id" must be a string when present')
    return feats, label


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("not valid UTF-8") from None


class PointStream:
    """Iterable over the valid DataPoints of a byte source.

    The source is read as UTF-8, one line at a time: a line ends at ``\n``
    only, a line that is not valid UTF-8 is a bad line, and any ``\r`` at
    the end of a line is dropped.

    Every point must have ``n_features`` features. When it is None, the
    first valid record fixes the width, available as ``.n_features`` from
    then on. ``.line_number`` is the input line of the point yielded last.

    A bad line raises its :class:`ClusteringError`, whose ``line_number`` is
    set, and ends the stream. With ``on_skip``, the stream instead hands it
    that error and goes on with the next line.
    """

    def __init__(
        self,
        source: IO[bytes],
        fmt: str = "csv",
        n_features: int | None = None,
        *,
        on_skip: Callable[[ClusteringError], None] | None = None,
    ):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {fmt!r}")
        if n_features is not None and (type(n_features) is not int or n_features < 1):
            raise ValueError(f"n_features must be a positive int or None, got {n_features!r}")
        self._source = source
        self._fmt = fmt
        self.n_features = n_features
        self._on_skip = on_skip
        self.line_number: int | None = None

    def __iter__(self) -> Iterator[DataPoint]:
        saw_content = False
        for line_number, line in enumerate(self._source, start=1):
            try:
                text = _decode(line)
                if line_number == 1:
                    text = text.removeprefix("\ufeff")
                text = text.rstrip("\r\n")
                if not text.strip():
                    continue
                first, saw_content = not saw_content, True
                if first and self._fmt == "csv" and self._looks_like_header(text):
                    continue
                if self._fmt == "csv":
                    values, label = _parse_csv_fields(text), None
                else:
                    values, label = _parse_jsonl_fields(text)
                # the first valid record fixes the width for the whole run
                width = self.n_features or len(values)
                point = validate_point(values, width, label=label)
                self.n_features = width
            except ClusteringError as err:
                saw_content = True  # a line that will not decode is not blank
                err.line_number = line_number
                if self._on_skip is None:
                    raise
                self._on_skip(err)
                continue
            self.line_number = line_number
            yield point

    @staticmethod
    def _looks_like_header(text: str) -> bool:
        first = text.split(",", 1)[0].strip()
        try:
            _csv_number(first)
        except ValueError:
            return True
        return False

