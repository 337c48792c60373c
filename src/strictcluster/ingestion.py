"""Parse data-point streams from CSV or JSONL text.

CSV: one point per line, comma-separated decimal reals in Python float
syntax without ``_`` digit separators, optional single header line (detected
when the first field of the first content line is not such a number).
JSONL: one object per line with a required "features" array of numbers
(an integer too large for a float is a parse error) and an optional "id"
string kept as the point's label.

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
from .model import Config, DataPoint, validate_point


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


def _parse_jsonl_fields(line: str) -> tuple[list[float], str | None]:
    obj = parse_json(line)
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    if "features" not in obj:
        raise ParseError('missing required key "features"')
    feats = obj["features"]
    if not isinstance(feats, list):
        raise ParseError('"features" must be an array of numbers')
    values = _jsonl_numbers(feats)
    label = obj.get("id")
    if label is not None and not isinstance(label, str):
        raise ParseError('"id" must be a string when present')
    return values, label


def _jsonl_numbers(feats: list) -> list[float]:
    # type() rather than isinstance(): bool is an int subclass but not a number
    if set(map(type, feats)) <= {float, int}:
        try:
            return list(map(float, feats))
        except OverflowError:
            pass  # the loop below names the column
    values = []
    for col, v in enumerate(feats, start=1):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f'"features"[{col}]: {v!r} is not a number', column=col)
        try:
            values.append(float(v))
        except OverflowError:
            raise ParseError(
                f'"features"[{col}]: integer too large for a float', column=col
            ) from None
    return values


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

    When ``config`` is None, the feature width is inferred from the first
    valid record and combined with ``strictness`` into a Config, available
    as ``.config`` from then on; every later record must agree with it.
    ``.line_number`` is the input line of the point yielded last.

    A bad line raises its :class:`ClusteringError`, whose ``line_number`` is
    set, and ends the stream. With ``on_skip``, the stream instead hands it
    that error and goes on with the next line.
    """

    def __init__(
        self,
        source: IO[bytes],
        fmt: str = "csv",
        config: Config | None = None,
        *,
        strictness: float | None = None,
        on_skip: Callable[[ClusteringError], None] | None = None,
    ):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {fmt!r}")
        if config is None and strictness is None:
            raise ValueError("either a config or a strictness is required")
        self._source = source
        self._fmt = fmt
        self.config = config
        self._strictness = strictness
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
                if self.config is None:
                    # first valid record fixes the dimensionality for the whole run
                    self.config = Config(self._strictness, len(values))
                point = validate_point(values, self.config, label=label)
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

