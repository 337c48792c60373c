"""Parse data-point streams from CSV or JSONL text.

CSV: one point per line, comma-separated decimal reals in Python float
syntax without ``_`` digit separators, optional single header line (detected
when the first field of the first content line is not such a number).
JSONL: one object per line with a required "features" array of numbers
(an integer too large for a float is a parse error) and an optional "id"
string kept as the point's label.

Blank lines are ignored everywhere. Points receive consecutive seq numbers
in input order; skipped lines do not consume a seq.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Iterator

from .errors import ClusteringError, ParseError
from .model import Config, DataPoint, validate_config, validate_point


@dataclass(frozen=True, slots=True)
class InputRecord:
    """One raw line as read: its 1-based line number, text, and parse result."""

    line_number: int
    raw: str
    parsed: tuple[float, ...] | None = None
    label: str | None = None


@dataclass(frozen=True, slots=True)
class SkippedLine:
    """Diagnostic for a line dropped under on_error=skip."""

    line_number: int
    raw: str
    error: ClusteringError

    def __str__(self) -> str:
        return f"line {self.line_number}: {self.error}"


def _csv_number(text: str) -> float:
    """float() of a CSV field, refusing the ``_`` digit separators float() allows."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return float(text)


def _parse_csv_fields(line: str) -> list[float]:
    fields = line.split(",")
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


def _parse_jsonl_fields(line: str) -> tuple[list[float], str | None]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", column=err.colno) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    if "features" not in obj:
        raise ParseError('missing required key "features"')
    feats = obj["features"]
    if not isinstance(feats, list):
        raise ParseError('"features" must be an array of numbers')
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
    label = obj.get("id")
    if label is not None and not isinstance(label, str):
        raise ParseError('"id" must be a string when present')
    return values, label


def parse_csv_line(line: str, config: Config, seq: int = 0) -> DataPoint:
    """Parse one CSV row of decimal reals and validate it against the config."""
    return validate_point(_parse_csv_fields(line), config, seq=seq)


def parse_jsonl_line(line: str, config: Config, seq: int = 0) -> DataPoint:
    """Parse one JSONL object and validate it against the config."""
    values, label = _parse_jsonl_fields(line)
    return validate_point(values, config, seq=seq, label=label)


def to_csv_line(point: DataPoint) -> str:
    """Serialize a point's features as a CSV row that re-parses exactly."""
    return ",".join(repr(v) for v in point.features)


def _text_lines(source: IO[str] | IO[bytes]) -> Iterator[str]:
    for raw in source:
        yield raw.decode("utf-8") if isinstance(raw, bytes) else raw


class PointStream:
    """Iterable over the valid DataPoints of a text or byte source.

    When ``config`` is None, the feature width is inferred from the first
    valid record and combined with ``strictness`` into a Config, available
    as ``.config`` from then on; every later record must agree with it.

    on_error="halt" raises at the first bad line (the exception carries the
    line number); "skip" reports the line through ``on_skip`` and continues.
    """

    def __init__(
        self,
        source: IO[str] | IO[bytes],
        fmt: str = "csv",
        config: Config | None = None,
        *,
        strictness: float | None = None,
        on_error: str = "halt",
        on_skip: Callable[[SkippedLine], None] | None = None,
        start_seq: int = 0,
    ):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {fmt!r}")
        if on_error not in ("halt", "skip"):
            raise ValueError(f"unknown on_error policy {on_error!r}")
        if config is None and strictness is None:
            raise ValueError("either a config or a strictness is required")
        self._source = source
        self._fmt = fmt
        self.config = config
        self._strictness = strictness
        self._on_error = on_error
        self._on_skip = on_skip
        self._next_seq = start_seq

    def __iter__(self) -> Iterator[DataPoint]:
        saw_content = False
        for line_number, raw in enumerate(_text_lines(self._source), start=1):
            text = raw.rstrip("\r\n")
            if not text.strip():
                continue
            if not saw_content:
                saw_content = True
                if self._fmt == "csv" and self._looks_like_header(text):
                    continue
            try:
                record = self._parse_record(text, line_number)
                yield self._validate(record)
            except ClusteringError as err:
                err.line_number = line_number
                if self._on_error == "halt":
                    raise
                if self._on_skip is not None:
                    self._on_skip(SkippedLine(line_number, text, err))

    @staticmethod
    def _looks_like_header(text: str) -> bool:
        first = text.split(",", 1)[0].strip()
        try:
            _csv_number(first)
        except ValueError:
            return True
        return False

    def _parse_record(self, text: str, line_number: int) -> InputRecord:
        if self._fmt == "csv":
            values, label = _parse_csv_fields(text), None
        else:
            values, label = _parse_jsonl_fields(text)
        return InputRecord(line_number, text, parsed=tuple(values), label=label)

    def _validate(self, record: InputRecord) -> DataPoint:
        if self.config is None:
            # first valid record fixes the dimensionality for the whole run
            self.config = validate_config(self._strictness, len(record.parsed))
        point = validate_point(
            record.parsed, self.config, seq=self._next_seq, label=record.label
        )
        self._next_seq += 1
        return point


def stream_points(
    source: IO[str] | IO[bytes],
    fmt: str,
    config: Config,
    *,
    on_error: str = "halt",
    on_skip: Callable[[SkippedLine], None] | None = None,
    start_seq: int = 0,
) -> Iterator[DataPoint]:
    """Yield the valid points of ``source`` in input order."""
    return iter(
        PointStream(
            source,
            fmt,
            config,
            on_error=on_error,
            on_skip=on_skip,
            start_seq=start_seq,
        )
    )
