"""Parse data-point streams from CSV or JSONL text.

CSV: one point per line, comma-separated decimal reals in Python float
syntax without ``_`` digit separators, optional single header line (detected
when the first field of the first content line is not such a number).
JSONL: one object per line with a required "features" array of numbers
(an integer too large for a float is a parse error) and an optional "id"
string kept as the point's label.

Input is UTF-8. One byte-order mark (U+FEFF) at the start of the first
line is dropped; a line that is not valid UTF-8 is a bad line. Blank lines
are ignored everywhere. Points receive consecutive seq numbers in input
order; skipped lines do not consume a seq.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Iterator

from .errors import ClusteringError, ParseError
from .model import Config, DataPoint, validate_point


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


def _text_lines(source: IO[str] | IO[bytes]) -> Iterator[str]:
    """The source's lines as text, less one byte-order mark at the start.

    Bytes are decoded as UTF-8 with each undecodable byte kept as a lone
    surrogate, so that only its own line fails, in _check_utf8.
    """
    lines = iter(source)
    first = next(lines, None)
    if first is None:
        return
    if isinstance(first, bytes):
        first = first.decode("utf-8", "surrogateescape")
        lines = (raw.decode("utf-8", "surrogateescape") for raw in lines)
    yield first.removeprefix("\ufeff")
    yield from lines


def _check_utf8(text: str) -> None:
    """Reject a line holding a lone surrogate: bytes that were not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("not valid UTF-8") from None


class PointStream:
    """Iterable over the valid DataPoints of a text or byte source.

    A byte source is read as UTF-8. A text source should keep undecodable
    bytes as lone surrogates (``errors="surrogateescape"``), which make
    their line a bad line.

    When ``config`` is None, the feature width is inferred from the first
    valid record and combined with ``strictness`` into a Config, available
    as ``.config`` from then on; every later record must agree with it.
    ``.line_number`` is the input line of the point yielded last.

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
        self.line_number: int | None = None

    def __iter__(self) -> Iterator[DataPoint]:
        saw_content = False
        for line_number, raw in enumerate(_text_lines(self._source), start=1):
            text = raw.rstrip("\r\n")
            if not text.strip():
                continue
            first, saw_content = not saw_content, True
            try:
                if not text.isascii():
                    _check_utf8(text)
                if first and self._fmt == "csv" and self._looks_like_header(text):
                    continue
                if self._fmt == "csv":
                    values, label = _parse_csv_fields(text), None
                else:
                    values, label = _parse_jsonl_fields(text)
                if self.config is None:
                    # first valid record fixes the dimensionality for the whole run
                    self.config = Config(self._strictness, len(values))
                point = validate_point(
                    values, self.config, seq=self._next_seq, label=label
                )
            except ClusteringError as err:
                err.line_number = line_number
                if self._on_error == "halt":
                    raise
                if self._on_skip is not None:
                    self._on_skip(SkippedLine(line_number, text, err))
                continue
            self._next_seq += 1
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

