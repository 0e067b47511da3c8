"""Deterministic serialization: JSON documents, and the train trace with its CSV.

A :class:`TrainTrace` is a run's per-step record in memory;
:func:`trace_to_csv` writes its ``TRACE_COLUMNS`` and :func:`parse_trace_csv`
reads them back, so the trace's schema has this one home.

All floating-point numbers are written with 17 significant digits so 64-bit
values round-trip losslessly and repeated runs produce byte-identical files.
The stdlib json encoder formats floats with repr, which is value-lossless but
not a fixed digit budget, so a small writer is owned here instead.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bounds import _check_memory
from .errors import ConfigError, DimensionMismatchError

#: The digit format of every float written, by :func:`format_float` and by :func:`trace_to_csv`'s rows.
_FLOAT_FORMAT = "%.17g"

def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact float64 round-trip."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return _FLOAT_FORMAT % x


def _render(obj, level: int) -> str:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}{json.dumps(str(k))}: {_render(v, level + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v, level) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render a JSON document, indented by two spaces per level (trailing newline included)."""
    return _render(obj, 0) + "\n"


def check_writable(path) -> None:
    """Refuse, as ConfigError, an output path that :func:`write_text` could not replace.

    The path must be absent or a regular file, in a directory the process may
    write to. Callers check every output before the work that produces it.
    """
    p = Path(path)
    if p.exists() and not p.is_file():
        raise ConfigError(f"cannot write {p}: it exists and is not a regular file")
    if not os.access(p.parent, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {p}: its directory is not writable")


def write_text(path, text: str) -> None:
    """Write UTF-8 text atomically: a temp file in the same directory, then ``os.replace``.

    Readers see the old file or the new one, never a partial write. Any
    OSError (a directory in the way, no permission, a full disk) becomes
    ConfigError, and the temp file is removed.
    """
    p = Path(path)
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "xb") as fh:
                fh.write(text.encode("utf-8"))
            os.replace(tmp, p)
        finally:
            tmp.unlink(missing_ok=True)  # already gone after a successful replace
    except OSError as exc:
        raise ConfigError(f"cannot write {p}: {exc}") from exc


def write_json(path, obj) -> None:
    write_text(path, dumps(obj))


def _input_file(path, kind: str) -> Path:
    """The path of an input file; a missing or non-regular file raises ConfigError."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{kind} file not found: {p}")
    if not p.is_file():
        raise ConfigError(f"{kind} file is not a regular file: {p}")
    return p


def _unique_keys(pairs: list) -> dict:
    """An object's members as a dict; a key given twice raises ConfigError, at any depth."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_json(path) -> dict:
    """Parse a JSON config document; malformed input, or an object with a repeated key, raises ConfigError."""
    p = _input_file(path, "config")
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    # ValueError: malformed, or an integer of more digits than Python converts; RecursionError: nesting too deep
    except (ValueError, RecursionError, ConfigError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level JSON value in {path} must be an object")
    return doc


#: Bytes one trace row adds to ``ntxb train`` (its row of the columns, its numbers and its CSV line) or to ``ntxb
#: report`` (its ten numbers and its series lines): tracemalloc reads 530-546 per desk step, 434-518 per report row.
_TRACE_ROW_BYTES = 640


@dataclass(eq=False)
class TrainTrace:
    """A run's per-step diagnostics, evaluated before each parameter update, as columns (steps,); row i is step[i].

    Every column is 1-D and as long as ``step``, or DimensionMismatchError is
    raised. Traces compare by identity; compare their columns instead.
    """

    step: np.ndarray
    loss_total: np.ndarray
    loss_alignment: np.ndarray
    loss_distribution: np.ndarray
    avg_pos_sim: np.ndarray
    paper_bound: np.ndarray
    strict_bound: np.ndarray
    paper_gap: np.ndarray
    strict_gap: np.ndarray
    grad_norm: np.ndarray
    collapsed: np.ndarray

    def __post_init__(self):
        shapes = {f.name: np.shape(getattr(self, f.name)) for f in fields(self)}
        if any(len(shape) != 1 or shape != shapes["step"] for shape in shapes.values()):
            raise DimensionMismatchError(f"trace columns must be 1-D and as long as step, got shapes {shapes}")

    @classmethod
    def _empty(cls, steps: int, first: int = 0) -> "TrainTrace":
        """Columns of steps first, first + 1, ..., whose values are to be filled in."""
        floats = [np.empty(steps) for _ in fields(cls)[1:-1]]
        return cls(np.arange(first, first + steps), *floats, np.zeros(steps, dtype=bool))

    def _head(self, steps: int) -> "TrainTrace":
        """The first ``steps`` rows, as views."""
        return TrainTrace(*(getattr(self, f.name)[:steps] for f in fields(self)))

    @property
    def collapse_step(self) -> int | None:
        """The first collapsed step, or None."""
        hit = np.flatnonzero(self.collapsed)
        return int(self.step[hit[0]]) if hit.size else None

    def __len__(self) -> int:
        return len(self.step)


#: Fixed column order of the training trace CSV: the step, then every float column of a TrainTrace, in its order.
TRACE_COLUMNS = tuple(f.name for f in fields(TrainTrace) if f.name != "collapsed")
#: What a data line may hold: ASCII letters, digits, ``+-._``, spaces and commas, each its own repr, so int's or
#: float's message for a field that is not a number holds no more than the field twice over.
_TRACE_CHARS = re.compile(r"[\w+\-., ]*", re.ASCII)


def trace_to_csv(trace: TrainTrace) -> str:
    """Render a train trace's columns as CSV with the fixed column order.

    Each row is the step, then each float column in :func:`format_float`'s
    digits, all through one ``%`` format. A column holding a non-finite value
    is refused first, with :func:`format_float`'s ValueError.
    """
    steps, *floats = (getattr(trace, column) for column in TRACE_COLUMNS)
    for column in floats:
        bad = column[~np.isfinite(column)]
        if bad.size:
            format_float(bad[0].item())  # raises
    row = ",".join(["%d", *[_FLOAT_FORMAT] * len(floats)])
    lines = [",".join(TRACE_COLUMNS)]
    lines += [row % values for values in zip(steps.tolist(), *(column.tolist() for column in floats))]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_trace_csv(lines) -> dict[str, list]:
    """Parse trace CSV lines (an open file, or ``text.splitlines()``) one at a time into a list per column of
    TRACE_COLUMNS; malformed input raises ConfigError, naming its line by its number, blank lines counted.

    A trace is ASCII, so lines of bytes are decoded as ASCII. Every value must be finite; steps must fit in int64, as a
    TrainTrace's do, and strictly increase.
    """
    columns = {column: [] for column in TRACE_COLUMNS}
    steps, floats = columns["step"], [columns[column] for column in TRACE_COLUMNS[1:]]
    lineno, header = 0, None
    for line in lines:  # not enumerate, whose result tuple would keep each line until the next one
        lineno += 1
        try:
            line = (line.decode("ascii") if isinstance(line, bytes) else line).rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trace line {lineno} is not ASCII at byte {exc.start + 1}") from None
        if not line.strip():
            continue
        if header is None:
            if line != ",".join(TRACE_COLUMNS):
                raise ConfigError(f"unexpected trace header {line[:80]!r}")
            header = line
            continue
        fields = line.count(",") + 1  # counted before the split, which a long line of commas would multiply
        if fields != len(TRACE_COLUMNS):
            raise ConfigError(f"trace line {lineno} has {fields} fields, expected {len(TRACE_COLUMNS)}")
        if not _TRACE_CHARS.fullmatch(line):
            raise ConfigError(f"trace line {lineno} is not numeric: {line[:80]!r}")
        step, *values = line.split(",")
        del line  # held once from here, as its fields, beside a refused field's repr and message
        try:
            step, values = int(step), [float(value) for value in values]
        except ValueError as exc:
            raise ConfigError(f"trace line {lineno} is not numeric: {str(exc)[:120]}") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"trace line {lineno} has a non-finite value")
        if not -(1 << 63) <= step < 1 << 63:
            raise ConfigError(f"trace line {lineno}: step {step} does not fit in int64")
        if steps and step <= steps[-1]:
            raise ConfigError(f"trace line {lineno}: step {step} does not follow step {steps[-1]}")
        steps.append(step)
        for column, value in zip(floats, values):
            column.append(value)
    if not steps:
        raise ConfigError("trace CSV has no data rows" if header else "trace CSV is empty")
    return columns


def _count_lines(p: Path) -> tuple[int, int]:
    """A file's newlines plus one, and the bytes of its longest line that spans a 64 KiB read, in one pass."""
    lines, longest, run = 1, 0, 0  # run: the bytes since the last newline
    with open(p, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            if b"\n" in block:
                lines += block.count(b"\n")
                longest = max(longest, run + block.index(b"\n"))
                run = len(block) - 1 - block.rindex(b"\n")
            else:
                run += len(block)
    return lines, max(longest, run)


def read_trace_csv(path) -> dict[str, list]:
    """Parse a trace CSV file into its columns; one whose report would need over the memory budget raises
    ConfigError unparsed.

    Each row adds at most _TRACE_ROW_BYTES. The parse holds its longest line
    twice as it is read and split, and three times while a field is refused.
    """
    p = _input_file(path, "trace")
    try:
        lines, longest = _count_lines(p)
        _check_memory(lines * _TRACE_ROW_BYTES + 3 * longest, f"reporting a trace of {lines} lines", ConfigError)
        with open(p, "rb") as fh:  # lines end at \n, as they are counted
            return parse_trace_csv(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from exc
