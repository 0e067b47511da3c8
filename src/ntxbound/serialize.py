"""Deterministic serialization: JSON documents and trace CSV.

All floating-point numbers are written with 17 significant digits so 64-bit
values round-trip losslessly and repeated runs produce byte-identical files.
The stdlib json encoder formats floats with repr, which is value-lossless but
not a fixed digit budget, so a small writer is owned here instead.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .trainer import TrainTrace

#: Fixed column order of the training trace CSV: the step, then every float column of a TrainTrace, in its order.
TRACE_COLUMNS = tuple(f.name for f in fields(TrainTrace) if f.name != "collapsed")


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact float64 round-trip."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


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


def _read_text(path, kind: str) -> str:
    """UTF-8 text of an input file; a missing, unreadable or non-UTF-8 file raises ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{kind} file not found: {p}")
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {p}: {exc}") from exc


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
    text = _read_text(path, "config")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    # ValueError: malformed, or an integer of more digits than Python converts; RecursionError: nesting too deep
    except (ValueError, RecursionError, ConfigError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level JSON value in {path} must be an object")
    return doc


def trace_to_csv(trace) -> str:
    """Render a train trace's columns as CSV with the fixed column order.

    Each row is the step, then each float column through :func:`format_float`,
    which refuses a non-finite value with ValueError.
    """
    steps, *floats = (getattr(trace, column).tolist() for column in TRACE_COLUMNS)
    lines = [",".join(TRACE_COLUMNS)]
    lines += [f"{step},{','.join(map(format_float, row))}" for step, *row in zip(steps, *floats)]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def parse_trace_csv(text: str) -> list[dict]:
    """Parse a trace CSV back into row dicts; malformed input raises ConfigError.

    Every value must be finite and steps must strictly increase.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("trace CSV is empty")
    header = tuple(lines[0].split(","))
    if header != TRACE_COLUMNS:
        raise ConfigError(f"unexpected trace header {header!r}")
    if len(lines) < 2:
        raise ConfigError("trace CSV has no data rows")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ConfigError(f"trace line {lineno} has {len(parts)} fields, expected {len(TRACE_COLUMNS)}")
        try:
            row = {"step": int(parts[0])}
            for col, val in zip(TRACE_COLUMNS[1:], parts[1:]):
                row[col] = float(val)
        except ValueError as exc:
            raise ConfigError(f"trace line {lineno} is not numeric: {exc}") from exc
        if not all(math.isfinite(row[col]) for col in TRACE_COLUMNS[1:]):
            raise ConfigError(f"trace line {lineno} has a non-finite value")
        if rows and row["step"] <= rows[-1]["step"]:
            raise ConfigError(f"trace line {lineno}: step {row['step']} does not follow step {rows[-1]['step']}")
        rows.append(row)
    return rows


def read_trace_csv(path) -> list[dict]:
    return parse_trace_csv(_read_text(path, "trace"))
