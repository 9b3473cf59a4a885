"""CSV/JSON serialisation helpers shared by the library and the CLI.

CSV files carry ``#``-prefixed metadata comment lines (tool version, seed,
configuration echo) before the header row; reals are written with 17
significant digits so round-tripping is exact.  JSON files are standard
JSON: a non-finite real is written as ``null``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__version__ = "0.1.0"


def format_real(value) -> str:
    """Serialise a real with 17 significant digits."""
    return format(float(value), ".17g")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, np.floating):
        return format_real(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def metadata_lines(metadata: dict | None) -> list[str]:
    lines = [f"# tool_version={__version__}"]
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={_cell(value)}")
    return lines


def write_csv(path, header, rows, metadata: dict | None = None) -> None:
    """Write rows with a header and ``#`` metadata comment lines."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        for line in metadata_lines(metadata):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def read_csv(path, types=None) -> tuple[dict, list[str], list[list]]:
    """Read a CSV written by :func:`write_csv`; returns (metadata, header,
    rows).  The cells are strings, or with ``types``, one converter per
    column, what each cell's converter returns.  A row whose field count
    differs from the header's, or a cell that its converter rejects with a
    ``ValueError``, is a ``ValueError`` naming the file and line."""
    meta: dict = {}
    header: list[str] = []
    rows: list[list] = []
    with Path(path).open() as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if not header:
                header = line.split(",")
            else:
                row = line.split(",")
                if len(row) != len(header):
                    raise ValueError(f"{path}, line {number}: {len(row)} fields, "
                                     f"where the header has {len(header)}")
                if types is not None:
                    try:
                        row = [convert(cell) for convert, cell in zip(types, row)]
                    except ValueError as exc:
                        raise ValueError(f"{path}, line {number}: {exc}") from None
                rows.append(row)
    return meta, header, rows


def _finite_or_null(value):
    """``value`` with every non-finite float, however nested, replaced by
    ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path, payload: dict) -> None:
    """Write standard JSON: a non-finite real becomes ``null``, never the
    non-standard ``NaN`` or ``Infinity``."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_keyvalue_config(path) -> dict[str, str]:
    """Parse a plain-text ``key = value`` configuration file.

    Blank lines and ``#`` comments are ignored; keys are lower-cased.
    """
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip().lower()] = value.strip()
    return out
