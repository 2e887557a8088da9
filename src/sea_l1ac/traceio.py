"""Trace file format: CSV with a single metadata comment line.

The first line carries ``# key=value`` pairs needed to interpret the trace,
the second line is the fixed column header, every following line is one
sample. Floats are written with shortest round-trip representation, and keys
and text values are percent-encoded wherever they hold a space, ``=``, ``#``,
``%`` or a character that is not printable ASCII. Outside the text keys, a
value whose text reads as a number (an int, ``"1_0"``, ``" 7"``) is written as
the float the import reads back, so export -> import -> export is
byte-identical for every metadata key and value.
"""

from __future__ import annotations

import csv
import io
import string
from functools import partial
from itertools import chain, islice
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from .harness import TRACE_COLUMNS, RunTrace, _columns


# metadata keys whose values stay text even when they look like numbers
_TEXT_KEYS = ("name", "controller")
_META_SAFE = "".join(c for c in string.printable if c not in " =#%" and not c.isspace())
_BLOCK_ROWS = 128  # rows export_trace formats and writes at a time
_READ_CHARS = 1 << 14  # characters import_trace reads at a time


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _meta_text(key: str, value) -> str:
    text = _fmt(value)
    if key not in _TEXT_KEYS:
        try:
            text = repr(float(text))
        except ValueError:
            pass
    return text


def _meta_line(meta: dict) -> str:
    return "# " + " ".join(
        f"{quote(str(k), safe=_META_SAFE)}={quote(_meta_text(k, v), safe=_META_SAFE)}"
        for k, v in meta.items())


def _parse_meta_line(line: str) -> dict:
    meta: dict = {}
    for token in line[1:].split():
        key, _, raw = token.partition("=")
        key, value = unquote(key), unquote(raw)
        if key not in _TEXT_KEYS:
            try:
                value = float(value)
            except ValueError:
                pass
        meta[key] = value
    return meta


def _write(path, what: str, chunks) -> Path:
    """Write the text ``chunks`` to ``path`` in turn, with LF line ends,
    creating its directory first; an OSError names ``what``."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    return path


def _row_blocks(columns):
    """The trace body, ``_BLOCK_ROWS`` rows per string."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        # .tolist() yields the Python floats whose repr is the shortest round trip
        block = np.asarray(np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns]),
                           dtype=float).tolist()
        yield "".join([",".join(map(repr, row)) + "\n" for row in block])


def export_trace(trace: RunTrace, path) -> Path:
    """Write a trace to ``path``; returns the path written. The rows are
    formatted and written a block at a time, so the text of the whole trace
    is never held."""
    columns = [np.asarray(trace.columns[name]) for name in TRACE_COLUMNS]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"trace columns differ in length: {dict(zip(TRACE_COLUMNS, lengths))}")
    head = _meta_line(trace.meta) + "\n" + ",".join(TRACE_COLUMNS) + "\n"
    return _write(path, "trace", chain([head], _row_blocks(columns)))


def _lines(fh):
    """The lines of the open text file ``fh``, split where ``str.splitlines``
    splits and read ``_READ_CHARS`` at a time. Each keeps its line end,
    which numpy reads as a blank after the last cell.

    A unit separator (U+001F) raises ValueError: numpy reads it as a blank
    at either end of a cell too, where float() refuses the cell.
    """
    tail = ""
    for chunk in iter(partial(fh.read, _READ_CHARS), ""):
        if "\x1f" in chunk:
            raise ValueError("unit separator in the file")
        lines = (tail + chunk).splitlines(keepends=True)
        tail = lines.pop()  # may continue in the next chunk
        yield from lines
    if tail:
        yield tail


def _header(lines: list, path) -> tuple[dict, int]:
    """The metadata of a trace and the index of its header among its first
    ``lines``; a missing or different header raises ValueError."""
    meta: dict = {}
    idx = 0
    if lines and lines[0].startswith("#"):
        meta = _parse_meta_line(lines[0])
        idx = 1
    if idx >= len(lines) or tuple(lines[idx].split(",")) != TRACE_COLUMNS:
        raise ValueError(f"missing or unexpected trace header in {path}")
    return meta, idx


def _parse_lines(path) -> tuple[dict, np.ndarray]:
    """The metadata of the trace at ``path`` and its body as a (rows,
    columns) array, read one line at a time; a row that is not one number
    per column raises ValueError naming the file and the line."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    meta, idx = _header(lines, path)
    rows = []
    for lineno, line in enumerate(lines[idx + 1:], start=idx + 2):
        if not line:
            continue
        cells = line.split(",")
        try:
            if len(cells) != len(TRACE_COLUMNS):
                raise ValueError(f"{len(cells)} cells, expected {len(TRACE_COLUMNS)}")
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return meta, np.array(rows).reshape(len(rows), len(TRACE_COLUMNS))


def import_trace(path) -> RunTrace:
    """Read back a trace written by export_trace; a missing header or a row
    that is not one number per column raises ValueError naming the file.

    The body is parsed by one numpy call over the file's lines, read a
    chunk at a time. Where numpy refuses the body, or the file is not
    UTF-8, ``_parse_lines`` reads it line by line instead: it accepts every
    row numpy does, with the same doubles, and its errors name the line.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            lines = _lines(fh)
            head = list(islice(lines, 2))
            meta, idx = _header([line.splitlines()[0] for line in head], path)
            body = chain(head[idx + 1:], lines)
            first = next((line for line in body if line != "\n"), None)
            if first is None:  # no row: loadtxt would warn
                data = np.empty((0, len(TRACE_COLUMNS)))
            else:
                data = np.loadtxt(chain([first], body), delimiter=",", comments=None,
                                  ndmin=2)
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    except ValueError:  # a bad header, a body numpy refuses, U+001F, or not UTF-8
        data = None
    if data is None or data.shape[1] != len(TRACE_COLUMNS):
        meta, data = _parse_lines(path)
    return RunTrace(columns=_columns(data), meta=meta)


_PLOT_TEMPLATE = '''"""Plot the recorded step response: position, motor current, and the
link-side disturbance estimate (three stacked panels)."""

import csv
import sys
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

csv_path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / {csv_name!r}

cols = {{}}
with csv_path.open() as fh:
    meta_line = fh.readline()
    reader = csv.DictReader(fh)
    for row in reader:
        for key, val in row.items():
            cols.setdefault(key, []).append(float(val))

target = None
for token in meta_line.lstrip("# ").split():
    if token.startswith("q_d_amplitude="):
        target = float(token.split("=", 1)[1])

fig, axes = plt.subplots(3, 1, figsize=(7, 9), sharex=True)
axes[0].plot(cols["t_s"], cols["q_rad"], label="link position q")
if target is not None:
    axes[0].axhline(target, color="k", ls="--", lw=0.8, label="target")
axes[0].set_ylabel("q [rad]")
axes[0].legend()
axes[1].plot(cols["t_s"], cols["current_permil"], color="tab:red")
axes[1].set_ylabel("motor current [permil]")
axes[2].plot(cols["t_s"], cols["sigma22_hat"], color="tab:green")
axes[2].set_ylabel("sigma22 estimate [rad/s^2]")
axes[2].set_xlabel("t [s]")
fig.tight_layout()
out = csv_path.with_suffix(".png")
fig.savefig(out, dpi=130)
print(f"wrote {{out}}")
'''


def export_plotscript(trace_csv_name: str, path) -> Path:
    """Write a standalone matplotlib script that renders the trace panels."""
    return _write(path, "plot script", [_PLOT_TEMPLATE.format(csv_name=str(trace_csv_name))])


def export_table(rows, path) -> Path:
    """Write rows as CSV (header included by the caller); a cell holding a
    comma, a quote or a line break is quoted, so every row keeps its cells."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(map(_fmt, row) for row in rows)
    return _write(path, "table", [text.getvalue()])
