"""File formats: atoms, laws, samples, curve export, and report dumps.

All CSV output is deterministic byte for byte: fixed header, stable row
order, and floats written as their shortest round-trip decimal (with
integer-valued floats losing the trailing ``.0``, so curve vertices read
``-4`` rather than ``-4.0``).

Formats:

* atoms:   atom_id,weight,f,g            one row per atom
* law:     atom_id,lambda,u1,v1,u2,v2    single-branch rows repeat the point
                                         and store lambda 1 (left endpoint)
                                         or 0 (right endpoint)
* samples: sample_id,atom_id,u,xi,eta    sample_id is the draw index
* curve:   stage,kind,ax,ay,bx,by        walk order, plus an SVG companion

Every reader applies one atom-id rule (nonempty, unique, and free of ``,``,
``"`` and line breaks, so a row never needs quoting) and names the file and
line of the first row that breaks it; every atom-keyed writer checks the
same rule before it opens its file, and also refuses an id that would not
read back as written (surrounding whitespace, which the reader strips, or
any line break that ``str.splitlines`` splits on).  One table reader parses
every CSV input.  Plain text (no ``"`` and no line break but ``\\n``, as in every
file the writers write) is read twice a block of bytes at a time: once to count
its rows, then to parse each block, cut after its last ``\\n`` (a byte no
multibyte UTF-8 sequence holds), straight into the table's whole columns, so
only one block's text and lines are held at once.  Any other file, or one that
breaks a rule, is read again from the start by the row loop, which names the
first fault.  A pipe, which cannot seek back, is read once and held.  Ids are
held as one numpy ``StringDType`` column (numpy >= 2.0) from reader to writer.
One table writer lays out every CSV output row: a slice of rows is one join
over its cells, laid out between their ``,`` and ``\n`` separators.

The writer takes plain columns, formatted cell by cell, and coded columns:
an object array of cells and one code per row, so a value that repeats is
formatted once and a slice's cells are one gather.  A sample row's atom id
is coded by its atom index, and its xi,eta pair by its law branch: each
branch point is formatted at most once per run, in the chunk whose draws
first emit it, and kept until the run ends.  Samples may arrive in chunks:
the writer opens its file once and streams every chunk into it, so no more
than one chunk of draws is held at a time, the first too once it is
written, beside the cells of the distinct branches drawn so far (at most
two per atom).

Reports serialize two ways: a flat key=value text block (summary fields
first, then per-check statistic/threshold/pass triples) and CSV rows
``check,statistic,threshold,pass``.
"""

from __future__ import annotations

import csv
import math
import operator
from io import BytesIO
from pathlib import Path
from itertools import chain, repeat
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InputFormatError
from .filtration import ID_DTYPE, FiltrationModel, frozen_array, fsum_column
from .geometry import Segment, curve_segments
from .lifting import LiftedLaw, Samples
from .verification import VerificationReport

__all__ = [
    "format_float",
    "ingest_atoms",
    "write_atoms_csv",
    "read_law_csv",
    "write_law_csv",
    "write_samples_csv",
    "export_curve",
    "report_kv_lines",
    "report_csv_rows",
    "write_report_kv",
    "write_report_csv",
]

#: How far the atom weights may drift from summing to 1 before ingestion
#: rejects the file instead of renormalizing.
WEIGHT_RENORM_TOL = 1e-6

_ATOMS_HEADER = ["atom_id", "weight", "f", "g"]
_LAW_HEADER = ["atom_id", "lambda", "u1", "v1", "u2", "v2"]
_SAMPLES_HEADER = ["sample_id", "atom_id", "u", "xi", "eta"]
_CURVE_HEADER = ["stage", "kind", "ax", "ay", "bx", "by"]
#: What a law row cannot hold, in the order write_law_csv checks it, after at most two branches.
_LAW_ROW_FAULTS = ("a value that is not finite", "one branch of probability other than 1",
                   "probabilities other than (p, 1 - p)", "two branches at one point, one of probability 0")
#: Rows formatted and written per slice by the table writer; the bytes do not depend on it.
_WRITE_ROWS = 4096
#: Bytes read per block by the table reader's bulk path; the table does not depend on it.
_READ_BYTES = 1 << 16
#: A quote, and every line break of str.splitlines but "\n": text holding none is plain.
_NOT_PLAIN = '"\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'
#: Every character that str.isspace accepts, and so str.strip removes.
_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"


def format_float(value: float) -> str:
    """Shortest decimal that round-trips; integral values drop the ``.0``."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _cell_fault(cell: str, field: str, low: float) -> str:
    """What is wrong with one value cell, or "" when it parses to a finite float above ``low``."""
    cell = cell.strip()
    try:
        value = float(cell)
    except ValueError:
        return f"{field} is not a number: {cell!r}"
    if not math.isfinite(value):
        return f"{field} must be finite, got {cell!r}"
    return f"{field} must be positive, got {cell!r}" if value <= low else ""


def _id_fault(atom_id: str) -> str:
    """The atom-id rule of every reader and writer: what is wrong with an id,
    or "" when it is nonempty and free of ``,``, ``"`` and line breaks."""
    if not atom_id:
        return "must be nonempty"
    return f"{atom_id!r} is not CSV-safe" if "," in atom_id or "\n" in atom_id or '"' in atom_id else ""


def _require_good_ids(ids: np.ndarray) -> None:
    """The writers' half of the atom-id rule, run before a file is opened: the
    readers' rule, and the id must read back as written, so no surrounding
    whitespace (readers strip cells) and no line break (readers split lines).
    Each slice of ids is checked joined, and walked only to name a fault."""
    for lo in range(0, ids.size, _WRITE_ROWS):
        part = ids[lo:lo + _WRITE_ROWS].tolist()
        joined = "," + ",".join(part) + ","
        # One "," per id and one more: so no id holds a ",", and every id sits between two.
        if (joined.count(",") == len(part) + 1 and ",," not in joined
                and not any(map(joined.__contains__, "\n" + _NOT_PLAIN))
                and not any(c in joined and ("," + c in joined or c + "," in joined) for c in _SPACES)):
            continue
        for atom_id in part:
            fault = _id_fault(atom_id)
            if not fault and (atom_id.strip() != atom_id or len(atom_id.splitlines()) != 1):
                fault = f"{atom_id!r} would not read back"
            if fault:
                raise InputFormatError(f"atom id {fault}")


def _take_id(atom_id: str, seen: set[str], path: str, line: int) -> str:
    """The readers' half of the atom-id rule: the writers' half, and unique."""
    if _id_fault(atom_id):
        raise InputFormatError(f"{path}:{line}: atom_id {_id_fault(atom_id)}")
    if atom_id in seen:
        raise InputFormatError(f"{path}:{line}: duplicate atom_id {atom_id!r}")
    seen.add(atom_id)
    return atom_id


def _read_table(path: str | Path, header: list[str], positive: Sequence[str] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The one table reader of every CSV input: the id column, and a (k, n) array of the
    other k columns, of which the ``positive`` ones must be > 0.  Plain text is read in
    blocks of bytes; any other text, and any that breaks a rule, by the row loop."""
    name = str(path)
    # low < v rules out nan, -inf, and v <= 0 where low is 0; +inf is ruled out apart.
    low = [0.0 if field in positive else -math.inf for field in header[1:]]
    try:
        with open(path, "rb") as fh:
            # A pipe can be read only once, so its bytes are held for both readers.
            source = fh if fh.seekable() else BytesIO(fh.read())
            table = _read_blocks(source, header, low)
            if table is None:
                source.seek(0)
                table = _read_rows(source, name, header, low)
    except OSError as exc:
        raise InputFormatError(f"cannot read {name}: {exc}") from exc
    return table


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The file's bytes, read ``_READ_BYTES`` at a time, in blocks that each end
    after a ``\\n``, but the last; so every block of UTF-8 text decodes alone."""
    head: list[bytes] = []  # the bytes after the last "\n" read so far
    while chunk := fh.read(_READ_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join(head + [chunk[:cut]])
            head = []
        head.append(chunk[cut:])
    if tail := b"".join(head):
        yield tail


def _read_blocks(fh: BinaryIO, header: list[str], low: list[float]) -> tuple[np.ndarray, np.ndarray] | None:
    """The table of a plain file, read a block of lines at a time, or None when the
    file is not plain or a line breaks a rule of :func:`_read_rows`, which then reads
    every line."""
    k, limit = len(header), csv.field_size_limit()
    # Count the rows first, so that each block's ids and values go straight into whole
    # columns: parts joined at the end would leave their memory to the process.
    rows = ends = 0
    while chunk := fh.read(_READ_BYTES):
        rows, ends = rows + chunk.count(b"\n"), chunk.endswith(b"\n")
    rows -= ends  # the header's line; a last line with no "\n" is a row
    fh.seek(0)
    ids, hashes, table = np.empty(rows, dtype=ID_DTYPE), np.empty(rows, dtype=np.int64), np.empty((rows, k - 1))
    lo = 0
    for n, block in enumerate(_line_blocks(fh)):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if any(map(text.__contains__, _NOT_PLAIN)):
            return None
        lines = text.split("\n")
        del text
        if not lines[-1]:  # the block ends with "\n"
            lines.pop()
        if n == 0 and list(map(str.strip, lines.pop(0).split(","))) != header:
            return None
        if not lines:
            continue
        # Exactly k - 1 commas and no oversize field: csv.reader splits the line as str.split does.
        if list(map(str.count, lines, repeat(","))).count(k - 1) != len(lines) or max(map(len, lines)) > limit:
            return None
        cells = ",".join(lines).split(",")
        del lines
        block_ids = list(map(str.strip, cells[::k]))
        del cells[::k]
        hi = lo + len(block_ids)
        values = table[lo:hi]
        try:  # a file that grew since it was counted does not fit, and goes to the row loop too
            values[:] = np.fromiter(map(float, map(str.strip, cells)), np.float64, len(cells)).reshape(-1, k - 1)
        except ValueError:
            return None
        if "" in block_ids or not np.all((low < values) & (values < math.inf)):
            return None
        ids[lo:hi] = block_ids
        hashes[lo:hi] = np.fromiter(map(hash, block_ids), np.int64, len(block_ids))
        lo = hi
    if lo != rows or not rows:
        return None
    # Unequal hashes prove the ids unique; equal ones, a repeat or a collision, go to the row loop.
    hashes.sort()
    if np.any(hashes[1:] == hashes[:-1]):
        return None
    return frozen_array(ids, ID_DTYPE), table.T


def _read_rows(source: BinaryIO, name: str, header: list[str], low: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The row loop, over the whole file read again from the start: every wrong field
    count, then an empty table, is named before the first id or value fault."""
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise InputFormatError(f"{name}:{line}: not UTF-8 text ({exc.reason})") from None
    lines = text.splitlines()
    del text
    if not lines:
        raise InputFormatError(f"{name}: empty file")
    rows = csv.reader(lines)
    ids: list[str] = []
    seen: set[str] = set()
    flat: list[float] = []
    fault = ""
    try:
        got = [cell.strip() for cell in next(rows)]
        if got != header:
            raise InputFormatError(f"{name}:1: expected header {','.join(header)!r}, got {','.join(got)!r}")
        for line, cells in enumerate(rows, start=2):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue  # blank line
            if len(cells) != len(header):
                raise InputFormatError(f"{name}:{line}: expected {len(header)} fields, got {len(cells)}")
            if not fault:  # past the first id or value fault, only field counts are checked
                try:
                    ids.append(_take_id(cells[0].strip(), seen, name, line))
                    values = list(map(float, map(str.strip, cells[1:])))
                    if not all(map(operator.lt, low, values)) or math.inf in values:
                        raise ValueError
                    flat += values
                except InputFormatError as exc:
                    fault = str(exc)
                except ValueError:  # only the cell walk names a value fault
                    fault = f"{name}:{line}: " + next(filter(None, map(_cell_fault, cells[1:], header[1:], low)))
    except csv.Error as exc:
        raise InputFormatError(f"{name}:{rows.line_num}: {exc}") from None
    if fault or not ids:
        raise InputFormatError(fault or f"{name}: no data rows")
    return frozen_array(ids, ID_DTYPE), np.array(flat).reshape(len(ids), len(low)).T


def ingest_atoms(path: str | Path) -> FiltrationModel:
    """Load an atoms CSV into a model.

    Weights must be positive and sum to 1 within WEIGHT_RENORM_TOL; an
    in-tolerance drift is renormalized away, anything worse is rejected.
    Errors carry the file name and line number.
    """
    ids, (weights, f, g) = _read_table(path, _ATOMS_HEADER, positive=("weight",))
    try:
        total = fsum_column(weights)
    except OverflowError:  # finite weights whose sum passes the float range
        total = math.inf
    if abs(total - 1.0) > WEIGHT_RENORM_TOL:
        raise InputFormatError(f"{path}: atom weights sum to {total!r}, outside 1 +- {WEIGHT_RENORM_TOL}")
    return FiltrationModel.from_columns(ids, weights / total, f, g)


def _open_out(path: str | Path) -> TextIO:
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


class _Coded(NamedTuple):
    """A column whose row k is ``cells[codes[k]]``, with ``cells`` an object array."""

    cells: np.ndarray
    codes: np.ndarray


def _float_cells(values: np.ndarray) -> list[str]:
    """:func:`format_float` of each float64 value: ``repr``, but where a value is
    integral or infinite, formatted once per distinct value (+-0 both as ``0``)."""
    whole = values == np.trunc(values)
    if not whole.any():
        return list(map(repr, values.tolist()))
    cells = np.empty(values.size, dtype=object)
    cells[~whole] = list(map(repr, values[~whole].tolist()))
    distinct, code = np.unique(values[whole], return_inverse=True)
    cells[whole] = np.array(list(map(format_float, distinct.tolist())), dtype=object)[code]
    return cells.tolist()


def _cells(column: Sequence | _Coded, lo: int, hi: int) -> Iterable[str]:
    if isinstance(column, _Coded):
        return column.cells[column.codes[lo:hi]].tolist()
    part = column[lo:hi]
    if isinstance(part, np.ndarray):  # float64, or an id column
        return _float_cells(part) if part.dtype == np.float64 else part.tolist()
    return map(str, part)


def _write_csv(path: str | Path, header: list[str], tables: Iterable[Sequence[Sequence | _Coded]]) -> None:
    """The one row layout of every CSV file: a header, then the rows of each
    table in turn.  Row k of a table holds item k of each of its columns, a
    float array's through :func:`format_float`, a coded column's cell, any
    other's through ``str``.  The first column, which sets the row count, is
    not coded.  Each slice of rows is one join over its cells, laid out
    between their ``,`` and ``\n`` separators."""
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for columns in tables:
            k, rows = len(columns), len(columns[0])
            # Cell j of a row sits at 2j, the separator after it at 2j + 1.
            line = [","] * (2 * k)
            line[-1] = "\n"
            for lo in range(0, rows, _WRITE_ROWS):
                hi = min(lo + _WRITE_ROWS, rows)
                text = line * (hi - lo)
                for j, column in enumerate(columns):
                    text[2 * j::2 * k] = _cells(column, lo, hi)
                fh.write("".join(text))


def write_atoms_csv(model: FiltrationModel, path: str | Path) -> None:
    _require_good_ids(model.id_column)
    _write_csv(path, _ATOMS_HEADER, [(model.id_column, model.weights(), model.f, model.g)])


def _law_slice(law: LiftedLaw, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Atoms [lo, hi) of ``law``: each one's first and last branch, and its law
    row's value columns (lambda, u1, v1, u2, v2)."""
    first, last = law.ends(lo, hi)
    u1, v1 = law.x[first], law.y[first]
    return first, last, (np.where(first == last, np.where(u1 < 0.0, 1.0, 0.0), law.prob[first]),
                         u1, v1, law.x[last], law.y[last])


def write_law_csv(law: LiftedLaw, path: str | Path) -> None:
    """One row per atom, in the law's own atom order.

    Two-branch atoms store lambda and both points.  Single-branch atoms
    repeat their point in both slots, with lambda 1 when the point sits on a
    negative vertical side (x < 0) and 0 otherwise.  A law that cannot be
    written, or not read back unchanged, is rejected before the file is opened:
    the first rule any atom breaks is reported, at the first atom that breaks
    it.  The law is checked, then written, one write slice of atoms at a time.
    """
    ids = law.id_column
    if not ids.size:
        raise InputFormatError("law has no atoms: a law file needs at least one data row")
    _require_good_ids(ids)
    slices = [(lo, min(lo + _WRITE_ROWS, ids.size)) for lo in range(0, ids.size, _WRITE_ROWS)]
    broken: dict[int, int] = {}  # rule -> first atom that breaks it
    for lo, hi in slices:
        first, last, columns = _law_slice(law, lo, hi)
        u1, v1, u2, v2, p, single = *columns[1:], law.prob[first], first == last
        collapses = (u1 == u2) & (v1 == v2) & ((p == 0.0) | (p == 1.0))
        for rule, bad in enumerate((last - first > 1,
                                    ~np.logical_and.reduce(list(map(np.isfinite, columns))),
                                    single & (p != 1.0),
                                    ~single & (law.prob[last] != 1.0 - p),
                                    ~single & collapses)):
            if rule not in broken and np.any(bad):
                broken[rule] = lo + int(np.argmax(bad))
    if broken:
        rule, i = min(broken.items())
        what = (f"cannot serialize {np.count_nonzero(law.owner == i)} branches" if rule == 0
                else f"a law row cannot hold {_LAW_ROW_FAULTS[rule - 1]}")
        raise InputFormatError(f"atom {ids[i]!r}: {what}")
    _write_csv(path, _LAW_HEADER, ((ids[lo:hi], *_law_slice(law, lo, hi)[2]) for lo, hi in slices))


def read_law_csv(path: str | Path) -> LiftedLaw:
    """Load a law CSV verbatim.

    A row collapses back to a single branch only when both stored points are
    exactly equal and lambda is exactly 0 or 1 (the writer's convention for
    collapsed laws); everything else is kept as two branches with
    probabilities (lambda, 1 - lambda) for the verifier to judge.
    """
    ids, (lam, u1, v1, u2, v2) = _read_table(path, _LAW_HEADER)
    two = ~((u1 == u2) & (v1 == v2) & ((lam == 0.0) | (lam == 1.0)))
    # Row i's first branch follows the branches of the rows before it; its second, if kept,
    # follows the first.  A collapsed row keeps only its first point, with probability 1.
    first = np.cumsum(two) - two + np.arange(two.size)
    second = first[two] + 1
    owner = np.repeat(np.arange(two.size), 1 + two)
    prob, x, y = np.empty(owner.size), np.empty(owner.size), np.empty(owner.size)
    prob[first], prob[second] = np.where(two, lam, 1.0), 1.0 - lam[two]
    x[first], x[second] = u1, u2[two]
    y[first], y[second] = v1, v2[two]
    return LiftedLaw.from_columns(ids, owner, prob, x, y)


def write_samples_csv(samples: Samples | Iterable[Samples], path: str | Path) -> None:
    """One row per draw, ``sample_id`` counting from each chunk's ``start``.

    ``samples`` is one :class:`Samples` or the chunks of one run in draw
    order, one or more, such as :func:`~comolift.lifting.sample_chunks`
    yields: they share the first chunk's ids and law columns, and only one
    is held at a time, the first too once it is written.
    The ids are checked before the file is opened.  A law branch's point is
    formatted once, when a draw first emits it, and its cell kept for the
    rest of the run: each chunk formats the branches it draws first, found
    by one bool scatter over the branches, as one float slice per
    coordinate.  A run formats and keeps no more points than the distinct
    branches it draws, which pays off when draws repeat branches.
    """
    chunks = iter((samples,) if isinstance(samples, Samples) else samples)
    head = next(chunks)
    _require_good_ids(head.ids)
    ids = head.ids.astype(object)  # atom i's id cell
    points = np.empty(head.x.size, dtype=object)  # branch b's "x,y" cell, once a draw has emitted b
    pending = np.ones(head.x.size, dtype=bool)
    chunks = chain((head,), chunks)
    del head

    def tables() -> Iterator[tuple]:
        for s in chunks:
            hit = np.zeros_like(pending)
            hit[s.branch] = True
            new = np.flatnonzero(hit & pending)
            pending[new] = False
            points[new] = list(map("{},{}".format, _float_cells(s.x[new]), _float_cells(s.y[new])))
            yield range(s.start, s.start + len(s)), _Coded(ids, s.idx), s.u, _Coded(points, s.branch)

    _write_csv(path, _SAMPLES_HEADER, tables())


def _svg_path(points: Iterable[tuple[float, float]]) -> str:
    return " ".join(f"{format_float(x)},{format_float(-y)}" for x, y in points)


def _curve_svg(segments: Sequence[Segment], max_stage: int) -> str:
    big = 2.0 ** (max_stage + 1)
    pad = big * 0.05
    lo = -(big + pad)
    span = 2.0 * (big + pad)
    stroke = big / 200.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{format_float(lo)} {format_float(lo)} '
        f'{format_float(span)} {format_float(span)}">',
    ]
    for n in range(1, max_stage + 1):
        side = 2.0 ** (n + 1)
        half = 2.0 ** n
        ring = [(-side, -side), (-side, -half), (side, side), (side, half)]
        parts.append(
            f'<polygon points="{_svg_path(ring)}" fill="none" '
            f'stroke="#8888aa" stroke-width="{format_float(stroke / 2.0)}"/>'
        )
    walk = [segments[0].a.as_tuple()] + [seg.b.as_tuple() for seg in segments]
    parts.append(
        f'<polyline points="{_svg_path(walk)}" fill="none" '
        f'stroke="#cc3311" stroke-width="{format_float(stroke)}"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_curve(max_stage: int, path: str | Path) -> None:
    """Write the curve's segments as CSV plus an SVG companion.

    The CSV lists segments in walk order.  The SVG (same stem, .svg suffix)
    draws the walk over the outlines of the nested parallelograms, y axis
    flipped to match screen coordinates.
    """
    segments = curve_segments(max_stage)
    path = Path(path)
    ends = np.array([(*seg.a.as_tuple(), *seg.b.as_tuple()) for seg in segments]).T
    stages, kinds = [seg.stage for seg in segments], [seg.kind for seg in segments]
    _write_csv(path, _CURVE_HEADER, [(stages, kinds, *ends)])
    svg_path = path.with_suffix(".svg")
    with _open_out(svg_path) as fh:
        fh.write(_curve_svg(segments, max_stage))


def _kv_bool(flag: bool) -> str:
    return "true" if flag else "false"


def report_kv_lines(report: VerificationReport) -> list[str]:
    """Flat key=value serialization: summary fields, then per-check rows."""
    lines = [
        f"overallPass={_kv_bool(report.overall_pass)}",
        f"maxReconstructionError={format_float(report.max_reconstruction_error)}",
        f"condExpMaxResidual={format_float(report.cond_exp_max_residual)}",
        f"minComonotoneProduct={format_float(report.min_comonotone_product)}",
        f"minNormBoundMargin={format_float(report.min_norm_bound_margin)}",
    ]
    for row in report.rows():
        lines.append(f"check.{row.name}.statistic={format_float(row.statistic)}")
        lines.append(f"check.{row.name}.threshold={format_float(row.threshold)}")
        lines.append(f"check.{row.name}.pass={_kv_bool(row.passed)}")
    return lines


def report_csv_rows(report: VerificationReport) -> list[str]:
    lines = ["check,statistic,threshold,pass"]
    for row in report.rows():
        lines.append(
            f"{row.name},{format_float(row.statistic)},"
            f"{format_float(row.threshold)},{_kv_bool(row.passed)}"
        )
    return lines


def write_report_kv(report: VerificationReport, stream: TextIO) -> None:
    for line in report_kv_lines(report):
        stream.write(line + "\n")


def write_report_csv(report: VerificationReport, path: str | Path) -> None:
    with _open_out(path) as fh:
        for line in report_csv_rows(report):
            fh.write(line + "\n")
