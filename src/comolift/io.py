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
every CSV input row, and one table writer lays out every CSV output row.

The writer takes plain columns, formatted cell by cell, and coded columns:
a list of cells and one code per row, so a value that repeats is formatted
once.  A sample row's atom id is coded by its atom index, and its xi,eta
pair by its law branch: each branch point is formatted at most once per
run, when a draw first emits it, and kept until the run ends.  Samples may
arrive in chunks: the writer opens its file once and streams every chunk
into it, so no more than one chunk of draws is held at a time, beside the
cells of the distinct branches drawn so far (at most two per atom).

Reports serialize two ways: a flat key=value text block (summary fields
first, then per-check statistic/threshold/pass triples) and CSV rows
``check,statistic,threshold,pass``.
"""

from __future__ import annotations

import csv
import math
import operator
from pathlib import Path
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InputFormatError
from .filtration import FiltrationModel
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
#: Rows formatted and written per slice by the table writer; the bytes do not depend on it.
_WRITE_ROWS = 4096


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


def _require_good_ids(ids: Iterable[str]) -> None:
    """The writers' half of the atom-id rule, run before a file is opened: the
    readers' rule, and the id must read back as written, so no surrounding
    whitespace (readers strip cells) and no line break (readers split lines)."""
    for atom_id in ids:
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


def _read_table(path: str | Path, header: list[str], positive: Sequence[str] = ()) -> tuple[list[str], np.ndarray]:
    """The one row loop of every CSV reader: the ids, and a (k, n) array of the
    other k columns, of which the ``positive`` ones must be > 0.  Every wrong field
    count, then an empty table, is reported before the first row's id or value fault."""
    name = str(path)
    try:
        lines = Path(path).read_bytes().decode("utf-8").splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise InputFormatError(f"{name}:{line}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise InputFormatError(f"{name}: empty file")
    rows = csv.reader(lines)
    # low < v rules out nan, -inf, and v <= 0 where low is 0; +inf is ruled out apart.
    low = [0.0 if field in positive else -math.inf for field in header[1:]]
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
    return ids, np.array(flat).reshape(len(ids), len(low)).T


def ingest_atoms(path: str | Path) -> FiltrationModel:
    """Load an atoms CSV into a model.

    Weights must be positive and sum to 1 within WEIGHT_RENORM_TOL; an
    in-tolerance drift is renormalized away, anything worse is rejected.
    Errors carry the file name and line number.
    """
    ids, (weights, f, g) = _read_table(path, _ATOMS_HEADER, positive=("weight",))
    try:
        total = math.fsum(weights.tolist())
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
    """A column whose row k is ``cells[codes[k]]``."""

    cells: Sequence[str]
    codes: np.ndarray


def _cells(column: Sequence | _Coded, lo: int, hi: int) -> Iterable[str]:
    if isinstance(column, _Coded):  # a list zips faster than a lazy gather
        return list(map(column.cells.__getitem__, column.codes[lo:hi].tolist()))
    part = column[lo:hi]
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return map(format_float, part.tolist())
    return map(str, part)


def _write_csv(path: str | Path, header: list[str], tables: Iterable[Sequence[Sequence | _Coded]]) -> None:
    """The one row layout of every CSV file: a header, then the rows of each
    table in turn.  Row k of a table holds item k of each of its columns, a
    float array's through :func:`format_float`, a coded column's cell, any
    other's through ``str``.  The first column, which sets the row count, is
    not coded."""
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for columns in tables:
            for lo in range(0, len(columns[0]), _WRITE_ROWS):
                cells = [_cells(column, lo, lo + _WRITE_ROWS) for column in columns]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_atoms_csv(model: FiltrationModel, path: str | Path) -> None:
    _require_good_ids(model.ids())
    _write_csv(path, _ATOMS_HEADER, [(model.ids(), model.weights(), model.f, model.g)])


def write_law_csv(law: LiftedLaw, path: str | Path) -> None:
    """One row per atom, in the law's own atom order.

    Two-branch atoms store lambda and both points.  Single-branch atoms
    repeat their point in both slots, with lambda 1 when the point sits on a
    negative vertical side (x < 0) and 0 otherwise.  A law that cannot be
    written is rejected before the file is opened.
    """
    ids = law.atom_ids()
    _require_good_ids(ids)
    first, last = law.ends()
    wide = last - first > 1
    if np.any(wide):
        i = int(np.argmax(wide))
        raise InputFormatError(f"atom {ids[i]!r}: cannot serialize {last[i] - first[i] + 1} branches")
    x, y = law.x, law.y
    single = first == last
    lam = np.where(single, np.where(x[first] < 0.0, 1.0, 0.0), law.prob[first])
    _write_csv(path, _LAW_HEADER, [(ids, lam, x[first], y[first], x[last], y[last])])


def read_law_csv(path: str | Path) -> LiftedLaw:
    """Load a law CSV verbatim.

    A row collapses back to a single branch only when both stored points are
    exactly equal and lambda is exactly 0 or 1 (the writer's convention for
    collapsed laws); everything else is kept as two branches with
    probabilities (lambda, 1 - lambda) for the verifier to judge.
    """
    ids, (lam, u1, v1, u2, v2) = _read_table(path, _LAW_HEADER)
    single = (u1 == u2) & (v1 == v2) & ((lam == 0.0) | (lam == 1.0))
    # A collapsed row keeps only its first point, with probability 1.
    keep = np.column_stack((np.ones_like(single), ~single))
    return LiftedLaw.from_pairs(ids, keep, np.column_stack((np.where(single, 1.0, lam), 1.0 - lam)),
                                np.column_stack((u1, u2)), np.column_stack((v1, v2)))


def write_samples_csv(samples: Samples | Iterable[Samples], path: str | Path) -> None:
    """One row per draw, ``sample_id`` counting from each chunk's ``start``.

    ``samples`` is one :class:`Samples` or the chunks of one run in draw
    order, one or more, such as :func:`~comolift.lifting.sample_chunks`
    yields: they share the first chunk's ids and law columns, and only one
    is held at a time.
    The ids are checked before the file is opened.  A law branch's point is
    formatted once, when a draw first emits it, and its cell kept for the
    rest of the run: a run formats and keeps no more points than the
    distinct branches it draws, which pays off when draws repeat branches.
    """
    chunks = iter((samples,) if isinstance(samples, Samples) else samples)
    head = next(chunks)
    _require_good_ids(head.ids)
    points = [""] * head.x.size  # branch b's "x,y" cell, once a draw has emitted b
    pending = np.ones(head.x.size, dtype=bool)

    def tables() -> Iterator[tuple]:
        for s in chain((head,), chunks):
            new = np.flatnonzero(pending & (np.bincount(s.branch, minlength=pending.size) > 0))
            pending[new] = False
            xs, ys = map(format_float, s.x[new].tolist()), map(format_float, s.y[new].tolist())
            for b, x, y in zip(new.tolist(), xs, ys):
                points[b] = x + "," + y
            yield range(s.start, s.start + len(s)), _Coded(s.ids, s.idx), s.u, _Coded(points, s.branch)

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
