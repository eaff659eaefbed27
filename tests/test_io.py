"""File formats: ingestion rules, round-trips, curve export, report dumps."""

from __future__ import annotations

import csv
import math
import os
import random
import re
import string
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from law_pairs import law_from_pairs

from comolift import filtration
from comolift import io as comolift_io
from comolift.errors import InputFormatError
from comolift.filtration import ID_DTYPE, Atom, FiltrationModel
from comolift.geometry import Point2
from comolift.io import (
    export_curve,
    format_float,
    ingest_atoms,
    read_law_csv,
    report_csv_rows,
    report_kv_lines,
    write_atoms_csv,
    write_law_csv,
    write_samples_csv,
)
from comolift.lifting import LiftedLaw, lift, sample_chunks, sample_lift
from comolift.verification import verify_model


def model_of(coords):
    w = 1.0 / len(coords)
    return FiltrationModel(
        [Atom(f"m{i}", w, Point2(x, y)) for i, (x, y) in enumerate(coords)]
    )


@pytest.mark.parametrize(
    "value,text",
    [
        (-4.0, "-4"),
        (0.0, "0"),
        (-0.0, "0"),
        (0.5, "0.5"),
        (0.1, "0.1"),
        (2.0 ** 53, "9007199254740992"),
        (1 / 3, "0.3333333333333333"),
        (1e-9, "1e-09"),
        (123456789.25, "123456789.25"),
    ],
)
def test_format_float_frozen(value, text):
    assert format_float(value) == text


@pytest.mark.parametrize("value", [0.1, 1 / 3, 1e-300, -math.pi, 2.0 ** 1021, 5e-324])
def test_format_float_round_trips(value):
    assert float(format_float(value)) == value


def test_ingest_atoms_basic(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.5,0,0\nb,0.5,8,8\n")
    m = ingest_atoms(p)
    assert m.ids() == ("a", "b")
    assert (m.f[1], m.g[1]) == (8.0, 8.0)
    assert math.fsum(a.weight for a in m.atoms) == pytest.approx(1.0, abs=1e-12)


def test_ingest_atoms_renormalizes_small_drift(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.5000001,1,2\nb,0.5,3,4\n")
    m = ingest_atoms(p)
    assert abs(math.fsum(a.weight for a in m.atoms) - 1.0) <= 1e-12


def test_ingest_atoms_rejections(tmp_path):
    cases = [
        ("atom_id,weight,f,g\na,0.3,0,0\nb,0.3,1,1\n", "sum"),  # sum 0.6
        ("atom_id,weight,f,g\na,1.0,1e400,0\n", "finite"),
        ("atom_id,weight,f,g\na,0.5,0,0\na,0.5,1,1\n", "duplicate"),
        ("atom_id,weight,f,g\na,-0.5,0,0\nb,1.5,1,1\n", "positive"),
        ("atom_id,weight,f,g\na,0.5,xyz,0\nb,0.5,1,1\n", "number"),
        ("atom_id,weight\na,0.5\n", "header"),
        ("", "empty"),
        ("atom_id,weight,f,g\n", "no data"),
    ]
    for i, (text, hint) in enumerate(cases):
        p = tmp_path / f"bad{i}.csv"
        p.write_text(text)
        with pytest.raises(InputFormatError, match=hint):
            ingest_atoms(p)


def test_ingest_error_carries_line_number(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.5,0,0\nb,0.5,nope,1\n")
    with pytest.raises(InputFormatError, match=r":3:"):
        ingest_atoms(p)


def test_ingest_missing_file():
    with pytest.raises(InputFormatError):
        ingest_atoms("/no/such/file.csv")


def test_atoms_round_trip(tmp_path):
    m = model_of([(0.0, 0.0), (8.0, 8.0), (-123.456, 7.89)])
    p = tmp_path / "atoms.csv"
    write_atoms_csv(m, p)
    again = ingest_atoms(p)
    for a, b in zip(m.atoms, again.atoms):
        assert (a.id, a.weight) == (b.id, b.weight)
        assert a.payoff == b.payoff


_ID_CHARS = string.ascii_letters + string.digits + "_-.:;!?#$%&()[]{}<>=+*/\\|@^~'`"
_payoff = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def model_columns(draw):
    """Ids, dyadic weights that sum to exactly 1, and payoffs over the whole float range."""
    counts = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=30))
    scale = 1 << max(sum(counts) - 1, 1).bit_length()
    if scale > sum(counts):
        counts.append(scale - sum(counts))
    n = len(counts)
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=6), min_size=n, max_size=n, unique=True))
    f = draw(st.lists(_payoff, min_size=n, max_size=n))
    g = draw(st.lists(_payoff, min_size=n, max_size=n))
    return ids, [c / scale for c in counts], f, g


@given(columns=model_columns())
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_model_constructors_and_atoms_file_agree(tmp_path, columns):
    ids, weights, f, g = columns
    atoms = [Atom(i, w, Point2(x, y)) for i, w, x, y in zip(ids, weights, f, g)]
    by_atoms = FiltrationModel(atoms)
    by_columns = FiltrationModel.from_columns(ids, weights, f, g)
    for m in (by_atoms, by_columns):
        assert m.ids() == tuple(ids)
        assert m.weights().tobytes() == np.array(weights).tobytes()
        assert (m.f.tobytes(), m.g.tobytes()) == (np.array(f).tobytes(), np.array(g).tobytes())
        assert m.atoms == tuple(atoms) == tuple(m)
        (i,) = np.flatnonzero(m.id_column == ids[-1])
        assert m.atoms[i] == atoms[-1]
    p = tmp_path / "atoms.csv"
    write_atoms_csv(by_columns, p)
    again = ingest_atoms(p)
    assert again.ids() == by_columns.ids()
    # Weights summing to exactly 1 survive renormalization bit for bit; a
    # payoff of -0.0 comes back as 0, as format_float writes it.
    assert again.weights().tobytes() == by_columns.weights().tobytes()
    assert again.f.tolist() == f and again.g.tolist() == g


def test_ingested_model_is_immutable(tmp_path):
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.5,0,0\nb,0.5,8,8\n")
    m = ingest_atoms(p)
    with pytest.raises(AttributeError):
        m.atoms = ()
    with pytest.raises(AttributeError):
        m.f = m.g
    for column in (m.weights(), m.f, m.g):
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert m.atoms == (Atom("a", 0.5, Point2(0.0, 0.0)), Atom("b", 0.5, Point2(8.0, 8.0)))


def test_law_round_trip_bitwise(tmp_path):
    m = model_of([(0.0, 0.0), (8.0, 8.0), (-4.0, -4.0), (1e6, -1e6), (1e-3, 2e-3)])
    law = lift(m)
    p = tmp_path / "law.csv"
    write_law_csv(law, p)
    again = read_law_csv(p)
    assert dict(again.branches) == dict(law.branches)
    # And the round-tripped law verifies against the model.
    rep = verify_model(m, again, mc_samples=0, seed=1, tol=1e-9)
    assert rep.overall_pass


def test_law_degenerate_row_conventions(tmp_path):
    m = model_of([(8.0, 8.0), (-4.0, -4.0)])
    p = tmp_path / "law.csv"
    write_law_csv(lift(m), p)
    lines = p.read_text().splitlines()
    assert lines[0] == "atom_id,lambda,u1,v1,u2,v2"
    # Right-side single branch stores lambda=0, left-side lambda=1; the
    # point is repeated in both slots.
    assert lines[1] == "m0,0,8,8,8,8"
    assert lines[2] == "m1,1,-4,-4,-4,-4"


def test_law_reader_keeps_tampered_degenerate_rows(tmp_path):
    p = tmp_path / "law.csv"
    p.write_text("atom_id,lambda,u1,v1,u2,v2\nm0,0,8,8.000001,8,8\n")
    law = read_law_csv(p)
    assert len(law.branches["m0"]) == 2  # not collapsed: points differ
    p.write_text("atom_id,lambda,u1,v1,u2,v2\nm0,0.5,8,8,8,8\n")
    law = read_law_csv(p)
    assert len(law.branches["m0"]) == 2  # not collapsed: lambda not in {0,1}


def test_law_reader_rejections(tmp_path):
    p = tmp_path / "law.csv"
    p.write_text("atom_id,lambda,u1,v1,u2,v2\nm0,0.5,1,1,inf,0\n")
    with pytest.raises(InputFormatError, match="finite"):
        read_law_csv(p)
    p.write_text("atom_id,lambda,u1,v1,u2,v2\nm0,0.5,1,1,2,2\nm0,0.5,1,1,2,2\n")
    with pytest.raises(InputFormatError, match="duplicate"):
        read_law_csv(p)


def test_samples_csv_format(tmp_path):
    m = model_of([(0.0, 0.0), (8.0, 8.0)])
    law = lift(m)
    samples = sample_lift(m, law, 5, seed=42)
    p = tmp_path / "samples.csv"
    write_samples_csv(samples, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "sample_id,atom_id,u,xi,eta"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("m0", "m1")
    assert float(first[2]) == samples.u[0]  # round-trip exact


def test_zero_draws_write_only_the_header(tmp_path):
    m = model_of([(0.0, 0.0), (8.0, 8.0)])
    p = tmp_path / "samples.csv"
    write_samples_csv(sample_lift(m, lift(m), 0, seed=42), p)
    assert p.read_text() == "sample_id,atom_id,u,xi,eta\n"


@pytest.mark.parametrize("bad_id", ["x,y", 'x"y', "x\ny"])
def test_atom_keyed_writers_refuse_unsafe_ids_before_opening(tmp_path, bad_id):
    # Such an id would need quoting, and the readers refuse it: no writer may
    # leave a file behind that cannot be read back.
    m = FiltrationModel.from_columns([bad_id, "b"], [0.5, 0.5], [0.0, 1.0], [0.0, 2.0])
    law = lift(m)
    for writer, table in ((write_atoms_csv, m), (write_law_csv, law),
                          (write_samples_csv, sample_lift(m, law, 3, seed=1))):
        p = tmp_path / f"{writer.__name__}.csv"
        with pytest.raises(InputFormatError, match="not CSV-safe"):
            writer(table, p)
        assert not p.exists()


@pytest.mark.parametrize("bad_id", ["a\rb", "a\x85b", "a\u2028b", " a"])
def test_atom_keyed_writers_refuse_ids_that_do_not_read_back(tmp_path, bad_id):
    # The reader splits lines with str.splitlines and strips every cell, so
    # such an id would split its row or come back changed.
    m = FiltrationModel.from_columns([bad_id, "b"], [0.5, 0.5], [0.0, 1.0], [0.0, 2.0])
    law = lift(m)
    for writer, table in ((write_atoms_csv, m), (write_law_csv, law),
                          (write_samples_csv, sample_lift(m, law, 3, seed=1))):
        p = tmp_path / f"{writer.__name__}.csv"
        with pytest.raises(InputFormatError, match="would not read back"):
            writer(table, p)
        assert not p.exists()


def test_reader_errors_spell_the_path_as_given(tmp_path, monkeypatch):
    # File-level and row-level messages name the file the same way.
    monkeypatch.chdir(tmp_path)
    for body, line in (("a,1,0,0\nb,0\n", 3), ("a,1,0,0\nb,0,0,0\n", 3)):
        Path("a.csv").write_text("atom_id,weight,f,g\n" + body)
        with pytest.raises(InputFormatError, match=rf"^\./a\.csv:{line}: "):
            ingest_atoms("./a.csv")


def test_atom_keyed_writers_refuse_empty_ids_before_opening(tmp_path):
    # The readers refuse an empty id, so the writers must not write one.
    m = FiltrationModel.from_columns(["", "b"], [0.5, 0.5], [0.0, 1.0], [0.0, 2.0])
    law = lift(m)
    for writer, table in ((write_atoms_csv, m), (write_law_csv, law),
                          (write_samples_csv, sample_lift(m, law, 3, seed=1))):
        p = tmp_path / f"{writer.__name__}.csv"
        with pytest.raises(InputFormatError, match="atom id must be nonempty"):
            writer(table, p)
        assert not p.exists()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_non_utf8_input_names_the_line_of_the_first_bad_byte(tmp_path, end):
    # Lines are counted as the reader splits them, whatever the line ending.
    p = tmp_path / "atoms.csv"
    p.write_bytes(end.join(["atom_id,weight,f,g", "a,0.5,0,0", "", "b\xff,0.5,1,\xfe1"]).encode("latin-1"))
    with pytest.raises(InputFormatError, match=rf"^{p}:4: not UTF-8 text \(invalid start byte\)$"):
        ingest_atoms(p)


def test_written_bytes_do_not_depend_on_the_slice_size(tmp_path, monkeypatch):
    # 120 curve rows and 50 atom rows: slices of 1 and 7 rows cross many
    # slice boundaries, and 7 divides neither count.
    m = model_of([(x, 0.5 * x + 1.0) for x in np.linspace(-1e3, 1e3, 50).tolist()])

    def written(rows):
        monkeypatch.setattr(comolift_io, "_WRITE_ROWS", rows)
        export_curve(30, tmp_path / "curve.csv")
        write_atoms_csv(m, tmp_path / "atoms.csv")
        return (tmp_path / "curve.csv").read_bytes(), (tmp_path / "atoms.csv").read_bytes()

    default = written(comolift_io._WRITE_ROWS)
    assert written(1) == default
    assert written(7) == default


def test_export_curve_frozen_examples(tmp_path):
    p1 = tmp_path / "c1.csv"
    export_curve(1, p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "stage,kind,ax,ay,bx,by"
    assert len(lines) == 1 + 4
    assert lines[1] == "1,vertical,-4,-4,-4,-2"

    p2 = tmp_path / "c2.csv"
    export_curve(2, p2)
    lines = p2.read_text().splitlines()
    assert len(lines) == 1 + 8
    assert lines[-1] == "2,vertical,8,4,8,8"

    p3 = tmp_path / "c3.csv"
    export_curve(3, p3)
    assert len(p3.read_text().splitlines()) == 1 + 12


def test_export_curve_svg_companion(tmp_path):
    p = tmp_path / "curve.csv"
    export_curve(3, p)
    svg = (tmp_path / "curve.svg").read_text()
    assert svg.startswith("<svg ")
    assert "<polyline" in svg
    assert svg.count("<polygon") == 3  # one outline per stage


def test_export_curve_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    export_curve(4, a)
    export_curve(4, b)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_report_serializations_are_consistent(tmp_path):
    m = model_of([(0.0, 0.0), (8.0, 8.0)])
    rep = verify_model(m, lift(m), mc_samples=1000, seed=42, tol=1e-9)
    kv = dict(line.split("=", 1) for line in report_kv_lines(rep))
    assert kv["overallPass"] == "true"
    assert float(kv["maxReconstructionError"]) == rep.max_reconstruction_error
    assert float(kv["minComonotoneProduct"]) == rep.min_comonotone_product
    csv_rows = report_csv_rows(rep)
    assert csv_rows[0] == "check,statistic,threshold,pass"
    assert len(csv_rows) == 1 + len(rep.rows())
    for row, line in zip(rep.rows(), csv_rows[1:]):
        name, stat, thr, passed = line.split(",")
        assert name == row.name
        assert float(stat) == row.statistic
        assert float(thr) == row.threshold
        assert passed == ("true" if row.passed else "false")
        assert kv[f"check.{row.name}.statistic"] == stat


# The row-by-row readers that the one table reader replaced, kept as the
# oracle of the differential tests below: a list of every stripped row, then
# one per-cell loop per format.

def _oracle_rows(path, header):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise InputFormatError(f"{path}: empty file")
    got = [cell.strip() for cell in rows[0]]
    if got != header:
        raise InputFormatError(f"{path}:1: expected header {','.join(header)!r}, got {','.join(got)!r}")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != len(header):
            raise InputFormatError(f"{path}:{i}: expected {len(header)} fields, got {len(row)}")
        out.append((i, [cell.strip() for cell in row]))
    if not out:
        raise InputFormatError(f"{path}: no data rows")
    return out


def _oracle_float(cell, path, line, field):
    try:
        value = float(cell)
    except ValueError:
        raise InputFormatError(f"{path}:{line}: {field} is not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise InputFormatError(f"{path}:{line}: {field} must be finite, got {cell!r}")
    return value


def _oracle_id(atom_id, seen, path, line):
    if not atom_id:
        raise InputFormatError(f"{path}:{line}: atom_id must be nonempty")
    if "," in atom_id or "\n" in atom_id or '"' in atom_id:
        raise InputFormatError(f"{path}:{line}: atom_id {atom_id!r} is not CSV-safe")
    if atom_id in seen:
        raise InputFormatError(f"{path}:{line}: duplicate atom_id {atom_id!r}")
    seen.add(atom_id)
    return atom_id


def _oracle_ingest_atoms(path):
    name = str(path)
    seen = set()
    ids, weights, f, g = [], [], [], []
    for line, row in _oracle_rows(path, ["atom_id", "weight", "f", "g"]):
        ids.append(_oracle_id(row[0], seen, name, line))
        weight = _oracle_float(row[1], name, line, "weight")
        if weight <= 0.0:
            raise InputFormatError(f"{name}:{line}: weight must be positive, got {row[1]!r}")
        weights.append(weight)
        f.append(_oracle_float(row[2], name, line, "f"))
        g.append(_oracle_float(row[3], name, line, "g"))
    try:
        total = math.fsum(weights)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > comolift_io.WEIGHT_RENORM_TOL:
        raise InputFormatError(
            f"{name}: atom weights sum to {total!r}, outside 1 +- {comolift_io.WEIGHT_RENORM_TOL}"
        )
    return FiltrationModel.from_columns(ids, np.array(weights) / total, f, g)


def _oracle_read_law_csv(path):
    header = ["atom_id", "lambda", "u1", "v1", "u2", "v2"]
    rows = _oracle_rows(path, header)
    name = str(path)
    seen = set()
    ids, values = [], []
    for line, row in rows:
        ids.append(_oracle_id(row[0], seen, name, line))
        values.append([_oracle_float(cell, name, line, field) for cell, field in zip(row[1:], header[1:])])
    lam, u1, v1, u2, v2 = np.array(values).T
    single = (u1 == u2) & (v1 == v2) & ((lam == 0.0) | (lam == 1.0))
    keep = np.column_stack((np.ones_like(single), ~single))
    return law_from_pairs(ids, keep, np.column_stack((np.where(single, 1.0, lam), 1.0 - lam)),
                          np.column_stack((u1, u2)), np.column_stack((v1, v2)))


# Characters that str.strip removes but splitlines does not split on.
_PADS = ["", " ", "\t", "\x1f", "\xa0", " \x1f\xa0"]
_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_BAD_NUMBERS = ["nan", "-inf", "Infinity", "1e400", "", "  ", "abc", "1.2.3", "0x10", "1__0", "_1"]
_EDGE_VALUES = [0.0, -0.0, 0.1, 1.0, 2.0 ** 53, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
_FAULTS = ["value", "positive", "sum", "fields", "duplicate", "empty_id", "unsafe_id"]


def _spelling(rnd, x, quotes):
    """A cell that ``float(cell.strip())`` reads as ``x``: shortest or integral
    digits, maybe with ``_`` groups or full-width digits, padding, and quotes
    if ``quotes``."""
    forms = [repr(x), format_float(x)] + ([f"{int(x):_}"] if x.is_integer() and abs(x) < 1e18 else [])
    text = rnd.choice(forms)
    if rnd.random() < 0.3:
        text = text.translate(_FULL_WIDTH)
    text = rnd.choice(_PADS) + text + rnd.choice(_PADS)
    return f'"{text}"' if quotes and rnd.random() < 0.3 else text


@st.composite
def _table_text(draw, law, plain=None):
    """CSV text of an atoms file (``law`` false) or a law file, and whether it
    was built free of faults; such a file must be accepted.  Plain text (drawn
    for about half the files when ``plain`` is None) ends its lines with
    ``\\n`` only and holds no quote and no blank line, as the writers write.
    About a third of the files have no line break after their last row."""
    rnd = random.Random(draw(st.integers(0, 2 ** 64)))
    if plain is None:
        plain = rnd.random() < 0.5
    width = 5 if law else 3
    n = rnd.randint(1, 12)
    values = [rnd.choice(_EDGE_VALUES) if rnd.random() < 0.2 else float(rnd.randint(-10 ** 6, 10 ** 6))
              if rnd.random() < 0.3 else rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-320, 308)
              for _ in range(n * width)]
    rows = [values[i * width:(i + 1) * width] for i in range(n)]
    if law:
        header = ["atom_id", "lambda", "u1", "v1", "u2", "v2"]
        for row in rows:
            if rnd.random() < 0.5:  # the writer's collapsed-row convention
                row[0], row[3], row[4] = rnd.choice([0.0, 1.0]), row[1], row[2]
    else:
        header = ["atom_id", "weight", "f", "g"]
        counts = [rnd.randint(1, 8) for _ in rows]
        scale = 1 << max(sum(counts) - 1, 1).bit_length()  # dyadic weights summing to exactly 1
        counts[-1] += scale - sum(counts)
        for row, count in zip(rows, counts):
            row[0] = count / scale
    # Multibyte ids of 2, 3 and 4 bytes a character, so small read blocks cut inside them.
    ids = rnd.sample(["a", "b", "c", "x_1", "y.2", "z-3", "é", "ab", "ba", "日本", "\U0001d4c1x", "qñ", "t"], n)
    cells = [[rnd.choice(_PADS) + atom_id] + [_spelling(rnd, x, not plain) for x in row]
             for atom_id, row in zip(ids, rows)]
    faults = rnd.sample([f for f in _FAULTS if not plain or f != "unsafe_id"], rnd.choice([0, 0, 0, 1, 1, 2, 3]))
    for fault in faults:
        row = rnd.choice(cells)
        if fault == "value":
            row[rnd.randrange(1, len(row))] = rnd.choice(_BAD_NUMBERS)
        elif fault == "positive":
            row[1] = rnd.choice(["0", "-0", "-0.25", " -1e-300"])
        elif fault == "sum":
            row[1] = "2"
        elif fault == "fields":
            row.append("0") if rnd.random() < 0.5 else row.pop()
        elif fault == "duplicate":
            row[0] = rnd.choice(cells)[0]
        elif fault == "empty_id":
            row[0] = rnd.choice(["", " ", "\x1f"] + ([] if plain else ['""']))
        else:
            row[0] = rnd.choice(['"a,b"', '"a""b"', ' "a,b"'])
    lines = [",".join(header)]
    for row in cells:
        if not plain and rnd.random() < 0.2:
            lines.append(rnd.choice(["", "  ", "\t", "\x1f"]))  # a blank line
        lines.append(",".join(row))
    ends = ["\n"] if plain else ["\n", "\r\n", "\r"]
    text = "".join(line + rnd.choice(ends) for line in lines)
    if rnd.random() < 0.3:  # no line break after the last row
        text = text.rstrip("\r\n")
    return text, not faults


def _outcome(reader, path):
    try:
        return reader(path)
    except InputFormatError as exc:
        return str(exc)


# A read block of 1 to 64 bytes cuts lines, cells and multibyte ids; the default holds every drawn file.
_read_block = st.one_of(st.integers(1, 64), st.just(comolift_io._READ_BYTES))


@given(built=_table_text(law=False), block=_read_block)
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_atoms_agrees_with_the_row_by_row_oracle(tmp_path, monkeypatch, built, block):
    text, fault_free = built
    monkeypatch.setattr(comolift_io, "_READ_BYTES", block)
    p = tmp_path / "atoms.csv"
    p.write_bytes(text.encode("utf-8"))
    want, got = _outcome(_oracle_ingest_atoms, p), _outcome(ingest_atoms, p)
    if isinstance(want, str):
        assert got == want
        assert not fault_free
        return
    assert got.ids() == want.ids()
    for a, b in ((got.weights(), want.weights()), (got.f, want.f), (got.g, want.g)):
        assert a.tobytes() == b.tobytes()


@given(built=_table_text(law=True), block=_read_block)
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_law_csv_agrees_with_the_row_by_row_oracle(tmp_path, monkeypatch, built, block):
    text, fault_free = built
    monkeypatch.setattr(comolift_io, "_READ_BYTES", block)
    p = tmp_path / "law.csv"
    p.write_bytes(text.encode("utf-8"))
    want, got = _outcome(_oracle_read_law_csv, p), _outcome(read_law_csv, p)
    if isinstance(want, str):
        assert got == want
        assert not fault_free
        return
    assert got.id_column.tolist() == want.id_column.tolist()
    for a, b in ((got.owner, want.owner), (got.prob, want.prob), (got.x, want.x), (got.y, want.y)):
        assert a.tobytes() == b.tobytes()


def _table_bytes(table):
    """The ids and the bytes of every column of a model or a law."""
    if isinstance(table, LiftedLaw):
        return tuple(table.id_column.tolist()), [c.tobytes() for c in (table.owner, table.prob, table.x, table.y)]
    return table.ids(), [c.tobytes() for c in (table.weights(), table.f, table.g)]


@pytest.mark.parametrize("law", [False, True], ids=["atoms", "law"])
@given(data=st.data(), block=st.integers(1, 64))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plain_tables_are_read_in_blocks_and_only_the_row_loop_names_a_fault(tmp_path, monkeypatch, law, data, block):
    text, fault_free = data.draw(_table_text(law=law, plain=True))
    p = tmp_path / "table.csv"
    p.write_bytes(text.encode("utf-8"))
    oracle, reader = (_oracle_read_law_csv, read_law_csv) if law else (_oracle_ingest_atoms, ingest_atoms)
    calls, read_rows = [], comolift_io._read_rows
    monkeypatch.setattr(comolift_io, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
    monkeypatch.setattr(comolift_io, "_READ_BYTES", block)
    want, got = _outcome(oracle, p), _outcome(reader, p)
    if isinstance(want, str):
        assert got == want
        # The bulk path names no fault: only the weight sum is judged past the table reader.
        assert calls or "atom weights sum" in got
        return
    if fault_free:
        assert not calls
    assert _table_bytes(got) == _table_bytes(want)


def test_plain_rows_that_trade_a_field_are_refused(tmp_path):
    # 3 + 5 fields make 2 rows of 4 that parse, with weights summing to 1:
    # only a count per line, not the total, sends this file to the row loop.
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.25,1\n5,b,0.75,2,3\n")
    with pytest.raises(InputFormatError, match=re.escape(f"{p}:2: expected 4 fields, got 3")):
        ingest_atoms(p)


@pytest.mark.parametrize("end", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "quote"],
                         ids=["cr", "vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps", "quote"])
def test_text_that_is_not_plain_is_read_by_the_row_loop_alike(tmp_path, monkeypatch, end):
    rows = ["atom_id,lambda,u1,v1,u2,v2", "a,0.25,-4,-3,4,3", "b,1,-2,-1,-2,-1"]
    plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
    plain.write_bytes("".join(row + "\n" for row in rows).encode())
    if end == "quote":
        rows[1], end = '"a",0.25,-4,-3,4,3', "\n"
    other.write_bytes("".join(row + end for row in rows).encode())
    calls, read_rows = [], comolift_io._read_rows
    monkeypatch.setattr(comolift_io, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
    want = _table_bytes(read_law_csv(plain))
    assert not calls
    assert _table_bytes(read_law_csv(other)) == want
    assert len(calls) == 1


@pytest.mark.parametrize("block", [1, 2, 7, comolift_io._READ_BYTES])
def test_crlf_text_is_read_in_blocks_alike(tmp_path, monkeypatch, block):
    # Every block ends after a "\n", so no "\r\n" is cut, and a "\r\n" reads as "\n".
    rows = ["atom_id,lambda,u1,v1,u2,v2", "a,0.25,-4,-3,4,3", "b,1,-2,-1,-2,-1"]
    plain, crlf = tmp_path / "plain.csv", tmp_path / "crlf.csv"
    plain.write_bytes("".join(row + "\n" for row in rows).encode())
    crlf.write_bytes("".join(row + "\r\n" for row in rows).encode())
    calls, read_rows = [], comolift_io._read_rows
    monkeypatch.setattr(comolift_io, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
    monkeypatch.setattr(comolift_io, "_READ_BYTES", block)
    assert _table_bytes(read_law_csv(crlf)) == _table_bytes(read_law_csv(plain))
    assert not calls


@pytest.mark.parametrize("change", ["grown", "shrunk"])
def test_a_file_that_changes_between_count_and_parse_goes_to_the_row_loop(tmp_path, monkeypatch, change):
    # The plain path counts the rows, then parses them into columns of that size:
    # a file that no longer holds that many rows is read again by the row loop.
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.5,0,0\nb,0.5,8,8\n")
    want = _table_bytes(ingest_atoms(p))
    line_blocks = comolift_io._line_blocks

    def changed(fh):
        blocks = list(line_blocks(fh))
        return blocks + [b"c,0.5,1,1\n"] if change == "grown" else blocks[:-1]

    calls, read_rows = [], comolift_io._read_rows
    monkeypatch.setattr(comolift_io, "_READ_BYTES", 10)
    monkeypatch.setattr(comolift_io, "_line_blocks", changed)
    monkeypatch.setattr(comolift_io, "_read_rows", lambda *args: calls.append(args) or read_rows(*args))
    assert _table_bytes(ingest_atoms(p)) == want
    assert len(calls) == 1


@pytest.mark.parametrize("body", ["a,0.5,0,0\nb,0.5,8,8\n", "a,0.5,0,0\nb,0.5,x,8\n"], ids=["plain", "fault"])
def test_a_pipe_is_read_like_a_file(tmp_path, body):
    # A pipe cannot seek back for the second pass or the row loop: its bytes are read once and held.
    text = "atom_id,weight,f,g\n" + body
    p, fifo = tmp_path / "atoms.csv", tmp_path / "pipe"
    p.write_text(text)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    got = _outcome(ingest_atoms, fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    want = _outcome(ingest_atoms, p)
    if isinstance(want, str):
        assert got == want.replace(str(p), str(fifo))
    else:
        assert _table_bytes(got) == _table_bytes(want)


_any_float = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and both zeros included
_any_ids = st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True)
# NUL, a byte-order mark, a zero-width space and a unit separator are ids like any other.
_odd_ids = ["a\x00", "\ufeffb", "c\u200b", "d\x1fe"]


@st.composite
def _atoms_columns(draw):
    ids = draw(_any_ids)
    n = len(ids)
    raw = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n, max_size=n))
    f, g = (draw(st.lists(_any_float, min_size=n, max_size=n)) for _ in range(2))
    return ids, raw, f, g


@given(columns=_atoms_columns())
@example(columns=(_odd_ids, [1.0] * 4, [0.0, -0.0, 5e-324, -1.7e308], [1e300, 0.1, -2.5, 7.0]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_written_atoms_file_reads_back_or_is_refused(tmp_path, columns):
    ids, raw, f, g = columns
    weights = np.array(raw) / math.fsum(raw)
    assume(np.all(weights > 0.0))
    m = FiltrationModel.from_columns(ids, weights, f, g)
    p = tmp_path / "atoms.csv"
    p.unlink(missing_ok=True)
    try:
        write_atoms_csv(m, p)
    except InputFormatError:
        assert not p.exists() and ids != _odd_ids
        return
    again = ingest_atoms(p)
    assert again.ids() == tuple(ids)
    assert again.weights().tolist() == (m.weights() / math.fsum(m.weights().tolist())).tolist()
    assert again.f.tolist() == f and again.g.tolist() == g


@st.composite
def _law_columns(draw):
    """Any law of one or two branches per atom: most of them the laws a row
    holds (a single branch of probability 1, or two of probabilities p and
    1 - p, p often 0 or 1), with the two points equal half the time, and now
    and then a value that is not finite."""
    ids = draw(_any_ids)
    n = len(ids)
    single = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    p = [1.0 if one and draw(st.integers(0, 3)) else draw(st.one_of(st.sampled_from([0.0, 1.0]), _any_float))
         for one in single]
    q = [1.0 - a if draw(st.integers(0, 3)) else draw(_any_float) for a in p]
    points = draw(st.lists(st.lists(_any_float, min_size=4, max_size=4), min_size=n, max_size=n))
    points = [a[:2] * 2 if draw(st.booleans()) else a for a in points]
    if draw(st.integers(0, 4)) == 0:
        (q if draw(st.booleans()) else points[draw(st.integers(0, n - 1))])[0] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return ids, single, p, q, points


@given(columns=_law_columns())
@example(columns=(_odd_ids, [True, False, False, True], [1.0, 0.25, 5e-324, 1.0], [0.0, 0.75, 1.0, 0.0],
                  [[-4.0, -3.0, 8.0, 8.0], [-0.0, 1e300, 2.0, -2.0], [1.0, 2.0, 3.0, 4.0], [8.0, 8.0, 8.0, 8.0]]))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_written_law_file_reads_back_or_is_refused(tmp_path, columns):
    ids, single, p, q, points = columns
    n = len(ids)
    x1, y1, x2, y2 = np.array(points).reshape(n, 4).T
    keep = np.column_stack((np.ones(n, bool), ~np.array(single)))
    law = law_from_pairs(ids, keep, np.column_stack((p, q)), np.column_stack((x1, x2)), np.column_stack((y1, y2)))
    path = tmp_path / "law.csv"
    path.unlink(missing_ok=True)
    try:
        write_law_csv(law, path)
    except InputFormatError:
        assert not path.exists() and ids != _odd_ids
        return
    again = read_law_csv(path)
    assert again.id_column.tolist() == list(ids)
    assert again.branches == law.branches


_FOUND_P = Point2(4.0, 4.0)


@pytest.mark.parametrize("branches, what", [
    (((0.0, _FOUND_P), (1.0, _FOUND_P)), "two branches at one point, one of probability 0"),
    (((0.4, _FOUND_P),), "one branch of probability other than 1"),
    (((0.4, Point2(-4.0, -3.0)), (0.4, Point2(4.0, 3.0))), "probabilities other than (p, 1 - p)"),
], ids=["zero_probability_branch", "single_branch_of_0.4", "probabilities_0.4_0.4"])
def test_law_writer_refuses_a_law_a_row_cannot_hold(tmp_path, branches, what):
    # Each law used to be written without a word and read back changed: the
    # first two as ((1, P),), which verify passes where it fails the law.
    law = LiftedLaw({"a": branches})
    path = tmp_path / "law.csv"
    with pytest.raises(InputFormatError, match=re.escape(f"atom 'a': a law row cannot hold {what}")):
        write_law_csv(law, path)
    assert not path.exists()
    if len(branches) == 1:
        model = FiltrationModel.from_columns(["a"], [1.0], [4.0], [4.0])
        assert not verify_model(model, law).overall_pass
        path.write_text("atom_id,lambda,u1,v1,u2,v2\na,0,4,4,4,4\n")  # the row the writer wrote
        assert verify_model(model, read_law_csv(path)).overall_pass


def _whole_law_refusal(law):
    """The law writer's refusal as it was when it checked the whole law at once:
    each rule over every atom in turn, naming the first atom that breaks it."""
    ids = law.id_column
    counts = np.bincount(law.owner, minlength=ids.size)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    if np.any(counts > 2):
        i = int(np.argmax(counts > 2))
        return f"atom {ids[i]!r}: cannot serialize {counts[i]} branches"
    u1, v1, u2, v2, p = law.x[first], law.y[first], law.x[last], law.y[last], law.prob[first]
    single = first == last
    lam = np.where(single, np.where(u1 < 0.0, 1.0, 0.0), p)
    collapses = (u1 == u2) & (v1 == v2) & ((p == 0.0) | (p == 1.0))
    for bad, what in ((~(np.isfinite(lam) & np.isfinite(u1) & np.isfinite(v1) & np.isfinite(u2) & np.isfinite(v2)),
                       "a value that is not finite"),
                      (single & (p != 1.0), "one branch of probability other than 1"),
                      (~single & (law.prob[last] != 1.0 - p), "probabilities other than (p, 1 - p)"),
                      (~single & collapses, "two branches at one point, one of probability 0")):
        if np.any(bad):
            return f"atom {ids[int(np.argmax(bad))]!r}: a law row cannot hold {what}"
    return None


@given(laws=st.lists(st.lists(st.tuples(st.sampled_from([0.0, 0.4, 0.6, 1.0, math.nan]),
                                        st.sampled_from([-4.0, 0.0, 4.0, math.inf])), min_size=1, max_size=3),
                     min_size=1, max_size=12),
       rows=st.integers(1, 5))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_law_writer_refuses_slice_by_slice_as_the_whole_law_did(tmp_path, monkeypatch, laws, rows):
    # Checked a write slice at a time, a law breaking several rules across
    # slices still reports the first rule broken anywhere, at its first atom;
    # a law it writes reads the same whatever the slice size.
    owner = np.repeat(np.arange(len(laws)), [len(branches) for branches in laws])
    prob, x = np.array([branch for branches in laws for branch in branches]).T.reshape(2, -1)
    law = LiftedLaw.from_columns([f"a{i}" for i in range(len(laws))], owner, prob, x, x / 2)
    path, whole = tmp_path / "law.csv", tmp_path / "whole.csv"
    path.unlink(missing_ok=True)
    refusal = _whole_law_refusal(law)
    if refusal is None:
        write_law_csv(law, whole)
    with monkeypatch.context() as patch:
        patch.setattr(comolift_io, "_WRITE_ROWS", rows)
        if refusal is None:
            write_law_csv(law, path)
            assert path.read_bytes() == whole.read_bytes()
            return
        with pytest.raises(InputFormatError) as refused:
            write_law_csv(law, path)
    assert str(refused.value) == refusal
    assert not path.exists()


def test_law_writer_refuses_a_law_with_no_atoms(tmp_path):
    # Its file would be the bare header, which read_law_csv refuses as having no data rows.
    path = tmp_path / "law.csv"
    with pytest.raises(InputFormatError, match="law has no atoms"):
        write_law_csv(LiftedLaw({}), path)
    assert not path.exists()


def test_law_writer_refuses_a_value_that_is_not_finite(tmp_path):
    path = tmp_path / "law.csv"
    for prob, x in ((0.5, math.inf), (math.nan, 1.0)):
        law = law_from_pairs(["a", "b"], np.ones((2, 2), bool), np.array([[0.5, 0.5], [prob, 0.5]]),
                             np.array([[-1.0, 1.0], [-1.0, x]]), np.zeros((2, 2)))
        with pytest.raises(InputFormatError, match="atom 'b': a law row cannot hold a value that is not finite"):
            write_law_csv(law, path)
        assert not path.exists()


_SLICE_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e22, -1e16, 0.5, -2.5, 1.7976931348623157e308]


@given(values=st.lists(st.floats(), max_size=50))
@example(values=_SLICE_EDGES)
def test_float_slice_cells_equal_format_float(values):
    assert comolift_io._float_cells(np.array(values, dtype=np.float64)) == list(map(format_float, values))


def _row_join_oracle(header, tables):
    """The table writer's bytes as the old layout gave them: one ``",".join``
    per row over ``zip`` of the columns' cells, rows joined by ``"\n"``."""
    def cells(column):
        if isinstance(column, comolift_io._Coded):
            return [column.cells[code] for code in column.codes.tolist()]
        if isinstance(column, np.ndarray) and column.dtype == np.float64:
            return list(map(format_float, column.tolist()))
        return list(map(str, column.tolist() if isinstance(column, np.ndarray) else column))

    text = ",".join(header) + "\n"
    for columns in tables:
        if len(columns[0]):
            text += "\n".join(map(",".join, zip(*map(cells, columns)))) + "\n"
    return text.encode("utf-8")


_CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)


@st.composite
def _tables(draw):
    """1 to 3 tables of 1 to 6 columns: plain, float, id and coded (never first)."""
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.integers(0, 20))
        columns = []
        for j in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(["plain", "range", "float", "id"] + ["coded"] * (j > 0)))
            if kind == "plain":
                columns.append(draw(st.lists(st.one_of(st.integers(), _CELL_TEXT), min_size=rows, max_size=rows)))
            elif kind == "range":
                start = draw(st.integers(0, 10**12))
                columns.append(range(start, start + rows))
            elif kind == "float":
                columns.append(np.array(draw(st.lists(st.floats(), min_size=rows, max_size=rows)), dtype=np.float64))
            elif kind == "id":
                ids = draw(st.lists(_CELL_TEXT, min_size=rows, max_size=rows))
                columns.append(np.array(ids, dtype=np.dtypes.StringDType()))
            else:
                cells = draw(st.lists(_CELL_TEXT, min_size=1, max_size=5))
                codes = draw(st.lists(st.integers(0, len(cells) - 1), min_size=rows, max_size=rows))
                columns.append(comolift_io._Coded(np.array(cells, dtype=object), np.array(codes, dtype=np.int64)))
        tables.append(tuple(columns))
    return tables


@given(tables=_tables(), rows=st.integers(1, 7))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_table_writer_agrees_with_the_row_join_oracle(tmp_path, monkeypatch, tables, rows):
    # Slices of 1 to 7 rows cross many slice boundaries; a table of 0 rows writes nothing.
    monkeypatch.setattr(comolift_io, "_WRITE_ROWS", rows)
    path, header = tmp_path / "table.csv", ["h1", "h2"]
    comolift_io._write_csv(path, header, tables)
    assert path.read_bytes() == _row_join_oracle(header, tables)


def test_sample_writer_memory_does_not_grow_with_draws():
    # A run holds one chunk of draws and the cells of the branches drawn so far:
    # on 1e4 atoms, whose branches 2e5 draws have nearly all drawn, 8e5 draws
    # peak no higher than 2e5.
    n = 10_000
    rng = np.random.default_rng(11)
    w = rng.uniform(0.5, 1.5, n)
    model = FiltrationModel.from_columns([f"a{i}" for i in range(n)], w / math.fsum(w.tolist()),
                                         rng.normal(0.0, 1e3, n), rng.normal(0.0, 1e3, n))
    law = lift(model)

    def peak(draws):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_samples_csv(sample_chunks(model, law, draws, 3), os.devnull)
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()

    small, large = peak(200_000), peak(800_000)
    assert abs(large - small) < 0.5, (small, large)
    assert large < 6.0, large  # 4.6 MB measured; a writer that holds its first 64 Ki-draw chunk peaks at 8.8


def test_negative_zero_is_written_as_0_and_reads_back_as_positive_zero(tmp_path):
    m = FiltrationModel.from_columns(["a"], [1.0], [-0.0], [0.0])
    p = tmp_path / "atoms.csv"
    write_atoms_csv(m, p)
    assert p.read_text() == "atom_id,weight,f,g\na,1,0,0\n"
    again = ingest_atoms(p)
    assert again.f[0] == -0.0 and math.copysign(1.0, again.f[0]) == 1.0
    law = LiftedLaw({"a": ((1.0, Point2(-0.0, -0.0)),)})
    write_law_csv(law, p)
    assert p.read_text() == "atom_id,lambda,u1,v1,u2,v2\na,0,0,0,0,0\n"
    assert math.copysign(1.0, read_law_csv(p).x[0]) == 1.0


def test_ingest_atoms_holds_less_than_the_file_it_reads(tmp_path):
    # The plain reader holds one block of text and lines at a time, the model one
    # id column and the reader's own value columns, and the weight sum one slice
    # of floats: no list of every line, every value or every id, and no copy of a
    # column.  The 6.58 MB file peaks at 5.46 MB (0.83x); with a (rows, 3) table
    # that the model copied column by column it peaked at 8.62 MB (1.31x), and
    # with 256 KiB blocks and a whole-column fsum at 11.54 MB (1.75x).  Its CRLF
    # twin (6.68 MB) is read in blocks too, at 5.45 MB (0.82x); the row loop,
    # which holds every line, peaked on it at 35.35 MB (5.30x).
    n = 100_000
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 1.5, n)
    w /= math.fsum(w.tolist())
    f, g = rng.normal(0.0, 1e3, n), rng.normal(0.0, 1e3, n)
    p = tmp_path / "atoms.csv"
    for end in ("\n", "\r\n"):
        p.write_bytes(("atom_id,weight,f,g" + end + "".join(
            f"a7x{i},{a!r},{b!r},{c!r}{end}" for i, (a, b, c) in enumerate(zip(w.tolist(), f.tolist(), g.tolist())))
        ).encode())
        size = p.stat().st_size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            m = ingest_atoms(p)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(m) == n
        assert peak - base <= 1.0 * size, (end, (peak - base) / size)
        assert held - base <= 1.0 * size, (end, (held - base) / size)
        del m


def test_ingest_atoms_proves_the_ids_unique_once(tmp_path, monkeypatch):
    # Both readers prove the ids unique, the block path by hash and the row loop
    # by set, so the model built from a file does not sort its ids again; a
    # model built from columns does.
    sorted_ids = []
    np_sort = np.sort

    def spy(a, *args, **kwargs):
        if a.dtype == ID_DTYPE:
            sorted_ids.append(a.size)
        return np_sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.25,0,0\nb,0.75,1,1\n")
    model = ingest_atoms(p)
    p.write_bytes(b"atom_id,weight,f,g\ra,0.25,0,0\rb,0.75,1,1\r")  # not plain: the row loop reads it
    assert ingest_atoms(p).id_column.tolist() == ["a", "b"]
    assert sorted_ids == []
    FiltrationModel.from_columns(model.id_column, model.weights(), model.f, model.g)
    assert sorted_ids == [2]


def test_ingest_atoms_sums_the_weights_once(tmp_path, monkeypatch):
    # The reader divides the weights by their fsum, so the model it builds does not sum them again.
    sums, fsum_column = [], comolift_io.fsum_column

    def spy(values):
        sums.append(values.size)
        return fsum_column(values)

    monkeypatch.setattr(comolift_io, "fsum_column", spy)
    monkeypatch.setattr(filtration, "fsum_column", spy)
    p = tmp_path / "atoms.csv"
    p.write_text("atom_id,weight,f,g\na,0.25,0,0\nb,0.75,1,1\n")
    assert ingest_atoms(p).weights().tolist() == [0.25, 0.75]
    assert sums == [2]


def _oracle_require_good_ids(ids):
    """The writers' id rule, one id at a time."""
    for atom_id in ids:
        if not atom_id:
            raise InputFormatError("atom id must be nonempty")
        if "," in atom_id or "\n" in atom_id or '"' in atom_id:
            raise InputFormatError(f"atom id {atom_id!r} is not CSV-safe")
        if atom_id.strip() != atom_id or len(atom_id.splitlines()) != 1:
            raise InputFormatError(f"atom id {atom_id!r} would not read back")


_ID_EDGE_CHARS = list(comolift_io._SPACES) + [",", '"', "a", "\u00e9", "\x00", "\u200b", "\ufeff"]


@given(ids=st.lists(st.text(st.sampled_from(_ID_EDGE_CHARS), max_size=3), min_size=1, max_size=12),
       slice_ids=st.integers(1, 5))
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_writers_id_rule_agrees_with_the_id_by_id_oracle(monkeypatch, ids, slice_ids):
    # Ids of whitespace, commas and quotes, checked in slices of 1 to 5 ids.
    monkeypatch.setattr(comolift_io, "_WRITE_ROWS", slice_ids)
    column = np.array(ids, dtype=np.dtypes.StringDType())
    assert _outcome(comolift_io._require_good_ids, column) == _outcome(_oracle_require_good_ids, ids)


def test_spaces_are_every_character_that_strip_removes():
    assert comolift_io._SPACES == "".join(c for c in map(chr, range(0x110000)) if c.isspace())
