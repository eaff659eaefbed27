"""File formats: ingestion rules, round-trips, curve export, report dumps."""

from __future__ import annotations

import csv
import math
import random
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comolift import io as comolift_io
from comolift.errors import InputFormatError
from comolift.filtration import Atom, FiltrationModel
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
from comolift.lifting import LiftedLaw, lift, sample_lift
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
    assert m.atom("b").payoff.as_tuple() == (8.0, 8.0)
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
        assert m.atom(ids[-1]) == atoms[-1]
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
    assert float(first[2]) == samples[0].u  # round-trip exact


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
    return LiftedLaw.from_pairs(ids, keep, np.column_stack((np.where(single, 1.0, lam), 1.0 - lam)),
                                np.column_stack((u1, u2)), np.column_stack((v1, v2)))


# Characters that str.strip removes but splitlines does not split on.
_PADS = ["", " ", "\t", "\x1f", "\xa0", " \x1f\xa0"]
_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_BAD_NUMBERS = ["nan", "-inf", "Infinity", "1e400", "", "  ", "abc", "1.2.3", "0x10", "1__0", "_1"]
_EDGE_VALUES = [0.0, -0.0, 0.1, 1.0, 2.0 ** 53, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
_FAULTS = ["value", "positive", "sum", "fields", "duplicate", "empty_id", "unsafe_id"]


def _spelling(rnd, x):
    """A cell that ``float(cell.strip())`` reads as ``x``: shortest or integral
    digits, maybe with ``_`` groups or full-width digits, padding, quotes."""
    forms = [repr(x), format_float(x)] + ([f"{int(x):_}"] if x.is_integer() and abs(x) < 1e18 else [])
    text = rnd.choice(forms)
    if rnd.random() < 0.3:
        text = text.translate(_FULL_WIDTH)
    text = rnd.choice(_PADS) + text + rnd.choice(_PADS)
    return f'"{text}"' if rnd.random() < 0.3 else text


@st.composite
def _table_text(draw, law):
    """CSV text of an atoms file (``law`` false) or a law file, and whether it
    was built free of faults; such a file must be accepted."""
    rnd = random.Random(draw(st.integers(0, 2 ** 64)))
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
    ids = rnd.sample(["a", "b", "c", "x_1", "y.2", "z-3", "é", "ab", "ba", "q", "r", "s", "t"], n)
    cells = [[rnd.choice(_PADS) + atom_id] + [_spelling(rnd, x) for x in row] for atom_id, row in zip(ids, rows)]
    faults = rnd.sample(_FAULTS, rnd.choice([0, 0, 0, 1, 1, 2, 3]))
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
            row[0] = rnd.choice(["", " ", '""', "\x1f"])
        else:
            row[0] = rnd.choice(['"a,b"', '"a""b"', ' "a,b"'])
    lines = [",".join(header)]
    for row in cells:
        if rnd.random() < 0.2:
            lines.append(rnd.choice(["", "  ", "\t", "\x1f"]))  # a blank line
        lines.append(",".join(row))
    return "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in lines), not faults


def _outcome(reader, path):
    try:
        return reader(path)
    except InputFormatError as exc:
        return str(exc)


@given(built=_table_text(law=False))
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_atoms_agrees_with_the_row_by_row_oracle(tmp_path, built):
    text, fault_free = built
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


@given(built=_table_text(law=True))
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_law_csv_agrees_with_the_row_by_row_oracle(tmp_path, built):
    text, fault_free = built
    p = tmp_path / "law.csv"
    p.write_bytes(text.encode("utf-8"))
    want, got = _outcome(_oracle_read_law_csv, p), _outcome(read_law_csv, p)
    if isinstance(want, str):
        assert got == want
        assert not fault_free
        return
    assert got.atom_ids() == want.atom_ids()
    for a, b in ((got.owner, want.owner), (got.prob, want.prob), (got.x, want.x), (got.y, want.y)):
        assert a.tobytes() == b.tobytes()
