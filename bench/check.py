"""Output checkers, written apart from the program.

Nothing here imports ``comolift``.  Gauge, stage and endpoints are derived
again from the paper's closed form:

    gauge(x, y) = max(|x| / 4, |y - 3x/4|)
    stage n     = smallest n >= 1 with gauge <= 2^(n-1), h = 2^(n-1)
    e1 = (-4h, s - 3h), e2 = (4h, s + 3h), s = y - 3x/4, lam = (4h - x) / (8h)

Each checker returns a list of problems; an empty list means the output is
right.  ``self_test`` shows that every checker rejects a corrupted output.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

RECON_REL = 1e-12
#: The deterministic rows every verify report must carry, all passing on a correct law.
VERIFY_ROWS = (
    "law_well_formed", "branch_points_on_curve", "decompose_reconstruction", "cond_exp_identity",
    "tower_property", "comonotone_pairwise", "comonotone_witness", "norm_bound",
)
MEAN_SIGMAS = 6.0
_MAX_PROBLEMS = 5


def closed_form_gauge(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max(|x|/4, |y - 3x/4|): the gauge of the unit parallelogram."""
    return np.maximum(np.abs(x) / 4.0, np.abs(y - 0.75 * x))


def stage_of(gauge: np.ndarray) -> np.ndarray:
    """Smallest n >= 1 with gauge <= 2^(n-1), by log2 and exact repair."""
    gauge = np.asarray(gauge, dtype=np.float64)
    with np.errstate(divide="ignore"):
        n = np.ceil(np.log2(np.maximum(gauge, 1.0))).astype(np.int64) + 1
    n = np.where(gauge > np.ldexp(1.0, n - 1), n + 1, n)
    n = np.where((n > 1) & (gauge <= np.ldexp(1.0, n - 2)), n - 1, n)
    return n


def _read_columns(path: Path, fields: int) -> tuple[list[list[str]], list[str]]:
    """The data rows of a CSV as columns of cells, and any malformed rows."""
    data = Path(path).read_bytes()
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if ends.size < 2 or ends[-1] != raw.size - 1:
        return [], [f"{path}: no data rows, or no final newline"]
    per_line = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends))
    bad = np.flatnonzero(per_line != fields - 1)
    if bad.size:
        return [], [f"{path}:{int(i) + 2}: {int(per_line[i]) + 1} fields" for i in bad[:_MAX_PROBLEMS]]
    cells = data[ends[0] + 1 : -1].decode("utf-8").replace("\n", ",").split(",")
    return [cells[k::fields] for k in range(fields)], []


def _floats(column: list[str]) -> np.ndarray:
    return np.fromiter(map(float, column), dtype=np.float64, count=len(column))


def read_atoms(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Atom ids, weights normalized as ingestion does, f and g."""
    cols, bad = _read_columns(path, 4)
    if bad:
        raise ValueError(f"atoms file malformed: {bad}")
    w = _floats(cols[1])
    return cols[0], w / math.fsum(w.tolist()), _floats(cols[2]), _floats(cols[3])


def _first(mask: np.ndarray, ids: list[str], what: str) -> list[str]:
    hits = np.flatnonzero(mask)
    return [f"{hits.size} rows: {what} (first {ids[hits[0]]})"] if hits.size else []


def check_law(atoms_path: Path, law_path: Path) -> list[str]:
    """A law CSV written by ``lift`` for the given atoms."""
    ids, _w, f, g = read_atoms(atoms_path)
    cols, bad = _read_columns(law_path, 6)
    if bad:
        return bad
    if cols[0] != ids:
        return [f"law atom ids differ from the atoms file ({len(cols[0])} rows for {len(ids)} atoms)"]
    lam, u1, v1, u2, v2 = (_floats(c) for c in cols[1:])
    gauge = closed_form_gauge(f, g)
    h = np.ldexp(1.0, stage_of(gauge) - 1)
    # A collapsed row repeats its one point; it stands for e1 when lam is 1
    # and for e2 when lam is 0, and the other slot is then a copy.
    collapsed = (u1 == u2) & (v1 == v2) & ((lam == 0.0) | (lam == 1.0))
    left_ok = (u1 == -4.0 * h) | (collapsed & (lam == 0.0))
    right_ok = (u2 == 4.0 * h) | (collapsed & (lam == 1.0))
    g1, g2 = closed_form_gauge(u1, v1), closed_form_gauge(u2, v2)
    gauges_ok = ((g1 == h) | (collapsed & (lam == 0.0))) & ((g2 == h) | (collapsed & (lam == 1.0)))
    scale = RECON_REL * np.maximum(1.0, gauge)
    recon = np.maximum(np.abs(lam * u1 + (1.0 - lam) * u2 - f), np.abs(lam * v1 + (1.0 - lam) * v2 - g))
    bound = np.maximum(2.0 * gauge, 1.0)
    problems = (
        _first(~(left_ok & right_ok), ids, "endpoint off its stage's vertical side")
        + _first(~gauges_ok, ids, "endpoint gauge is not 2^(n-1)")
        + _first(~((lam >= 0.0) & (lam <= 1.0)), ids, "lambda outside [0, 1]")
        + _first(~(recon <= scale), ids, "lambda*e1 + (1-lambda)*e2 misses (f, g)")
        + _first(~((g1 <= bound) & (g2 <= bound)), ids, "endpoint gauge above max(2*gauge, 1)")
    )
    xs = np.concatenate([u1, u2])
    ys = np.concatenate([v1, v2])
    order = np.lexsort((ys, xs))
    if np.any(np.diff(ys[order]) < 0.0):
        problems.append("pooled law points are not comonotone")
    return problems


def closed_form_split(f: np.ndarray, g: np.ndarray):
    """(lam, e1x, e1y, e2x, e2y) of every payoff, from the paper's closed form."""
    h = np.ldexp(1.0, stage_of(closed_form_gauge(f, g)) - 1)
    s = g - 0.75 * f
    lam = (4.0 * h - f) / (8.0 * h)
    return lam, -4.0 * h, s - 3.0 * h, 4.0 * h, s + 3.0 * h


def check_samples(atoms_path: Path, samples_path: Path, draws: int) -> list[str]:
    """A samples CSV written by ``sample --samples draws``."""
    ids, w, f, g = read_atoms(atoms_path)
    cols, bad = _read_columns(samples_path, 5)
    if bad:
        return bad
    if len(cols[0]) != draws:
        return [f"{len(cols[0])} sample rows, expected {draws}"]
    if cols[0] != list(map(str, range(draws))):
        return ["sample ids are not 0..N-1 in order"]
    index = {a: i for i, a in enumerate(ids)}
    try:
        idx = np.fromiter(map(index.__getitem__, cols[1]), dtype=np.int64, count=draws)
    except KeyError as exc:
        return [f"sample row names unknown atom {exc}"]
    u, xi, eta = _floats(cols[2]), _floats(cols[3]), _floats(cols[4])
    lam, e1x, e1y, e2x, e2y = closed_form_split(f, g)
    first = (xi == e1x[idx]) & (eta == e1y[idx])
    second = (xi == e2x[idx]) & (eta == e2y[idx])
    problems = []
    if not np.all(first | second):
        problems.append(f"{int(np.sum(~(first | second)))} draws are not a branch point of their atom")
    if not np.all((u >= 0.0) & (u < 1.0)):
        problems.append("u outside [0, 1)")
    # The first branch is emitted exactly when u <= lam.
    if np.any(first != (u <= lam[idx])):
        problems.append("branch choice disagrees with u <= lambda")
    for name, val, p, a, b in (("xi", xi, f, e1x, e2x), ("eta", eta, g, e1y, e2y)):
        mean = math.fsum((w * p).tolist())
        second_moment = math.fsum((w * (lam * a * a + (1.0 - lam) * b * b)).tolist())
        se = math.sqrt(max(second_moment - mean * mean, 0.0) / draws)
        emp = math.fsum(val.tolist()) / draws
        if abs(emp - mean) > MEAN_SIGMAS * se:
            problems.append(f"mean of {name} {emp!r} is {abs(emp - mean) / se:.1f} SE from {mean!r}")
    return problems


def parse_report(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def check_verify(code: int, stdout: str, tampered: bool) -> list[str]:
    """The verdict of ``verify`` on the correct law (pass) or its tampered copy (fail)."""
    report = parse_report(stdout)
    passes = {k: v for k, v in report.items() if k.startswith("check.") and k.endswith(".pass")}
    if tampered:
        if code != 1 or report.get("overallPass") != "false":
            return [f"tampered law not rejected: exit {code}, overallPass={report.get('overallPass')}"]
        return []
    problems = []
    if code != 0 or report.get("overallPass") != "true":
        problems.append(f"correct law rejected: exit {code}, overallPass={report.get('overallPass')}")
    failing = sorted(k for k, v in passes.items() if v != "true")
    missing = [r for r in VERIFY_ROWS if f"check.{r}.pass" not in passes]
    if failing or missing:
        problems.append(f"failing check rows {failing}, missing rows {missing}")
    return problems


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _closed_form_samples(path: Path, ids, w, f, g, draws: int, seed: int) -> None:
    """A correct samples file made without the program."""
    rng = np.random.default_rng(seed)
    lam, e1x, e1y, e2x, e2y = closed_form_split(f, g)
    idx = rng.choice(len(ids), size=draws, p=w)
    u = rng.random(draws)
    first = u <= lam[idx]
    xi = np.where(first, e1x[idx], e2x[idx])
    eta = np.where(first, e1y[idx], e2y[idx])
    lines = ["sample_id,atom_id,u,xi,eta"]
    lines += [f"{k},{ids[i]},{a!r},{b!r},{c!r}" for k, (i, a, b, c) in
              enumerate(zip(idx.tolist(), u.tolist(), xi.tolist(), eta.tolist()))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_test(workdir: Path) -> list[str]:
    """Each checker accepts a correct output and rejects corrupted ones.

    Returns the list of cases that went the wrong way (empty when all hold).
    """
    import gen

    workdir.mkdir(parents=True, exist_ok=True)
    atoms, law, bad_law = gen.write_verify_pair(workdir, 7, 200)
    ids, w, f, g = read_atoms(atoms)
    wrong = []

    def expect(name: str, problems: list[str], ok: bool) -> None:
        if (not problems) != ok:
            wrong.append(f"{name}: {'rejected' if problems else 'accepted'} ({problems})")

    expect("law: correct", check_law(atoms, law), True)
    expect("law: coordinate moved by 1e-6", check_law(atoms, bad_law), False)
    lines = law.read_text(encoding="utf-8").split("\n")
    dropped = workdir / "selftest_law_dropped.csv"
    dropped.write_text("\n".join(lines[:5] + lines[6:]), encoding="utf-8")
    expect("law: dropped row", check_law(atoms, dropped), False)
    row = lines[3].split(",")
    row[3] = repr(float(row[3]) * (1.0 + 1e-6))
    moved = workdir / "selftest_law_v1.csv"
    moved.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]), encoding="utf-8")
    expect("law: v1 moved by 1e-6", check_law(atoms, moved), False)

    draws = 20_000
    samples = workdir / "selftest_samples.csv"
    _closed_form_samples(samples, ids, w, f, g, draws, 11)
    expect("samples: correct", check_samples(atoms, samples, draws), True)
    lines = samples.read_text(encoding="utf-8").split("\n")
    row = lines[9].split(",")
    row[3] = repr(float(row[3]) + 0.5)
    foreign = workdir / "selftest_samples_foreign.csv"
    foreign.write_text("\n".join(lines[:9] + [",".join(row)] + lines[10:]), encoding="utf-8")
    expect("samples: foreign point", check_samples(atoms, foreign, draws), False)
    dropped = workdir / "selftest_samples_dropped.csv"
    dropped.write_text("\n".join(lines[:9] + lines[10:]), encoding="utf-8")
    expect("samples: dropped row", check_samples(atoms, dropped, draws), False)
    # Keep only first-branch draws: every point is a branch point, the mean is biased.
    kept = [x.split(",") for x in lines[1:-1] if float(x.split(",")[3]) < 0.0]
    biased = workdir / "selftest_samples_biased.csv"
    biased.write_text(
        "\n".join([lines[0]] + [",".join([str(k)] + r[1:]) for k, r in enumerate(kept)]) + "\n",
        encoding="utf-8",
    )
    expect("samples: biased branch choice", check_samples(atoms, biased, len(kept)), False)

    good = "overallPass=true\n" + "".join(f"check.{r}.pass=true\n" for r in VERIFY_ROWS)
    expect("verify: correct pass", check_verify(0, good, False), True)
    expect("verify: pass with a failing row",
           check_verify(0, good.replace("norm_bound.pass=true", "norm_bound.pass=false"), False), False)
    expect("verify: a row dropped", check_verify(0, good.replace("check.norm_bound.pass=true\n", ""), False), False)
    expect("verify: tampered accepted", check_verify(0, good, True), False)
    expect("verify: tampered rejected", check_verify(1, "overallPass=false\n", True), True)
    return wrong
