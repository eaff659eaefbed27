"""Seeded input generator for the benchmark.

Atoms get gauges log-uniform in [1e-3, 1e6] and directions uniform on the
circle, so payoffs cover every stage from 1 to 21 and both the vertical and
the slanted sides of the gauge ball.  Weights are uniform in [0.5, 1.5],
normalized.  The reference law is built here from the paper's closed form,
not by the program, and its tampered copy moves one coordinate by a relative
1e-6.

Everything is a pure function of the seed: the same seed writes the same
bytes.  The program only ever sees the files written here.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from check import closed_form_gauge, closed_form_split

GAUGE_LO = 1e-3
GAUGE_HI = 1e6
TAMPER_REL = 1e-6


def make_atoms(seed: int, n: int) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Atom ids, weights (summing to 1 within float dust), f and g."""
    rng = np.random.default_rng(seed)
    target = np.exp(rng.uniform(math.log(GAUGE_LO), math.log(GAUGE_HI), n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    dx, dy = np.cos(theta), np.sin(theta)
    scale = target / closed_form_gauge(dx, dy)
    f, g = dx * scale, dy * scale
    w = rng.uniform(0.5, 1.5, n)
    w = w / math.fsum(w.tolist())
    ids = [f"a{seed}x{i}" for i in range(n)]
    return ids, w, f, g


def write_atoms(path: Path, ids: list[str], w: np.ndarray, f: np.ndarray, g: np.ndarray) -> None:
    lines = ["atom_id,weight,f,g"]
    lines += [f"{i},{a!r},{b!r},{c!r}" for i, a, b, c in zip(ids, w.tolist(), f.tolist(), g.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_law(path: Path, ids: list[str], lam, u1, v1, u2, v2) -> None:
    lines = ["atom_id,lambda,u1,v1,u2,v2"]
    lines += [
        f"{i},{a!r},{b!r},{c!r},{d!r},{e!r}"
        for i, a, b, c, d, e in zip(ids, lam.tolist(), u1.tolist(), v1.tolist(), u2.tolist(), v2.tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tamper_row(seed: int, lam: np.ndarray) -> int:
    """A row whose lam lies in [1/4, 3/4].

    Moving u1 by a relative 1e-6 there shifts the atom's law mean by at
    least 1e-6 of its gauge, far above the verifier's 1e-9 tolerance, so the
    tampered law must fail on every seed.
    """
    rows = np.flatnonzero((lam >= 0.25) & (lam <= 0.75))
    return int(rows[np.random.default_rng(seed).integers(rows.size)])


def write_verify_pair(dirpath: Path, seed: int, n: int) -> tuple[Path, Path, Path]:
    """Atoms, their closed-form law, and the law with one coordinate moved."""
    ids, w, f, g = make_atoms(seed, n)
    atoms = dirpath / f"verify_atoms_{seed}.csv"
    law = dirpath / f"verify_law_{seed}.csv"
    bad = dirpath / f"verify_law_{seed}_tampered.csv"
    write_atoms(atoms, ids, w, f, g)
    lam, u1, v1, u2, v2 = closed_form_split(f, g)
    write_law(law, ids, lam, u1, v1, u2, v2)
    row = tamper_row(seed, lam)
    u1 = u1.copy()
    u1[row] *= 1.0 + TAMPER_REL
    write_law(bad, ids, lam, u1, v1, u2, v2)
    return atoms, law, bad
