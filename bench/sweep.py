"""Traced size sweep: how per-layer time and allocation peak grow with size.

    python3 bench/sweep.py > sweep.md

Replays the ``sample`` chain with 1e6 draws on 1e3, 1e4 and 1e5 atoms and
the ``verify`` chain on 1e3 and 1e4 atoms, each in a fresh traced process
(``layers.py``, with its probes), and prints one markdown table of span
seconds and tracemalloc peaks.  ``verify`` on 1e5 atoms is left out: its
deterministic rows alone take over a minute per call, and the pairwise probe
would scan 4e10 pairs.  Takes about seven minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gen
import layers
from run import DATA, ROOT, program_env

POINTS = (
    ("sample", 1_000, 1_000_000),
    ("sample", 10_000, 1_000_000),
    ("sample", 100_000, 1_000_000),
    ("verify", 1_000, 0),
    ("verify", 10_000, 0),
)


def main() -> int:
    env = program_env()
    workdir = DATA / "sweep"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    columns = []
    try:
        for workload, atoms, draws in POINTS:
            if workload == "verify":
                atoms_path, law_path, _ = gen.write_verify_pair(workdir, atoms, atoms)
                argv = ["verify", "--input", str(atoms_path), "--law", str(law_path), "--seed", "1"]
            else:
                atoms_path = workdir / f"atoms_{atoms}.csv"
                gen.write_atoms(atoms_path, *gen.make_atoms(atoms, atoms))
                argv = ["sample", "--input", str(atoms_path), "--output", str(workdir / "out.csv"),
                        "--samples", str(draws), "--seed", "1"]
            spec = json.dumps({"workload": workload, "argv": argv, "workdir": str(workdir)})
            proc = subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"), spec],
                                  env=env, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.splitlines()[-1])
            seconds: dict[str, float] = {}
            for s in res["spans"]:
                seconds[s["name"]] = seconds.get(s["name"], 0.0) + s["end"] - s["start"]
            label = f"{workload} {atoms:.0e} atoms" + (f", {draws:.0e} draws" if draws else "")
            columns.append((label, seconds, res["peaks"]))
            print(f"done: {columns[-1][0]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("| layer | " + " | ".join(name for name, _, _ in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for name in ("op",) + layers.TIMED:
        print(f"| {name} s | " + " | ".join(f"{sec.get(name, float('nan')):.3f}" for _, sec, _ in columns) + " |")
    for name in layers.PEAKS:
        print(f"| {name} | " + " | ".join(f"{pk[name]:.1f}" for _, _, pk in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
