"""Benchmark of the three comolift CLI paths: lift, verify and sample.

    python3 bench/run.py --workload lift --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload sample --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it benchmarks the code under ``src/``.
Inputs are generated from ``--seed`` into ``bench/_data/`` (git-ignored) and
the program sees only those files.  A closed loop with one client sends one
CLI invocation at a time to a separate workload process (``worker.py``),
which calls ``comolift.cli.main`` in process.  Every output is checked by
``check.py`` between operations, outside the timed calls.

Untraced (``--trace 0``) it prints the end-to-end metrics, traced
(``--trace 1``) the per-layer ones from ``layers.py``.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
``--smoke`` runs the checker self-tests and one small operation per
workload in a few seconds.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "_data"
WORKLOADS = ("lift", "verify", "sample")


@dataclass(frozen=True)
class Size:
    atoms: int
    draws: int = 0  # draws per sample op


SIZES = {
    "lift": Size(100_000),
    "verify": Size(1_000),
    "sample": Size(10_000, 200_000),
}
SMOKE_SIZES = {
    "lift": Size(1_000),
    "verify": Size(200),
    "sample": Size(1_000, 10_000),
}
#: Seconds of run time per burst of fresh-interpreter launches for setup_s.
SETUP_EVERY_S = 4.0
#: Launches timed per burst, after one untimed launch that warms the cores:
#: a launch right after the cores sat idle costs up to half again as much CPU.
SETUP_TIMED_PER_BURST = 2
_SETUP_CODE = ("import sys, time, comolift.cli; "
               "sys.stdout.write('ready %r\\n' % time.thread_time()); sys.stdout.flush()")


class BenchError(Exception):
    """The benchmark itself cannot run: no program, or a process died."""


def program_env() -> dict[str, str]:
    """The environment every program process gets: only this checkout's src."""
    if not (SRC / "comolift" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'comolift' / 'cli.py'} is missing")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Worker:
    """The workload process, driven one CLI invocation at a time."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        ready = self._reply()["ready"]
        if not Path(ready).resolve().is_relative_to(SRC):
            self.close()
            raise BenchError(f"worker imported comolift from {ready}, not from {SRC}")

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"workload process ended (exit {self.proc.wait()})")
        return json.loads(line)

    def call(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> float:
        """Ends the process; returns its peak RSS in MB."""
        try:
            self.proc.stdin.close()
            return float(self._reply()["peak_rss_mb"])
        finally:
            self.proc.stdout.close()
            self.proc.wait()


def setup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """CPU and wall seconds from the start of a fresh interpreter until
    ``comolift.cli`` is imported.

    The CPU time is the interpreter's main thread only: numpy's BLAS helper
    thread spins for a while after it starts, beside the import, and adds
    nothing to how soon the interpreter is ready.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SETUP_CODE], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    word, _, cpu = line.decode().partition(" ")
    if proc.wait() != 0 or word != "ready":
        raise BenchError("setup launch failed to import comolift.cli")
    return float(cpu), elapsed


@dataclass
class Op:
    argv: list[str]
    items: int
    check: Callable[[dict], list[str]]


def make_round(workload: str, size: Size, seed: int, k: int, workdir: Path) -> list[Op]:
    """Round k: freshly generated inputs, so no two rounds see the same bytes.

    Each operation also gets its own --seed.  The seeds of a run are
    seed * 1000 + k, so runs with different seeds share no inputs.
    """
    s = seed * 1000 + k
    if workload == "verify":
        atoms, law, bad = gen.write_verify_pair(workdir, s, size.atoms)
        ops = []
        for tampered, law_path, op_seed in ((False, law, 2 * s), (True, bad, 2 * s + 1)):
            argv = ["verify", "--input", str(atoms), "--law", str(law_path), "--seed", str(op_seed)]
            ops.append(Op(argv, size.atoms,
                          lambda r, t=tampered: check.check_verify(r["code"], r["stdout"], t)))
        return ops
    atoms = workdir / f"{workload}_atoms_{s}.csv"
    gen.write_atoms(atoms, *gen.make_atoms(s, size.atoms))
    out = workdir / f"{workload}_out_{s}.csv"
    if workload == "lift":
        argv = ["lift", "--input", str(atoms), "--output", str(out)]
        return [Op(argv, size.atoms, lambda r: _exit0(r) or check.check_law(atoms, out))]
    argv = ["sample", "--input", str(atoms), "--output", str(out),
            "--samples", str(size.draws), "--seed", str(s)]
    return [Op(argv, size.draws, lambda r: _exit0(r) or check.check_samples(atoms, out, size.draws))]


def _exit0(reply: dict) -> list[str]:
    return [] if reply["code"] == 0 else [f"exit {reply['code']}"]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: Op, reply: dict) -> bool:
        """Counts one operation; a crash or an input error is a failure."""
        self.attempted += 1
        if reply["code"] not in (0, 1):
            self.failed += 1
            return False
        found = op.check(reply)
        if found:
            self.problems += [f"{op.argv[0]}: {p}" for p in found]
        return True


def run_rounds(workload: str, size: Size, seed: int, seconds: float, workdir: Path,
               env: dict[str, str]) -> dict:
    """Closed loop over whole rounds until the next round would overrun.

    Returns the tally, per-operation items per CPU second and per wall
    second, per-operation wall seconds, setup launch (CPU, wall) seconds,
    peak RSS and the first round's inputs (kept for replays).
    """
    tally = Tally()
    rates: list[float] = []
    wall_rates: list[float] = []
    op_seconds: list[float] = []
    launches: list[tuple[float, float]] = []
    round_seconds: list[float] = []
    first_ops: list[Op] = []
    worker = Worker(env)
    try:
        start = time.perf_counter()
        k = 0
        while True:
            began = time.perf_counter()
            ops = make_round(workload, size, seed, k, workdir)
            for op in ops:
                reply = worker.call(op.argv)
                if tally.record(op, reply):
                    rates.append(op.items / reply["cpu_seconds"])
                    wall_rates.append(op.items / reply["seconds"])
                    op_seconds.append(reply["seconds"])
                # Launches follow the operations, spread evenly over the run.
                while (not launches or len(launches)
                       < SETUP_TIMED_PER_BURST * (time.perf_counter() - start) / SETUP_EVERY_S):
                    setup_seconds(env)
                    launches += [setup_seconds(env) for _ in range(SETUP_TIMED_PER_BURST)]
            if k == 0:
                first_ops = ops
            else:
                for op in ops:  # files of later rounds are no longer needed
                    for arg in op.argv:
                        if Path(arg).parent == workdir:
                            Path(arg).unlink(missing_ok=True)
            round_seconds.append(time.perf_counter() - began)
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(round_seconds) > seconds:
                break
        if workload == "sample":
            # Determinism: the first operation again, same input and seed, same bytes.
            op = first_ops[0]
            out = Path(op.argv[4])
            digest = check.file_digest(out)
            reply = worker.call(op.argv)
            tally.attempted += 1
            if reply["code"] != 0:
                tally.failed += 1
            elif check.file_digest(out) != digest:
                tally.problems.append("sample: replay of the first seed differs")
    finally:
        peak = worker.close()
    if not rates:
        raise BenchError(f"every {workload} operation failed")
    return {"tally": tally, "rates": rates, "wall_rates": wall_rates, "op_seconds": op_seconds,
            "launches": launches, "peak_rss_mb": peak, "first_ops": first_ops}


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def bench(workload: str, seed: int, seconds: float, traced: bool, size: Size) -> str:
    env = program_env()
    workdir = DATA / f"{workload}-{seed}-{'trace' if traced else 'plain'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if not traced:
            res = run_rounds(workload, size, seed, seconds, workdir, env)
            metrics = {
                "items_per_cpu_s": (statistics.median(res["rates"]), "1/s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
                "setup_s": (statistics.median(cpu for cpu, _ in res["launches"]), "s"),
            }
            print(f"{workload}: wall-clock medians, for reference: "
                  f"{statistics.median(res['wall_rates']):.6g} items/s, "
                  f"setup {statistics.median(wall for _, wall in res['launches']):.4f} s", file=sys.stderr)
        else:
            import layers

            # One untraced round is the reference for the tracing overhead.
            res = run_rounds(workload, size, seed, 0.0, workdir, env)
            metrics = layers.per_layer(workload, res["first_ops"][0].argv, res["op_seconds"][0],
                                       workdir, env, DATA / f"spans-{workload}-{seed}.json")
        print(f"{workload}: {len(res['op_seconds'])} timed ops, seconds "
              f"{[round(x, 3) for x in res['op_seconds']]}", file=sys.stderr)
        for problem in res["tally"].problems[:10]:
            print(f"incorrect: {problem}", file=sys.stderr)
        return result_line(res["tally"], metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> int:
    wrong = check.self_test(DATA / "selftest")
    shutil.rmtree(DATA / "selftest", ignore_errors=True)
    for case in wrong:
        print(f"checker self-test failed: {case}", file=sys.stderr)
    ok = not wrong
    for workload in WORKLOADS:
        line = json.loads(bench(workload, 1, 0.0, False, SMOKE_SIZES[workload]))
        print(f"smoke {workload}: {json.dumps(line)}")
        ok = ok and line["correct"] and line["failed"] == 0
    print(json.dumps({"smoke": "pass" if ok else "fail", "selftest_cases_wrong": len(wrong)}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="checker self-tests and one small op per workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke")
        print(bench(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.workload]))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
