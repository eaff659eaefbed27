"""Command line front end.

Subcommands: curve, decompose, lift, sample, verify, demo.  Exit codes are
part of the contract: 0 success, 1 verification failed, 2 usage error
(argparse's own), 3 unreadable or malformed input, an output that cannot be
written, or a run that does not fit in memory.

A flag left out is absent from the parsed namespace, so each default is
defined once, as a ``RunConfig`` field.  ``curve`` and ``decompose`` stand
alone; the other four commands are one pipeline: a model (the atoms file,
or the built-in two-atom model for ``demo``), its law (the law file for
``verify``, else ``lift`` of the model), then the command's one action.
``lift`` writes its law's rows as it decomposes them, one slice of atoms at
a time, each once, so it holds the model and one slice, never the whole law.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

from .errors import ComoliftError
from .filtration import FiltrationModel
from .geometry import MAX_STAGE, Point2
from .decomposition import decompose
from .io import (
    export_curve,
    format_float,
    ingest_atoms,
    read_law_csv,
    write_lift_csv,
    write_report_csv,
    write_report_kv,
    write_samples_csv,
)
from .lifting import lift, sample_chunks
from .verification import verify_model

__all__ = ["RunConfig", "parse_args", "run", "main"]


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Parsed and validated invocation."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    law_path: str | None = None
    stages: int = 4
    samples: int = 0
    seed: int = 42
    tolerance: float = 1e-9
    x: float | None = None
    y: float | None = None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comolift",
        description="Two-point comonotone lifting: build, sample, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = add("curve", help="export the staircase curve as CSV + SVG")
    p.add_argument("--stages", type=int, help="number of stages (default 4)")
    p.add_argument("--output", required=True, help="CSV path; SVG companion shares the stem")

    p = add("decompose", help="decompose one point, print the result")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = add("lift", help="lift an atoms CSV into a law CSV")
    p.add_argument("--input", required=True, help="atoms CSV")
    p.add_argument("--output", required=True, help="law CSV")

    p = add("sample", help="draw comonotone sample pairs from a lifted model")
    p.add_argument("--input", required=True, help="atoms CSV")
    p.add_argument("--output", required=True, help="samples CSV")
    p.add_argument("--samples", type=int, help="number of draws (required > 0)")
    p.add_argument("--seed", type=int)

    p = add("verify", help="verify a law against its atoms; report to stdout")
    p.add_argument("--input", required=True, help="atoms CSV")
    p.add_argument("--law", required=True, help="law CSV")
    p.add_argument("--output", help="also write the report as CSV rows here")
    p.add_argument("--samples", type=int, help="Monte Carlo draws (0 = skip)")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)

    p = add("demo", help="run a built-in two-atom model end to end")
    p.add_argument("--output", help="also write the report as CSV rows here")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)

    return parser


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Parse and validate flags; usage problems exit 2 via argparse."""
    parser = _build_parser()
    fields = {"input": "input_path", "output": "output_path", "law": "law_path", "tol": "tolerance"}
    config = RunConfig(**{fields.get(k, k): v for k, v in vars(parser.parse_args(argv)).items()})

    if not 1 <= config.stages <= MAX_STAGE:
        parser.error(f"--stages must be in [1, {MAX_STAGE}], got {config.stages}")
    if config.samples < 0:
        parser.error(f"--samples must be nonnegative, got {config.samples}")
    if config.command == "sample" and config.samples < 1:
        parser.error("sample requires --samples >= 1")
    if not math.isfinite(config.tolerance) or config.tolerance <= 0.0:
        parser.error(f"--tol must be finite and positive, got {config.tolerance}")
    if config.command == "decompose" and not (math.isfinite(config.x) and math.isfinite(config.y)):
        parser.error("--x and --y must be finite")
    return config


def _demo_model() -> FiltrationModel:
    return FiltrationModel.from_columns(["a", "b"], [0.5, 0.5], [0.0, 8.0], [0.0, 8.0])


def run(config: RunConfig, out=None) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    command = config.command

    if command == "curve":
        export_curve(config.stages, config.output_path)
        return 0

    if command == "decompose":
        d = decompose(Point2(config.x, config.y))
        out.write(f"stage={d.stage}\n")
        out.write(f"lambda={format_float(d.lam)}\n")
        out.write(f"e1x={format_float(d.e1.x)}\ne1y={format_float(d.e1.y)}\n")
        out.write(f"e2x={format_float(d.e2.x)}\ne2y={format_float(d.e2.y)}\n")
        return 0

    if command not in ("lift", "sample", "verify", "demo"):
        raise AssertionError(f"unhandled command {command!r}")
    model = _demo_model() if command == "demo" else ingest_atoms(config.input_path)
    if command == "lift":
        write_lift_csv(model, config.output_path)
        return 0
    law = read_law_csv(config.law_path) if command == "verify" else lift(model)

    if command == "sample":
        write_samples_csv(sample_chunks(model, law, config.samples, config.seed), config.output_path)
        return 0
    report = verify_model(model, law, config.samples, config.seed, config.tolerance)
    write_report_kv(report, out)
    if config.output_path:
        write_report_csv(report, config.output_path)
    return 0 if report.overall_pass else 1


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return run(config)
    except (ComoliftError, OSError, MemoryError) as exc:  # MemoryError: a run too large for memory, such as verify --samples 1e11
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
