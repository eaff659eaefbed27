"""Command line front end.

Subcommands: curve, decompose, lift, sample, verify, demo.  Exit codes are
part of the contract: 0 success, 1 verification failed, 2 usage error
(argparse's own), 3 unreadable or malformed input.
"""

from __future__ import annotations

import argparse
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
    write_law_csv,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comolift",
        description="Two-point comonotone lifting: build, sample, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="export the staircase curve as CSV + SVG")
    p.add_argument("--stages", type=int, default=4, help="number of stages (default 4)")
    p.add_argument("--output", required=True, help="CSV path; SVG companion shares the stem")

    p = sub.add_parser("decompose", help="decompose one point, print the result")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = sub.add_parser("lift", help="lift an atoms CSV into a law CSV")
    p.add_argument("--input", required=True, help="atoms CSV")
    p.add_argument("--output", required=True, help="law CSV")

    p = sub.add_parser("sample", help="draw comonotone sample pairs from a lifted model")
    p.add_argument("--input", required=True, help="atoms CSV")
    p.add_argument("--output", required=True, help="samples CSV")
    p.add_argument("--samples", type=int, default=0, help="number of draws (required > 0)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("verify", help="verify a law against its atoms; report to stdout")
    p.add_argument("--input", required=True, help="atoms CSV")
    p.add_argument("--law", required=True, help="law CSV")
    p.add_argument("--output", help="also write the report as CSV rows here")
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo draws (0 = skip)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("demo", help="run a built-in two-atom model end to end")
    p.add_argument("--output", help="also write the report as CSV rows here")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)

    return parser


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Parse and validate flags; usage problems exit 2 via argparse."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    stages = getattr(ns, "stages", 4)
    if not 1 <= stages <= MAX_STAGE:
        parser.error(f"--stages must be in [1, {MAX_STAGE}], got {stages}")
    samples = getattr(ns, "samples", 0)
    if samples < 0:
        parser.error(f"--samples must be nonnegative, got {samples}")
    if ns.command == "sample" and samples < 1:
        parser.error("sample requires --samples >= 1")
    tol = getattr(ns, "tol", 1e-9)
    if not math.isfinite(tol) or tol <= 0.0:
        parser.error(f"--tol must be finite and positive, got {tol}")
    x = getattr(ns, "x", None)
    y = getattr(ns, "y", None)
    if ns.command == "decompose" and not (math.isfinite(x) and math.isfinite(y)):
        parser.error("--x and --y must be finite")

    return RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        output_path=getattr(ns, "output", None),
        law_path=getattr(ns, "law", None),
        stages=stages,
        samples=samples,
        seed=getattr(ns, "seed", 42),
        tolerance=tol,
        x=x,
        y=y,
    )


def _demo_model() -> FiltrationModel:
    return FiltrationModel.from_columns(["a", "b"], [0.5, 0.5], [0.0, 8.0], [0.0, 8.0])


def run(config: RunConfig, out=None) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout

    if config.command == "curve":
        export_curve(config.stages, config.output_path)
        return 0

    if config.command == "decompose":
        d = decompose(Point2(config.x, config.y))
        out.write(f"stage={d.stage}\n")
        out.write(f"lambda={format_float(d.lam)}\n")
        out.write(f"e1x={format_float(d.e1.x)}\ne1y={format_float(d.e1.y)}\n")
        out.write(f"e2x={format_float(d.e2.x)}\ne2y={format_float(d.e2.y)}\n")
        return 0

    if config.command in ("lift", "sample"):
        model = ingest_atoms(config.input_path)
        law = lift(model)
        if config.command == "lift":
            write_law_csv(law, config.output_path)
        else:
            write_samples_csv(sample_chunks(model, law, config.samples, config.seed), config.output_path)
        return 0

    if config.command in ("verify", "demo"):
        if config.command == "verify":
            model = ingest_atoms(config.input_path)
            law = read_law_csv(config.law_path)
        else:
            model = _demo_model()
            law = lift(model)
        report = verify_model(model, law, config.samples, config.seed, config.tolerance)
        write_report_kv(report, out)
        if config.output_path:
            write_report_csv(report, config.output_path)
        return 0 if report.overall_pass else 1

    raise AssertionError(f"unhandled command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return run(config)
    except (ComoliftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
