"""Traced replay: per-layer time, allocation peak and work counts.

``run.py --trace 1`` first runs one untraced round, then calls
:func:`per_layer`, which replays that round's first operation in a fresh
process (this file run as a script) as the chain of public calls the CLI
makes, ``io`` -> ``lifting``/``decomposition`` -> ``verification`` -> ``io``,
with a span around each call.  Probe calls made beside the operation time
the public helpers that dominate the hot rows, and every layer is measured
on every workload:

* the sampler probes draw as many draws as ``sample`` does, and the Monte
  Carlo probe of ``verify_model`` MC_DRAWS_PER_ATOM per atom;
* on ``lift`` and ``sample`` the verification probes use the first
  VERIFY_ATOMS atoms, because the curve-distance scan costs about 1 ms per
  atom.

A second pass, apart from the timed one, measures each call's allocation
peak with tracemalloc.  Spans record name, start, end, parent and operation
id; they stay in memory and are written as one JSON file at the end.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

VERIFY_ATOMS = 1_000
PROBE_DRAWS = 200_000
MC_DRAWS_PER_ATOM = 100
IMPORTTIME_LAUNCHES = 5
_MB = float(1 << 20)


class Tracer:
    """Spans in memory: name, start, end, parent and operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover.

        Children of one span run one after another, so the part they cover
        is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - covered[s["id"]]
        return out


def _prefix(model, law, count: int):
    """The first ``count`` atoms, weights renormalized, and their laws."""
    from comolift.filtration import Atom, FiltrationModel
    from comolift.lifting import LiftedLaw

    atoms = model.atoms[:count]
    total = sum(a.weight for a in atoms)
    sub = FiltrationModel([Atom(a.id, a.weight / total, a.payoff) for a in atoms])
    return sub, LiftedLaw({a.id: law.branches[a.id] for a in atoms})


def replay(workload: str, opts: dict[str, str], workdir: Path) -> dict:
    """The traced operation, the probes and the peak pass; runs in the child."""
    import numpy as np
    from comolift import decomposition, filtration, geometry, lifting, rng, verification
    from comolift import io as cio

    t = Tracer()
    atoms_path = opts["--input"]
    draws = int(opts.get("--samples", PROBE_DRAWS))
    seed = int(opts.get("--seed", 1))
    counts = {"io.bytes_read": os.path.getsize(atoms_path), "rng.words": 0}

    with t.span("op", "op"):
        with t.span("io.ingest_atoms", "op"):
            model = cio.ingest_atoms(atoms_path)
        if workload == "verify":
            with t.span("io.read_law_csv", "op"):
                law = cio.read_law_csv(opts["--law"])
            with t.span("verification.verify_model", "op"):
                report = verification.verify_model(model, law, 0, seed)
            text = io.StringIO()
            with t.span("io.write_report_kv", "op"):
                cio.write_report_kv(report, text)
        else:
            with t.span("lifting.lift", "op"):
                law = lifting.lift(model)
            if workload == "lift":
                with t.span("io.write_law_csv", "op"):
                    cio.write_law_csv(law, opts["--output"])
            else:
                with t.span("lifting.sample_lift", "op"):
                    samples = lifting.sample_lift(model, law, draws, seed)
                with t.span("io.write_samples_csv", "op"):
                    cio.write_samples_csv(samples, opts["--output"])
                del samples
    if workload == "verify":
        counts["io.bytes_read"] += os.path.getsize(opts["--law"])
        counts["io.bytes_written"] = len(text.getvalue().encode())
    else:
        counts["io.bytes_written"] = os.path.getsize(opts["--output"])
    if workload == "sample":
        counts["rng.words"] = 2 * draws
    counts["lifting.two_branch_atoms"] = sum(len(b) == 2 for b in law.branches.values())

    law_path = workdir / "probe_law.csv"
    samples_path = workdir / "probe_samples.csv"
    if workload == "verify":
        with t.span("lifting.lift", "probe"):
            lifting.lift(model)
    if workload != "lift":
        with t.span("io.write_law_csv", "probe"):
            cio.write_law_csv(law, law_path)
    if workload != "verify":
        with t.span("io.read_law_csv", "probe"):
            cio.read_law_csv(opts["--output"] if workload == "lift" else law_path)
    if workload != "sample":
        with t.span("lifting.sample_lift", "probe"):
            samples = lifting.sample_lift(model, law, draws, seed)
        with t.span("io.write_samples_csv", "probe"):
            cio.write_samples_csv(samples, samples_path)
        del samples
        samples_path.unlink()
    with t.span("decomposition.decompose", "probe"):
        for atom in model.atoms:
            decomposition.decompose(atom.payoff)
    f = np.array([a.payoff.x for a in model.atoms])
    g = np.array([a.payoff.y for a in model.atoms])
    with t.span("decomposition.decompose_batch", "probe"):
        decomposition.decompose_batch(f, g)
    with t.span("lifting.sample_lift_arrays", "probe"):
        lifting.sample_lift_arrays(model, law, draws, seed)
    with t.span("filtration.sample_u_arrays", "probe"):
        filtration.sample_u_arrays(model, draws, seed)
    with t.span("rng.raw_words", "probe"):
        rng.raw_words(seed, 0, 2 * draws)
    with t.span("lifting.lifted_norm_bound", "probe"):
        lifting.lifted_norm_bound(model, law)

    if workload != "verify" and len(model) > VERIFY_ATOMS:
        vmodel, vlaw = _prefix(model, law, VERIFY_ATOMS)
    else:
        vmodel, vlaw = model, law
    vdraws = MC_DRAWS_PER_ATOM * len(vmodel)
    if workload != "verify":
        with t.span("verification.verify_model", "probe"):
            verification.verify_model(vmodel, vlaw, 0, seed)
    with t.span("verification.verify_model_mc", "probe"):
        verification.verify_model(vmodel, vlaw, vdraws, seed)
    support = vlaw.support_points()
    top = min(max(geometry.scale_index(geometry.gauge(p)) for p in support) + 1, geometry.MAX_STAGE)
    with t.span("geometry.curve_distance", "probe"):
        for p in support:
            geometry.curve_distance(p, top)
    with t.span("verification.check_comonotone_pairwise", "probe"):
        verification.check_comonotone_pairwise(support)
    with t.span("verification.check_comonotone_witness", "probe"):
        verification.check_comonotone_witness(support)
    counts["verification.support_points"] = len(support)
    counts["verification.curve_segments"] = len(geometry.curve_segments(top))
    if workload == "verify" and len(support) > verification.PAIRWISE_FULL_SCAN_LIMIT:
        counts["rng.words"] = 10_000  # the pairwise subsample

    # Allocation peaks, in a pass apart from the timed one.
    peaks: dict[str, float] = {}
    tracemalloc.start()

    def peak(name: str, call):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = call()
        peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / _MB
        return value

    pmodel = peak("io.ingest_atoms_peak_mb", lambda: cio.ingest_atoms(atoms_path))
    plaw = peak("lifting.lift_peak_mb", lambda: lifting.lift(pmodel))
    psamples = peak("lifting.sample_lift_peak_mb", lambda: lifting.sample_lift(pmodel, plaw, draws, seed))
    peak("io.write_samples_csv_peak_mb", lambda: cio.write_samples_csv(psamples, samples_path))
    del psamples, plaw, pmodel
    samples_path.unlink()
    peak("io.read_law_csv_peak_mb",
         lambda: cio.read_law_csv(opts["--law"] if workload == "verify" else
                                  opts["--output"] if workload == "lift" else law_path))
    peak("verification.verify_model_peak_mb", lambda: verification.verify_model(vmodel, vlaw, 0, seed))
    tracemalloc.stop()

    op_span = t.spans[0]
    return {"spans": t.spans, "self": t.self_times(), "counts": counts, "peaks": peaks,
            "op_seconds": op_span["end"] - op_span["start"]}


#: Per-layer metrics from span durations, in the order they are printed.
TIMED = (
    "io.ingest_atoms", "io.write_law_csv", "io.read_law_csv", "io.write_samples_csv",
    "lifting.lift", "lifting.sample_lift", "lifting.sample_lift_arrays", "lifting.lifted_norm_bound",
    "decomposition.decompose", "decomposition.decompose_batch",
    "filtration.sample_u_arrays", "rng.raw_words",
    "verification.verify_model", "verification.verify_model_mc", "geometry.curve_distance",
    "verification.check_comonotone_pairwise", "verification.check_comonotone_witness",
)
COUNTED = (
    ("io.bytes_read", "B"), ("io.bytes_written", "B"), ("lifting.two_branch_atoms", "count"),
    ("rng.words", "count"), ("verification.support_points", "count"),
    ("verification.curve_segments", "count"),
)
PEAKS = (
    "io.ingest_atoms_peak_mb", "lifting.lift_peak_mb", "lifting.sample_lift_peak_mb",
    "io.write_samples_csv_peak_mb", "io.read_law_csv_peak_mb", "verification.verify_model_peak_mb",
)


def import_times(env: dict[str, str], root: Path) -> tuple[float, float]:
    """Median numpy and comolift import seconds from ``-X importtime``.

    numpy's is the cumulative time of its top-level import; comolift's is
    the sum of the self times of its own modules.
    """
    numpy_s, comolift_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import comolift.cli"],
                              env=env, cwd=root, capture_output=True, text=True, check=True)
        own = 0
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "numpy":
                numpy_s.append(int(parts[1]) / 1e6)
            elif name == "comolift" or name.startswith("comolift."):
                own += int(parts[0])
        comolift_s.append(own / 1e6)
    return statistics.median(numpy_s), statistics.median(comolift_s)


def per_layer(workload: str, argv: list[str], untraced_seconds: float, workdir: Path,
              env: dict[str, str], spans_path: Path) -> dict[str, tuple[float, str]]:
    """Runs the traced replay of ``argv`` and returns every per-layer metric."""
    bench = Path(__file__).resolve().parent
    spec = json.dumps({"workload": workload, "argv": argv, "workdir": str(workdir)})
    proc = subprocess.run([sys.executable, str(bench / "layers.py"), spec],
                          env=env, cwd=bench.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"traced replay exited {proc.returncode}")
    res = json.loads(proc.stdout.splitlines()[-1])
    spans_path.write_text(json.dumps(res["spans"]), encoding="utf-8")

    durations: dict[str, float] = {}
    for s in res["spans"]:
        durations[s["name"]] = durations.get(s["name"], 0.0) + s["end"] - s["start"]
    numpy_s, comolift_s = import_times(env, bench.parent)
    metrics = {"setup.numpy_import_s": (numpy_s, "s"), "setup.comolift_import_s": (comolift_s, "s")}
    metrics.update({f"{name}_s": (durations[name], "s") for name in TIMED})
    metrics.update({name: (float(res["counts"][name]), unit) for name, unit in COUNTED})
    metrics.update({name: (res["peaks"][name], "MB") for name in PEAKS})
    metrics["trace.overhead_s"] = (res["op_seconds"] - untraced_seconds, "s")

    print(f"{'span':44} {'calls':>5} {'total s':>9} {'self s':>9}", file=sys.stderr)
    calls: dict[str, int] = {}
    for s in res["spans"]:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    for name in calls:
        print(f"{name:44} {calls[name]:5d} {durations[name]:9.4f} {res['self'][name]:9.4f}", file=sys.stderr)
    return metrics


def _child(spec: dict) -> int:
    argv = spec["argv"]
    opts = dict(zip(argv[1::2], argv[2::2]))
    res = replay(spec["workload"], opts, Path(spec["workdir"]))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(_child(json.loads(sys.argv[1])))
