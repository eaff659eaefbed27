"""Command line contract: parsing, exit codes, round-trips, determinism."""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comolift import cli
from comolift import io as comolift_io
from comolift import lifting
from comolift.cli import RunConfig, main, parse_args, run
from comolift.filtration import Atom, FiltrationModel
from comolift.geometry import MAX_STAGE, Point2
from comolift.io import ingest_atoms, write_atoms_csv, write_samples_csv
from comolift.lifting import lift, sample_lift


def random_model(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(n) + 0.01
    w /= w.sum()
    w = w / np.sum(w)  # second pass tightens the float sum toward 1
    pts = rng.uniform(-100.0, 100.0, size=(n, 2))
    return FiltrationModel(
        [Atom(f"a{i:03d}", w[i], Point2(*pts[i])) for i in range(n)]
    )


def bump_law_field(path, row, field, delta=1e-6):
    """Perturb one numeric cell of a law CSV in place."""
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[field] = repr(float(cells[field]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


_REQUIRED = {  # per command: the fewest flags it accepts, and the fields they set
    "curve": (["--output", "c.csv"], {"output_path": "c.csv"}),
    "decompose": (["--x", "0", "--y", "-1.5"], {"x": 0.0, "y": -1.5}),
    "lift": (["--input", "a.csv", "--output", "law.csv"], {"input_path": "a.csv", "output_path": "law.csv"}),
    "sample": (["--input", "a.csv", "--output", "s.csv", "--samples", "1"],
               {"input_path": "a.csv", "output_path": "s.csv", "samples": 1}),
    "verify": (["--input", "a.csv", "--law", "l.csv"], {"input_path": "a.csv", "law_path": "l.csv"}),
    "demo": ([], {}),
}


@pytest.mark.parametrize("command", _REQUIRED)
def test_parse_args_fills_defaults(command):
    # A flag left out takes its RunConfig field default, the one definition.
    flags, fields = _REQUIRED[command]
    assert parse_args([command, *flags]) == RunConfig(command, **fields)
    assert RunConfig(command) == RunConfig(command, stages=4, samples=0, seed=42, tolerance=1e-9)


def test_a_flag_does_not_carry_into_the_next_parse():
    # The parser is built once per process; a parse leaves nothing behind in it.
    assert cli._build_parser() is cli._build_parser()
    parse_args(["verify", "--input", "a.csv", "--law", "l.csv", "--output", "r.csv",
                "--samples", "5", "--seed", "1", "--tol", "0.5"])
    parse_args(["curve", "--stages", "2", "--output", "c.csv"])
    assert parse_args(["verify", "--input", "b.csv", "--law", "m.csv"]) == RunConfig(
        "verify", input_path="b.csv", law_path="m.csv")
    assert parse_args(["curve", "--output", "d.csv"]).stages == 4


def test_run_refuses_an_unknown_command_before_reading(tmp_path):
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(AssertionError, match="unhandled command 'nope'"):
        run(RunConfig("nope", input_path=missing, law_path=missing, output_path=missing))
    assert not (tmp_path / "missing.csv").exists()


def test_parse_args_decompose():
    cfg = parse_args(["decompose", "--x", "0", "--y", "0"])
    assert cfg.command == "decompose"
    assert (cfg.x, cfg.y) == (0.0, 0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--stages", "0", "--output", "c.csv"],
        ["curve", "--stages", str(MAX_STAGE + 1), "--output", "c.csv"],
        ["curve"],  # missing required --output
        ["sample", "--input", "a.csv", "--output", "s.csv"],  # samples 0
        ["sample", "--input", "a.csv", "--output", "s.csv", "--samples", "-5"],
        ["verify", "--input", "a.csv", "--law", "l.csv", "--tol", "0"],
        ["verify", "--input", "a.csv", "--law", "l.csv", "--tol", "nan"],
        ["decompose", "--x", "inf", "--y", "0"],
        ["lift", "--input", "a.csv", "--output", "l.csv", "--frobnicate"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    assert main(argv) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "comolift" in capsys.readouterr().out


@pytest.mark.parametrize("command", _REQUIRED)
def test_subcommand_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: comolift {command} [-h]")


def test_decompose_prints_frozen_kv():
    out = io.StringIO()
    assert run(parse_args(["decompose", "--x", "0", "--y", "0"]), out=out) == 0
    assert out.getvalue() == (
        "stage=1\nlambda=0.5\ne1x=-4\ne1y=-3\ne2x=4\ne2y=3\n"
    )


def test_curve_command_writes_files(tmp_path):
    target = tmp_path / "curve.csv"
    assert main(["curve", "--stages", "2", "--output", str(target)]) == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 9
    assert lines[1] == "2,vertical,-8,-8,-8,-4"  # walk begins at the outermost negative hook
    assert lines[-1] == "2,vertical,8,4,8,8"
    assert (tmp_path / "curve.svg").exists()


def test_demo_passes(capsys):
    assert main(["demo", "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "overallPass=true"
    assert "check.sampler_mean.pass=true" in out


def test_lift_verify_round_trip(tmp_path, capsys):
    model = random_model(100, seed=7)
    atoms = tmp_path / "atoms.csv"
    law = tmp_path / "law.csv"
    report = tmp_path / "report.csv"
    write_atoms_csv(model, atoms)
    assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 0
    code = main(
        [
            "verify",
            "--input",
            str(atoms),
            "--law",
            str(law),
            "--output",
            str(report),
            "--samples",
            "5000",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "overallPass=true"
    assert report.read_text().splitlines()[0] == "check,statistic,threshold,pass"


def test_corrupted_law_exits_1(tmp_path, capsys):
    model = random_model(20, seed=11)
    atoms = tmp_path / "atoms.csv"
    law = tmp_path / "law.csv"
    write_atoms_csv(model, atoms)
    assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 0
    bump_law_field(law, row=1, field=3)  # v1 of the first atom
    code = main(["verify", "--input", str(atoms), "--law", str(law)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[0] == "overallPass=false"


def test_sample_command_output(tmp_path):
    model = random_model(5, seed=2)
    atoms = tmp_path / "atoms.csv"
    samples = tmp_path / "samples.csv"
    write_atoms_csv(model, atoms)
    code = main(
        ["sample", "--input", str(atoms), "--output", str(samples), "--samples", "50"]
    )
    assert code == 0
    lines = samples.read_text().splitlines()
    assert lines[0] == "sample_id,atom_id,u,xi,eta"
    assert len(lines) == 51


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    model = random_model(30, seed=5)
    atoms = tmp_path / "atoms.csv"
    write_atoms_csv(model, atoms)
    outputs = []
    for tag in ("one", "two"):
        law = tmp_path / f"law-{tag}.csv"
        samples = tmp_path / f"samples-{tag}.csv"
        report = tmp_path / f"report-{tag}.csv"
        assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 0
        assert (
            main(
                [
                    "sample",
                    "--input",
                    str(atoms),
                    "--output",
                    str(samples),
                    "--samples",
                    "200",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "verify",
                    "--input",
                    str(atoms),
                    "--law",
                    str(law),
                    "--output",
                    str(report),
                    "--samples",
                    "1000",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        outputs.append(
            (
                law.read_bytes(),
                samples.read_bytes(),
                report.read_bytes(),
                capsys.readouterr().out,
            )
        )
    assert outputs[0] == outputs[1]


def test_io_failures_exit_3(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["lift", "--input", str(missing), "--output", str(tmp_path / "l.csv")]) == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["lift", "--input", str(bad), "--output", str(tmp_path / "l.csv")]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("command", ["lift", "sample", "verify", "curve"])
def test_output_that_cannot_be_opened_exits_3(tmp_path, capsys, command):
    atoms, law, out = tmp_path / "atoms.csv", tmp_path / "law.csv", tmp_path / "missing" / "out.csv"
    write_atoms_csv(random_model(4, seed=1), atoms)
    assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 0
    argv = {"lift": ["lift", "--input", str(atoms)],
            "sample": ["sample", "--input", str(atoms), "--samples", "5"],
            "verify": ["verify", "--input", str(atoms), "--law", str(law)],
            "curve": ["curve"]}[command]
    assert main([*argv, "--output", str(out)]) == 3
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()


def test_model_law_mismatch_exits_3(tmp_path):
    m1 = random_model(4, seed=1)
    m2 = random_model(5, seed=2)
    atoms1 = tmp_path / "atoms1.csv"
    atoms2 = tmp_path / "atoms2.csv"
    law2 = tmp_path / "law2.csv"
    write_atoms_csv(m1, atoms1)
    write_atoms_csv(m2, atoms2)
    assert main(["lift", "--input", str(atoms2), "--output", str(law2)]) == 0
    assert main(["verify", "--input", str(atoms1), "--law", str(law2)]) == 3


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "comolift.cli", "demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "overallPass=true"
    proc = subprocess.run(
        [sys.executable, "-m", "comolift.cli", "curve", "--stages", "0",
         "--output", str(tmp_path / "c.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


_FOOTPRINT = """
import sys
from comolift.cli import main
atoms, law, samples = sys.argv[1:]
assert main(["lift", "--input", atoms, "--output", law]) == 0
assert main(["verify", "--input", atoms, "--law", law]) == 0
assert "numpy.random" not in sys.modules, "lift or verify loaded numpy.random"
assert main(["sample", "--input", atoms, "--output", samples, "--samples", "10"]) == 0
assert "numpy.random" in sys.modules, "sample drew without numpy.random"
"""


def test_commands_that_draw_nothing_leave_numpy_random_unloaded(tmp_path):
    # numpy.random, and the OpenSSL it loads, add about 6 MB to a process: only
    # a draw may load it.  pytest and hypothesis may have loaded it here, so the
    # commands run in a fresh interpreter on this checkout's package.
    atoms = tmp_path / "atoms.csv"
    write_atoms_csv(random_model(5, seed=3), atoms)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(atoms), str(tmp_path / "law.csv"), str(tmp_path / "s.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr


# Byte identity of every CLI output.  The digests below pin stdout and each
# written file, as SHA-256, for a set of inputs at the edges of the formulas:
# gauges at most 1, gauges that are exact powers of two, payoffs on a stage's
# vertical side (x = +-2^(n+1), so lambda is exactly 0 or 1), tiny weights,
# a gauge near the 2^1019 cap, a random spread of log-uniform gauges, and a
# law file whose rows run in a different order from the atoms file.

_EDGE_ATOMS = [
    ("origin", 0.1, 0.0, 0.0),  # stage 1, lambda 1/2
    ("inner", 0.1, 0.5, -0.25),  # gauge 0.625
    ("unit", 0.1, 1.0, 0.75),  # gauge 0.25
    ("pow2", 0.1, 0.0, 4.0),  # gauge exactly 4 = 2^2
    ("pow2neg", 0.1, -32.0, -24.0),  # gauge exactly 8 = 2^3
    ("right", 0.1, 16.0, 10.0),  # x = 2^(3+1): lambda exactly 0
    ("left", 0.1, -16.0, -13.0),  # x = -2^(3+1): lambda exactly 1
    ("hi", 0.1, 8.0, 8.0),  # lambda 0 on stage 2
    ("lo", 0.1, -4.0, -4.0),  # lambda 1 on stage 1
    ("tiny", 1e-12, 3.0, -2.0),
    ("tinier", 1e-300, -5.0, 6.0),
]
_HUGE_ATOM = ("huge", 0.05, 3.0 * 2.0 ** 1019, 2.25 * 2.0 ** 1019)  # gauge 0.75 * 2^1019

_CLI_DIGESTS = {
    "lift": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "8bb389e9a29a6c1f4ed750794b53f6014bf85e8fcf3f07097f5aa8def4e7e499"),
    "sample": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
               "8aedcd3ac704063ca01a57dda1a5b9ebe6b8271c35d8bd47245de2707cd87750"),
    "verify_huge": (0, "60170f216930663ec7eede60b56f9759bc67ba7d77d5cc133c2386edcac63425",
                    "845b4df333e50561dc7372142c19d5813b9ce122845b734b8960ee41bfdb546d"),
    "verify": (0, "60170f216930663ec7eede60b56f9759bc67ba7d77d5cc133c2386edcac63425",
               "845b4df333e50561dc7372142c19d5813b9ce122845b734b8960ee41bfdb546d"),
    "verify_mc": (0, "536d5c1d80ffe1e276ca8a7f17dcd6e38e6672363f6b239d8fe8fd3b742dedef",
                  "b839793ceeecf136afe1cb028dad40d022c4c415ffa1e0aedf45f923b240e9cd"),
    "verify_tampered": (1, "04ce147f765b3121d631962d9978d3675584c9a2ac9fe97cce27f5ffb0fc45a4",
                        "0f63cd012dca14b67a449942bb64e262b2168cdf6533665ab2fd54fc771a2afd"),
    "verify_tampered_mc": (1, "4bf1fb58e94bf90c65fdea1b3b8fe8f792f2eeba245a3c3c905a621920550857",
                           "c84b46704e9c5c4fb8c463bf505e4055a1c7200ccbc09965af7b7edc7e39e482"),
    "demo": (0, "f1f971b20763f1694345db63652abcdade087b656c634981ff953a646f22aa13"),
    "demo_mc": (0, "13c1634127257fd5b1d9de9c76f9f5e639ec5b8261d4fe01c2d855f5ccd78c96",
                "3e152ce96af39346680078b7fd384c9f32364468df69750b6d87c6c1753b39cb"),
}


def _atoms_text(rows):
    body = "".join(f"{a},{w!r},{x!r},{y!r}\n" for a, w, x, y in rows)
    return "atom_id,weight,f,g\n" + body


def _random_atoms(count, seed, mass):
    rnd = random.Random(seed)
    rows = []
    for i in range(count):
        scale = 10.0 ** rnd.uniform(-3.0, 6.0)
        rows.append((f"r{i:03d}", rnd.uniform(0.5, 1.5),
                     scale * rnd.uniform(-1.0, 1.0), scale * rnd.uniform(-1.0, 1.0)))
    total = math.fsum(w for _, w, _, _ in rows)
    return [(a, mass * w / total, x, y) for a, w, x, y in rows]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(tmp_path, capsys):
    """Exit code and digests of stdout and each output file, per invocation."""
    atoms = tmp_path / "atoms.csv"
    atoms.write_text(_atoms_text(_EDGE_ATOMS + _random_atoms(200, 20261018, 0.1)))
    atoms_huge = tmp_path / "atoms_huge.csv"
    atoms_huge.write_text(_atoms_text(_EDGE_ATOMS + _random_atoms(200, 20261018, 0.05) + [_HUGE_ATOM]))

    def run(key, argv, *files):
        code = main(argv)
        out = capsys.readouterr().out
        got[key] = (code, _sha(out.encode()), *(_sha(f.read_bytes()) for f in files))

    got = {}
    law_huge = tmp_path / "law_huge.csv"
    run("lift", ["lift", "--input", str(atoms_huge), "--output", str(law_huge)], law_huge)
    samples = tmp_path / "samples.csv"
    run("sample", ["sample", "--input", str(atoms_huge), "--output", str(samples),
                   "--samples", "3000", "--seed", "7"], samples)
    report_huge = tmp_path / "report_huge.csv"
    run("verify_huge", ["verify", "--input", str(atoms_huge), "--law", str(law_huge),
                        "--output", str(report_huge)], report_huge)

    law = tmp_path / "law.csv"
    assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 0
    header, *body = law.read_text().splitlines()
    shuffled = tmp_path / "law_shuffled.csv"
    shuffled.write_text("\n".join([header] + body[::-1]) + "\n")
    tampered = tmp_path / "law_tampered.csv"
    tampered.write_text(shuffled.read_text())
    bump_law_field(tampered, row=5, field=2)  # u1 of the fifth data row
    report = tmp_path / "report.csv"
    for key, path in (("verify", shuffled), ("verify_tampered", tampered)):
        base = ["verify", "--input", str(atoms), "--law", str(path), "--output", str(report)]
        run(key, base, report)
        run(key + "_mc", base + ["--samples", "20000", "--seed", "5"], report)
    run("demo", ["demo"])
    run("demo_mc", ["demo", "--samples", "5000", "--output", str(report)], report)
    return got


def test_cli_outputs_are_byte_identical_to_pinned_digests(tmp_path, capsys):
    got = _cli_digests(tmp_path, capsys)
    assert got == _CLI_DIGESTS


@pytest.mark.parametrize("lam", ["2", "-0.5"])
def test_lambda_outside_unit_interval_fails_monte_carlo_rows(tmp_path, capsys, lam):
    # p * (1 - p) < 0 has no standard error: the frequency row fails with an
    # infinite statistic instead of crashing, and the whole report prints.
    atoms = tmp_path / "atoms.csv"
    law = tmp_path / "law.csv"
    write_atoms_csv(random_model(50, seed=13), atoms)
    assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 0
    lines = law.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = lam
    lines[1] = ",".join(cells)
    law.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--input", str(atoms), "--law", str(law), "--samples", "1000"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "overallPass=false"
    assert "check.sampler_branch_freq.statistic=inf" in out
    assert "check.sampler_branch_freq.pass=false" in out
    assert out[-1] == "check.sampler_atom_freq.pass=true"


@pytest.mark.parametrize("bad_id", ['"x,y"', '"x""y"'])
def test_unsafe_atom_id_exits_3_before_writing(tmp_path, capsys, bad_id):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text(f"atom_id,weight,f,g\na,0.5,1,2\n{bad_id},0.5,3,4\n")
    good_atoms = tmp_path / "good.csv"
    good_atoms.write_text("atom_id,weight,f,g\na,0.5,1,2\nb,0.5,3,4\n")
    law = tmp_path / "law.csv"
    assert main(["lift", "--input", str(good_atoms), "--output", str(law)]) == 0
    bad_law = tmp_path / "bad_law.csv"
    bad_law.write_text(law.read_text().replace("\nb,", f"\n{bad_id},"))
    out = tmp_path / "out.csv"
    runs = [
        (["lift", "--input", str(atoms), "--output", str(out)], atoms),
        (["sample", "--input", str(atoms), "--output", str(out), "--samples", "10"], atoms),
        (["verify", "--input", str(atoms), "--law", str(law), "--output", str(out)], atoms),
        (["verify", "--input", str(good_atoms), "--law", str(bad_law), "--output", str(out)], bad_law),
    ]
    for argv, culprit in runs:
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{culprit}:3: atom_id" in captured.err
        assert "not CSV-safe" in captured.err
        assert not out.exists()


def test_no_cli_path_builds_atom_objects(tmp_path, capsys, monkeypatch):
    # The model is its columns: lift, sample, verify (with and without
    # --samples) and demo never build an Atom view, and their bytes do not move.
    def refuse(self):
        raise AssertionError("a CLI path built an Atom object")

    monkeypatch.setattr(Atom, "__post_init__", refuse)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


@pytest.mark.parametrize("rows", [1, 7])
def test_cli_bytes_do_not_depend_on_the_write_slice(tmp_path, capsys, monkeypatch, rows):
    # The pinned sample run writes 3000 rows, inside one default slice; at 1
    # and 7 rows every table crosses slice boundaries.
    monkeypatch.setattr(comolift_io, "_WRITE_ROWS", rows)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


@pytest.mark.parametrize("draws", [7, 1000])
def test_cli_bytes_do_not_depend_on_the_draw_chunk(tmp_path, capsys, monkeypatch, draws):
    # The pinned sample run makes 3000 draws, inside one default chunk; at 7
    # and 1000 draws per chunk it crosses chunk and write-slice boundaries.
    monkeypatch.setattr(lifting, "_DRAW_CHUNK", draws)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


@given(chunk=st.integers(1, 40), full=st.integers(1, 3), rest=st.integers(0, 39), seed=st.integers(0, 2**64))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chunked_sample_equals_the_whole_run(tmp_path, monkeypatch, chunk, full, rest, seed):
    count = full * chunk + rest % chunk
    atoms, out, whole = tmp_path / "atoms.csv", tmp_path / "out.csv", tmp_path / "whole.csv"
    if not atoms.exists():
        write_atoms_csv(random_model(12, seed=4), atoms)
    monkeypatch.setattr(lifting, "_DRAW_CHUNK", chunk)
    assert main(["sample", "--input", str(atoms), "--output", str(out),
                 "--samples", str(count), "--seed", str(seed)]) == 0
    model = ingest_atoms(atoms)
    write_samples_csv(sample_lift(model, lift(model), count, seed), whole)
    assert out.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("draws, chunk", [(5000, lifting._DRAW_CHUNK), (10, lifting._DRAW_CHUNK), (5000, 7)],
                         ids=["5000-default", "10-default", "5000-7"])
def test_sample_formats_each_branch_point_once(tmp_path, monkeypatch, draws, chunk):
    # Only u is new per draw: N draws may format at most N floats plus the x
    # and y of each law branch they emit, once per run, not once per chunk.
    # u and the branch points go through the float-slice formatter, which
    # calls format_float for its integral values; each float is counted once,
    # by the slice formatter, or by format_float where called outside it.
    monkeypatch.setattr(lifting, "_DRAW_CHUNK", chunk)
    atoms, out = tmp_path / "atoms.csv", tmp_path / "samples.csv"
    write_atoms_csv(random_model(50, seed=6), atoms)
    branches = lift(ingest_atoms(atoms)).x.size
    calls, inside, format_float, float_cells = [], [], comolift_io.format_float, comolift_io._float_cells

    def counting(value):
        if not inside:
            calls.append(value)
        return format_float(value)

    def counting_slice(values):
        calls.extend(values.tolist())
        inside.append(values)
        try:
            return float_cells(values)
        finally:
            inside.pop()

    monkeypatch.setattr(comolift_io, "format_float", counting)
    monkeypatch.setattr(comolift_io, "_float_cells", counting_slice)
    assert main(["sample", "--input", str(atoms), "--output", str(out), "--samples", str(draws)]) == 0
    assert draws <= len(calls) <= draws + 2 * min(draws, branches)
    assert len(out.read_text().splitlines()) == draws + 1


def test_sample_law_mismatch_leaves_no_output(tmp_path, capsys, monkeypatch):
    atoms, out = tmp_path / "atoms.csv", tmp_path / "samples.csv"
    write_atoms_csv(random_model(4, seed=1), atoms)
    other = lift(random_model(5, seed=2))
    monkeypatch.setattr(cli, "lift", lambda model: other)
    assert main(["sample", "--input", str(atoms), "--output", str(out), "--samples", "10"]) == 3
    assert "law atoms do not match model atoms" in capsys.readouterr().err
    assert not out.exists()


def test_every_cli_input_is_read_in_blocks(tmp_path, capsys, monkeypatch):
    # Every file the pinned runs read is plain text, written by the writers or
    # by hand with "\n" line ends: none may reach the row loop.
    def refuse(*args):
        raise AssertionError("a CLI input took the row loop")

    monkeypatch.setattr(comolift_io, "_read_rows", refuse)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


def test_no_cli_path_builds_a_tuple_of_ids(tmp_path, capsys, monkeypatch):
    # Ids stay one column from reader to writer on every pinned run, a shuffled law among them.
    def refuse(*args):
        raise AssertionError("a CLI path built a tuple of ids")

    monkeypatch.setattr(FiltrationModel, "ids", refuse)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


@pytest.mark.parametrize("size", [1, 7])
def test_cli_bytes_do_not_depend_on_the_read_block(tmp_path, capsys, monkeypatch, size):
    # Every pinned input holds more than 200 rows, so at reads of 1 and 7
    # bytes the bulk path cuts lines and multibyte ids at many places.
    monkeypatch.setattr(comolift_io, "_READ_BYTES", size)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


def test_no_accepted_row_takes_the_cell_walk(tmp_path, capsys, monkeypatch):
    # Every row of the pinned runs is accepted, so none may reach the per-cell
    # diagnosis: the one fast row parse is the only path for accepted input.
    def refuse(*args):
        raise AssertionError("an accepted row took the cell walk")

    monkeypatch.setattr(comolift_io, "_cell_fault", refuse)
    assert _cli_digests(tmp_path, capsys) == _CLI_DIGESTS


@pytest.mark.parametrize("bad_id,message", [
    (b"a\xff", "not UTF-8 text (invalid start byte)"),
    (b"a" * 200_000, "field larger than field limit (131072)"),
], ids=["non_utf8", "past_csv_field_limit"])
def test_unparsable_cell_exits_3_naming_file_and_line(tmp_path, capsys, bad_id, message):
    atoms = tmp_path / "bad_atoms.csv"
    atoms.write_bytes(b"atom_id,weight,f,g\n" + bad_id + b",1,0,0\n")
    good_atoms = tmp_path / "atoms.csv"
    good_atoms.write_text("atom_id,weight,f,g\na,0.5,1,2\nb,0.5,3,4\n")
    law = tmp_path / "bad_law.csv"
    law.write_bytes(b"atom_id,lambda,u1,v1,u2,v2\n" + bad_id + b",0,1,2,1,2\nb,0,3,4,3,4\n")
    out = tmp_path / "out.csv"
    runs = [
        (["lift", "--input", str(atoms), "--output", str(out)], atoms),
        (["verify", "--input", str(good_atoms), "--law", str(law), "--output", str(out)], law),
    ]
    for argv, culprit in runs:
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {culprit}:2: {message}\n"
        assert not out.exists()


def test_weight_sum_past_float_range_exits_3(tmp_path, capsys):
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("atom_id,weight,f,g\na,1e308,0,0\nb,1e308,1,1\n")
    law = tmp_path / "law.csv"
    assert main(["lift", "--input", str(atoms), "--output", str(law)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {atoms}: atom weights sum to inf, outside 1 +- 1e-06" in captured.err
    assert not law.exists()


def test_infinite_law_mean_fails_tower_row(tmp_path, capsys):
    # lambda 2 at x = +-1e308 puts each atom's law mean at +-inf: the tower
    # row reports inf and fails, and the whole report still prints.
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("atom_id,weight,f,g\na,0.5,0,0\nb,0.5,1,1\n")
    law = tmp_path / "law.csv"
    law.write_text("atom_id,lambda,u1,v1,u2,v2\na,2,1e308,0,0,0\nb,2,-1e308,0,0,0\n")
    code = main(["verify", "--input", str(atoms), "--law", str(law)])
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert code == 1
    assert captured.err == ""
    assert out[0] == "overallPass=false"
    assert "check.tower_property.statistic=inf" in out
    assert "check.tower_property.pass=false" in out
    assert out[-1] == "check.norm_bound.pass=false"


def test_monte_carlo_rows_stay_quiet_on_overflowing_spread(tmp_path, capsys):
    # Branch points at x = -+1e308 have a spread past the float range; the
    # Monte Carlo rows take it as inf without a RuntimeWarning.
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("atom_id,weight,f,g\na,0.5,0,0\nb,0.5,1,1\n")
    law = tmp_path / "law.csv"
    law.write_text("atom_id,lambda,u1,v1,u2,v2\na,0.5,-1e308,0,1e308,0\nb,0.5,-1e308,0,1e308,0\n")
    code = main(["verify", "--input", str(atoms), "--law", str(law), "--samples", "100"])
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert code == 1
    assert captured.err == ""
    assert "check.sampler_mean.statistic=0" in out
    assert out[-1] == "check.sampler_atom_freq.pass=true"
