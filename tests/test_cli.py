"""CLI surface: subcommands, exit codes, config files, output files."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latgen.cli import _parse_n_values, main
from latgen.experiments import KIND_UNIMODULAR, Table, parse_reports_csv, stream_id
from latgen.sampling import Parallelepiped, RngStream, SamplerError, random_parallelepiped


def test_parse_n_values():
    assert _parse_n_values("3") == (3,)
    assert _parse_n_values("1..4") == (1, 2, 3, 4)
    assert _parse_n_values("2-5") == (2, 3, 4, 5)
    assert _parse_n_values("1,3,7") == (1, 3, 7)
    for reversed_range in ("3..1", "3-1"):
        with pytest.raises(ValueError, match="reversed"):
            _parse_n_values(reversed_range)


def test_coprime_exit_zero(capsys):
    assert main(["coprime", "--n-max", "100"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("# {")
    assert "10,13/22" in out
    assert err.startswith("coprime n<=100 min=13/22 ")


def test_bounds_table_writes_file(tmp_path, capsys):
    target = tmp_path / "bounds.csv"
    assert main(["bounds-table", "--n-max", "3", "--out", str(target)]) == 0
    text = target.read_text()
    assert text.splitlines()[1].startswith("n,fullrank_lower")
    out, err = capsys.readouterr()
    assert out == ""  # csv went to the file, not stdout
    assert err == "bounds-table n<=3 [ok]\n"


def test_unimodular_small_run(capsys):
    code = main(
        [
            "unimodular",
            "--n",
            "1",
            "--reps",
            "6",
            "--samples",
            "400",
            "--C",
            "500",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# {")
    assert "unimodular n=1" in captured.err


def test_unimodular_status_without_ideal(capsys):
    # m < n has no ideal probability: the status says n/a, not an empty value
    argv = ["unimodular", "--n", "2", "--m", "1", "--reps", "2", "--samples", "10"]
    assert main(argv) == 0
    assert capsys.readouterr().err == (
        "unimodular n=2 m=1: avg=0.000000 min=0.000000 radius=0.081 ideal=n/a [n/a]\n"
    )


def test_unimodular_detects_deviation(capsys):
    # C = 1 in one dimension yields generators +-1, so every sampled column
    # is 0 and nothing ever generates: the ideal-column check must fail.
    code = main(
        [
            "unimodular",
            "--n",
            "1",
            "--reps",
            "3",
            "--samples",
            "100",
            "--C",
            "1",
            "--seed",
            "1",
        ]
    )
    assert code == 2


def test_unimodular_config_file(tmp_path, capsys):
    cfg = {"n_values": [1], "reps": 2, "samples": 50, "C": 300, "seed": 7}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "r.csv"
    code = main(
        ["unimodular", "--config", str(path), "--samples", "80", "--out", str(out_path)]
    )
    assert code == 0
    header = json.loads(out_path.read_text().splitlines()[0][2:])
    # explicit flag overrides the file value
    assert header["config"]["samples"] == 80
    assert header["config"]["C"] == 300
    # a report header's config is a config file that reruns the same bytes
    path.write_text(json.dumps(header["config"]))
    rerun = tmp_path / "rerun.csv"
    assert main(["unimodular", "--config", str(path), "--workers", "2", "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out_path.read_bytes()


def test_paper_scale_flag(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code = main([
        "unimodular", "--paper-scale", "--n", "2", "--reps", "1",
        "--samples", "5", "--out", str(out_path),
    ])
    assert code == 0
    config = json.loads(out_path.read_text().splitlines()[0][2:])["config"]
    # the preset fills what no flag sets; the explicit flags win
    assert config["C"] == 10**18
    assert (config["n_values"], config["reps"], config["samples"]) == ([2], 1, 5)
    # the preset, the output file and the worker count are CLI flags, not
    # config keys
    for key, value in (("paper_scale", True), ("out", str(out_path)), ("workers", 2)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert main(["unimodular", "--config", str(path), "--n", "2"]) == 1
        assert "unknown config keys" in capsys.readouterr().err


def test_unimodular_output_independent_of_workers_and_out(tmp_path, capsys):
    argv = ["unimodular", "--n", "1..2", "--reps", "3", "--samples", "100"]
    assert main([*argv, "--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main([*argv, "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    target = tmp_path / "r.csv"
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_text() == serial


def test_lemma_and_tv_subcommands(capsys):
    assert main(["lemma-verify"]) == 0
    assert main(["tv-check"]) == 0
    err = capsys.readouterr().err
    assert "lemma-verify" in err and "tv-check" in err


def test_tv_custom_instance(tmp_path, capsys):
    code = main(["tv-check", "--lattice", "-"])  # unreadable path
    assert code == 1
    lattice_file = tmp_path / "z1.json"
    lattice_file.write_text('{"n": 1, "basis": [["1"]], "column_major": true}')
    code = main(
        [
            "tv-check",
            "--lattice",
            str(lattice_file),
            "--sub",
            "[[2]]",
            "--B1",
            "101",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "custom,1,101,2,1/202,1/34,1" in out


def test_fullrank_subcommand(tmp_path, capsys):
    code = main(["fullrank-check", "--trials", "150", "--seed", "3"])
    assert code == 0
    err = capsys.readouterr().err
    assert "fullrank-check n=2" in err
    lattice_file = tmp_path / "z1.json"
    lattice_file.write_text('{"n": 1, "basis": [["1"]], "column_major": true}')
    code = main(
        [
            "fullrank-check",
            "--lattice",
            str(lattice_file),
            "--B",
            "8",
            "--trials",
            "150",
            "--allow-out-of-hypothesis",
        ]
    )
    assert code == 0


def test_operational_error_exit_one(tmp_path, capsys, monkeypatch):
    assert main(["unimodular", "--n", "0"]) == 1
    assert main(["coprime", "--n-max", "0"]) == 1
    assert main(["fullrank-check", "--lattice", "/nonexistent.json"]) == 1
    # negative counts are refused up front, not reported as a failed check
    assert main(["fullrank-check", "--trials", "-5"]) == 1
    # flags a subcommand does not read are refused, not silently ignored;
    # parallelepiped sampling rejects nothing, so there is no reject cap
    assert main(["unimodular", "--n", "3", "--max-rejects", "5"]) == 1
    assert main([
        "coprime", "--n-max", "20", "--config", "/nonexistent.json",
        "--workers", "7", "--seed", "3",
    ]) == 1
    assert main(["tv-check", "--config", "/nonexistent.json"]) == 1
    # malformed inputs are refused with an error line, not a traceback
    z2 = tmp_path / "z2.json"
    z2.write_text('{"n": 2, "basis": [["1", "0"], ["0", "1"]], "column_major": true}')
    malformed = []
    configs = ["[1, 2]", '{"n_values": 3}', '{"n_values": [1, "2"]}', '{"C": "100"}']
    for i, text in enumerate(configs):
        config = tmp_path / f"bad{i}.json"
        config.write_text(text)
        malformed.append(["unimodular", "--config", str(config)])
    malformed.append(["unimodular", "--n", "1,1"])  # a repeated dimension
    # more shards than the stream layout holds, refused before any shard runs
    malformed.append(["unimodular", "--reps", "8388609"])
    malformed.append(["unimodular", "--n", "1", "--reps", "1", "--samples", "1", "--workers", "0"])
    for sub in ("null", "5", "[1, 2]", "[[null]]", "[[true, 0], [0, 2]]", "[[2.0, 0], [0, 2]]"):
        malformed.append(["tv-check", "--lattice", str(z2), "--sub", sub, "--B1", "50"])
    for bound in ("-5", "0", "1/0"):
        malformed.append([
            "fullrank-check", "--B", bound, "--allow-out-of-hypothesis", "--trials", "0",
        ])
    # lattice entries are JSON integers or strings; floats and booleans
    # would silently change the lattice, other shapes used to escape as
    # tracebacks
    lattices = [
        '{"n": 2, "basis": [[0.1, 0], [0, 1]]}', '{"n": 2, "basis": [[true, 0], [0, 1]]}',
        '{"n": true, "basis": [["1"]]}', '{"n": 1, "basis": [["1"]], "column_major": "no"}',
        "[1, 2]", '{"n": 2}', '{"n": 2, "basis": 5}', '{"n": 1, "basis": [[null]]}',
    ]
    for i, text in enumerate(lattices):
        lattice = tmp_path / f"lattice{i}.json"
        lattice.write_text(text)
        malformed.append([
            "fullrank-check", "--lattice", str(lattice), "--B", "8",
            "--allow-out-of-hypothesis", "--trials", "10",
        ])
    # (2 nu)^2 < det Z^2: no covering-radius upper bound can be that small
    malformed.append(["fullrank-check", "--nu-upper", "1/1000", "--trials", "10"])
    # pi nu^2 < det Z^2 although (2 nu)^2 = det: discs of radius 1/2 leave
    # gaps, so 1/2 is below the covering radius sqrt(2)/2
    malformed.append(["fullrank-check", "--nu-upper", "1/2", "--trials", "10"])
    for argv in malformed:
        capsys.readouterr()
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # a shortest vector below 10^-30 underflows the covering-radius bound
    tiny = tmp_path / "tiny.json"
    tiny.write_text(
        '{"n": 2, "basis": [["1/10000000000000000000000000000000", "0"],'
        ' ["0", "10000000000000000000000000000000"]]}'
    )
    assert main(["fullrank-check", "--lattice", str(tiny), "--trials", "5"]) == 1
    assert capsys.readouterr().err == "error: shortest vector bound underflowed\n"
    # a basis of Z^2 with columns of length 10^6: the shortest-vector walk
    # is refused by its size bound before it starts
    far = tmp_path / "far.json"
    far.write_text('{"n": 2, "basis": [[1000000, 1], [1000001, 1]]}')
    assert main(["fullrank-check", "--lattice", str(far)]) == 1
    assert "too large (6000006000015)" in capsys.readouterr().err
    # every bound is certified on one grid, so there is no --precision
    assert main(["bounds-table", "--precision", "30"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    for policy in ("n-1", "n+-1"):
        assert main(["unimodular", "--n", "2", "--m", policy]) == 1
        assert capsys.readouterr().err == (
            f"error: m policy {policy!r} is not n, n+K or an integer\n"
        )
    # a malformed --n names the accepted forms, not Python's int() message
    for text in ("2-", "1..", "x", "1,", "1..x"):
        assert main(["unimodular", "--n", text]) == 1
        assert capsys.readouterr().err == (
            f"error: n values {text!r} are not of the form 2, 1..4, 1-4 or 1,3\n"
        )
    assert main(["unimodular", "--n", "4..2"]) == 1
    assert capsys.readouterr().err == "error: n range '4..2' is reversed: 4 > 2\n"
    # an empty flag value reaches its parser instead of reading as absent
    no_file = "[Errno 2] No such file or directory: ''"
    sub = "[[2, 0], [0, 2]]"

    def no_fraction(flag, text=""):
        return f"{flag} {text!r} is not a rational number such as 8 or 7/2"

    empty = [
        (["fullrank-check", "--B", ""], no_fraction("--B")),
        (["fullrank-check", "--nu-upper", ""], no_fraction("--nu-upper")),
        (["fullrank-check", "--lattice", ""], no_file),
        (["tv-check", "--lattice", "", "--sub", "", "--B1", ""], no_file),
        (["tv-check", "--lattice", "", "--sub", sub, "--B1", "50"], no_file),
        (["tv-check", "--lattice", str(z2), "--sub", "", "--B1", "50"],
         "--sub is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (["tv-check", "--lattice", str(z2), "--sub", sub, "--B1", ""], no_fraction("--B1")),
        (["unimodular", "--n", ""], "n values '' are not of the form 2, 1..4, 1-4 or 1,3"),
        (["unimodular", "--config", ""], no_file),
        (["unimodular", "--m", ""], "m policy '' is not n, n+K or an integer"),
    ]
    # a value its parser refuses names the flag it came from
    for i, text in enumerate(("x", "1/0")):
        empty += [
            (["fullrank-check", "--B", text], no_fraction("--B", text)),
            (["fullrank-check", "--nu-upper", text], no_fraction("--nu-upper", text)),
            (["tv-check", "--lattice", str(z2), "--sub", sub, "--B1", text],
             no_fraction("--B1", text)),
        ]
        # so does a vector entry, from --sub or from a lattice file
        lattice = tmp_path / f"entry{i}.json"
        lattice.write_text('{"n": 2, "basis": [["%s", "0"], ["0", "1"]]}' % text)
        empty += [
            (["tv-check", "--lattice", str(z2), "--sub", '[["%s", 0], [0, 2]]' % text,
              "--B1", "50"], f'--sub entry "{text}" is not a rational number'),
            (["fullrank-check", "--lattice", str(lattice)],
             f'lattice basis entry "{text}" is not a rational number'),
        ]
    # a misspelled key would load the transpose of the meant lattice
    typo = tmp_path / "typo.json"
    typo.write_text('{"n": 2, "basis": [["1", "1"], ["0", "1"]], "colum_major": false}')
    empty += [
        (["fullrank-check", "--lattice", str(typo)], "unknown lattice keys: ['colum_major']"),
        (["tv-check", "--lattice", str(typo), "--sub", sub, "--B1", "50"],
         "unknown lattice keys: ['colum_major']"),
    ]
    # malformed JSON in a file names the flag and the path it came from
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    not_json = (
        "is not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    )
    empty += [
        (["unimodular", "--config", str(broken)], f"--config {broken} {not_json}"),
        (["fullrank-check", "--lattice", str(broken)], f"--lattice {broken} {not_json}"),
        (["tv-check", "--lattice", str(broken), "--sub", sub, "--B1", "50"],
         f"--lattice {broken} {not_json}"),
    ]
    for argv, line in empty:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"error: {line}\n", argv
    # a window below the threshold names the flag that reports it anyway
    assert main(["fullrank-check", "--B", "5", "--trials", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: window bound 5 below threshold ")
    assert err.rstrip().endswith("pass --allow-out-of-hypothesis to report anyway")
    # usage errors are operational too; --help stays a success
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0
    # an --out that cannot be opened is refused before any work
    def no_run(*args):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr("latgen.cli.run_unimodular_experiment", no_run)
    missing = str(tmp_path / "missing" / "out.csv")
    for argv in (["unimodular", "--n", "2"], ["coprime", "--n-max", "20"]):
        capsys.readouterr()
        assert main([*argv, "--out", missing]) == 1, argv
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {missing!r}\n"
        ), argv
    # a run that fails after the check leaves an existing --out as it was
    def failing(*args):
        raise ValueError("failed")

    monkeypatch.setattr("latgen.cli.run_unimodular_experiment", failing)
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier output\n")
    assert main(["unimodular", "--n", "2", "--out", str(kept)]) == 1
    assert capsys.readouterr().err == "error: failed\n"
    assert kept.read_text() == "earlier output\n"
    # and removes an --out that the check itself created
    monkeypatch.undo()
    fresh = tmp_path / "new.csv"
    assert main(["unimodular", "--n", "2", "--workers", "0", "--out", str(fresh)]) == 1
    assert capsys.readouterr().err == "error: workers must be >= 1, not 0\n"
    assert not fresh.exists()


def _round_trip(text: str, kind: str) -> Table:
    """Parse an output, check it writes back to the same text and that its
    header names the expected format."""
    table = Table.from_csv(text)
    assert table.to_csv() == text
    version = 2 if kind == "reports" else 1
    assert table.header["format"] == f"latgen-{kind}-v{version}"
    return table


# sha256 of each certify output, fixed when the exact linear algebra moved
# from Fractions to the integer elimination kernels: every table must stay
# byte-identical.
CERTIFY_SHA256 = [
    (["coprime", "--n-max", "1000"], "coprime",
     "49c175d2158d1762ed70b3c048d9022e02b0cc93f447a48b86f20fa4e0477f4b"),
    (["bounds-table", "--n-max", "15"], "bounds",
     "05eafd2cbacf26f0571ae218f1684572f64d43a09556699aeba8136896bc5212"),
    (["bounds-table", "--n-max", "60"], "bounds",
     "d182836376febba48fe4f17b488deb176c798b55841a1b43c7f1e52f6b30fdc8"),
    (["lemma-verify"], "lemma",
     "7e5f866267941e15200f291aa7ffc7ac3d4280eb1a9703c809f417e91343c262"),
    (["tv-check"], "tv",
     "6f9bc02602fee37c8c841c10a00cd8ff24b841415e5a1a76b424bcfa9038a183"),
    (["fullrank-check", "--trials", "2000"], "fullrank",
     "2cce76c32937b3921f7e88e885cebd98995ab2ce75433b312113137a23785122"),
]


@pytest.mark.parametrize(
    "argv,kind,digest", CERTIFY_SHA256, ids=[" ".join(argv) for argv, *_ in CERTIFY_SHA256]
)
def test_certify_outputs_pinned(argv, kind, digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main([*argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest
    _round_trip(target.read_text(), kind)


# `unimodular` at C = 1, where a third of the draws are singular: the
# degenerate draws each shard's parallelepiped refused (73 in all), and the
# output's sha256, both taken before the parallelepiped sampled through
# its one Smith form
C1_ARGV = ["unimodular", "--n", "1..3", "--m", "n+1", "--C", "1", "--reps", "50",
           "--samples", "20", "--seed", "0", "--workers", "1"]
C1_SHA256 = "6b9fbd3bd8034c6aced0e5c57e3fedc1de06e67921a3184556538824e1529d90"
C1_RESAMPLES = {
    1: (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4,
        1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 2, 0, 0),
    2: (1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 2,
        0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    3: (0, 0, 1, 0, 1, 0, 1, 1, 0, 3, 0, 6, 1, 0, 0, 1, 1, 0, 0, 0, 3, 3, 0, 1, 1,
        0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5, 1, 2, 0, 0, 0, 2, 0, 1, 1),
}


def test_degenerate_draws_resampled_as_pinned(tmp_path, capsys):
    target = tmp_path / "c1.csv"
    assert main([*C1_ARGV, "--out", str(target)]) == 2  # far below the ideal
    assert hashlib.sha256(target.read_bytes()).hexdigest() == C1_SHA256
    reports = parse_reports_csv(target.read_text())
    assert {r.n: r.resamples for r in reports} == C1_RESAMPLES
    assert sum(map(sum, C1_RESAMPLES.values())) == 73


# the two other `unimodular` runs whose sha256 is fixed: the desk run
# (n = 1..4, C = 10^4), at one and at two workers, and a C = 10^18 run,
# whose parallelepipeds are too large for the int64 engine from n = 4 on
DESK_ARGV = ["unimodular", "--n", "1..4", "--m", "n+1", "--C", "10000", "--reps", "6",
             "--samples", "5000", "--seed", "0"]
DESK_SHA256 = "63945bddb88dd84c0921e1dd46776a7f0ddf43c2ce153acad6b33439d56bd0dd"
C18_ARGV = ["unimodular", "--n", "2..6", "--m", "n+1", "--C", "1000000000000000000",
            "--reps", "4", "--samples", "3", "--seed", "0", "--workers", "1"]
C18_SHA256 = "a970f3355d8add85dbb438cbc352ad70bd7cbeeb5b15e7f80623d89e9f106d22"
UNIMODULAR_SHA256 = [
    ([*DESK_ARGV, "--workers", "1"], DESK_SHA256),
    ([*DESK_ARGV, "--workers", "2"], DESK_SHA256),
    (C18_ARGV, C18_SHA256),
    ([*C18_ARGV[:-2], "--workers", "2"], C18_SHA256),
]


@pytest.mark.parametrize(
    "argv,digest", UNIMODULAR_SHA256, ids=["desk-w1", "desk-w2", "C=10^18", "C=10^18-w2"]
)
def test_unimodular_outputs_pinned(argv, digest, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main([*argv, "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_shard_sampler_fault_names_the_shard(monkeypatch, capsys):
    def broken(self, rng, count):
        raise SamplerError("boom")

    monkeypatch.setattr(Parallelepiped, "take", broken)
    argv = ["unimodular", "--n", "2", "--reps", "1", "--samples", "1", "--workers", "1"]
    assert main(argv) == 1
    # the shard's parallelepiped at the default seed 0 and C = 10^4
    rng = RngStream(0, stream_id(KIND_UNIMODULAR, 2, 0, 0))
    generators = random_parallelepiped(2, 10**4, rng).generators
    assert capsys.readouterr().err == (
        f"sampler error: shard 0 (n=2, generators {generators}): boom\n"
    )


Z1_FILE = "{z1}"  # replaced by a Z^1 lattice JSON file
ROUND_TRIP = [
    (["unimodular", "--n", "1..2", "--reps", "3", "--samples", "100", "--C", "100",
      "--seed", "4"], "reports"),
    (["tv-check", "--lattice", Z1_FILE, "--sub", "[[2]]", "--B1", "101"], "tv"),
    (["fullrank-check", "--trials", "0"], "fullrank"),
    (["fullrank-check", "--lattice", Z1_FILE, "--B", "8", "--trials", "150",
      "--allow-out-of-hypothesis"], "fullrank"),
]


@pytest.mark.parametrize(
    "argv,kind", ROUND_TRIP, ids=[" ".join(argv) for argv, _ in ROUND_TRIP]
)
def test_outputs_round_trip(argv, kind, tmp_path, capsys):
    lattice_file = tmp_path / "z1.json"
    lattice_file.write_text('{"n": 1, "basis": [["1"]], "column_major": true}')
    argv = [str(lattice_file) if arg == Z1_FILE else arg for arg in argv]
    assert main(argv) == 0
    table = _round_trip(capsys.readouterr().out, kind)
    if argv[:3] == ["fullrank-check", "--trials", "0"]:
        (row,) = table.rows
        assert (row.trials, row.frequency) == ("0", "")


# entry points the tracer still looks for although latgen no longer has them
STALE_TRACED = {
    "latgen.sampling.RejectionSampler.take",
    "latgen.exactmat.RationalMatrix.det",
    "latgen.exactmat.RationalMatrix.inverse",
    "latgen.exactmat.rank_of_rows",
    "latgen.lattice.rank_of_span",
    "latgen.bounds.ZetaContext.zeta",
    "latgen.bounds.ZetaContext.zeta_hat",
    *(f"latgen.experiments.{cls}.to_csv" for cls in (
        "CoprimeTable", "BoundsTable", "LemmaReport", "TvReport", "FullrankReport",
    )),
}


@pytest.mark.parametrize("argv,shards,decisions", [
    (["unimodular", "--n", "2", "--reps", "2", "--samples", "50"], 2, 100),
    (["fullrank-check", "--trials", "200"], 0, 0),
    (["unimodular", "--n", "3..4", "--reps", "2", "--samples", "50"], 4, 200),
])
def test_benchmark_tracer_sees_every_layer(argv, shards, decisions, tmp_path):
    # a subprocess, since the tracer rebinds the library functions
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    prefix = str(tmp_path / "t")
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracing.py"), prefix, "--", *argv,
         "--out", str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(Path(prefix + ".summary.json").read_text())
    metrics = summary["metrics"]
    assert len(metrics["shard_times"]) == shards  # experiments.shard_count
    assert (metrics["sampling.window_take_s"] > 0) == (argv[0] == "fullrank-check")
    assert metrics["exactmat.decisions"] == decisions
    if argv[0] == "unimodular":
        # every matrix is decided by a traced unimodular_columns call
        reports = parse_reports_csv((tmp_path / "out.csv").read_text())
        assert metrics["exactmat.successes"] == sum(sum(r.successes) for r in reports)
    assert set(summary["absent"]) <= STALE_TRACED


# Runs one stage in a fresh interpreter and prints which heavy modules it
# loaded; "pool" reports whether numpy was loaded when the pool started.
_IMPORT_PROBE = """
import json, sys
stage, argv = sys.argv[1], sys.argv[2:]
seen = {}
if stage == "pool":
    import multiprocessing
    start_pool = multiprocessing.Pool
    def pool(*args, **kwargs):
        seen["numpy_at_pool"] = "numpy" in sys.modules
        return start_pool(*args, **kwargs)
    multiprocessing.Pool = pool
if stage == "import":
    import latgen
elif stage == "parser":
    from latgen.cli import build_parser
    build_parser()
else:
    from latgen.cli import main
    assert main(argv) == 0
seen.update({name: name in sys.modules for name in ("numpy", "multiprocessing")})
print(json.dumps(seen))
"""


def _probe_imports(stage, argv, tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if argv:
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, stage, *argv],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage,argv,numpy_loaded", [
    ("import", [], False),
    ("parser", [], False),
    ("main", ["coprime", "--n-max", "10"], False),
    ("main", ["bounds-table", "--n-max", "3"], False),
    ("main", ["tv-check"], False),
    ("main", ["fullrank-check", "--trials", "10"], False),
    ("main", ["lemma-verify"], False),
    ("main", ["unimodular", "--n", "2", "--reps", "2", "--samples", "5", "--workers", "1"], True),
])
def test_only_the_subcommands_that_need_numpy_load_it(stage, argv, numpy_loaded, tmp_path):
    seen = _probe_imports(stage, argv, tmp_path)
    assert seen == {"numpy": numpy_loaded, "multiprocessing": False}


def test_pool_parent_loads_numpy_before_forking(tmp_path):
    argv = ["unimodular", "--n", "2", "--reps", "2", "--samples", "5", "--workers", "2"]
    seen = _probe_imports("pool", argv, tmp_path)
    assert seen["numpy_at_pool"] is True


def test_readme_library_example_runs(tmp_path):
    # the README's one python block, run as written against src/
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    *_, ideal, alpha_lo = done.stdout.splitlines()
    # the values its comments give
    lo, hi = re.fullmatch(r"Enclosure\((\S+), (\S+)\)", ideal).groups()
    assert round(float(lo), 6) == round(float(hi), 6) == 0.450631
    assert Fraction(alpha_lo) > Fraction(185, 1000)
