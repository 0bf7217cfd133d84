"""latgen command line interface.

Subcommands: unimodular, coprime, bounds-table, lemma-verify, tv-check,
fullrank-check.  `SUBCOMMANDS` lists each one with its help text and
flags; its handler `_cmd_<name>` (dashes as underscores) only computes
the result `Table` and a status text.  `main` refuses an --out it cannot
open before the handler runs (and removes it again on exit 1 if that
check created it), then writes every table the same way: CSV (with a
JSON header line) to --out or stdout, the status to stderr.  Exit codes:
0 when every check passes, 2 when a check fails, 1 on operational errors
(bad arguments, sampler faults, unreadable files).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bounds import PRECISION
from .experiments import (
    ExperimentConfig,
    Table,
    reports_table,
    run_bounds_table,
    run_coprime_table,
    run_fullrank_check,
    run_lemma_verification,
    run_tv_suite,
    run_unimodular_experiment,
)
from .lattice import LatticeBasis, vectors_from_json
from .sampling import SamplerError


def _parse_n_values(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        for sep in ("..", "-"):
            if sep in text and not text.startswith("-"):
                lo, hi = map(int, text.split(sep, 1))
                break
        else:
            return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"n values {text!r} are not of the form 2, 1..4, 1-4 or 1,3"
        ) from None
    if lo > hi:
        raise ValueError(f"n range {text!r} is reversed: {lo} > {hi}")
    return tuple(range(lo, hi + 1))


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} {text!r} is not a rational number such as 8 or 7/2") from None


def _load_lattice(path: str) -> LatticeBasis:
    with open(path) as handle:
        return LatticeBasis.from_json(handle.read())


# the --paper-scale settings, for those neither a flag nor --config sets
PAPER_SCALE_DEFAULTS = {"reps": 1000, "C": 10**18, "n_values": tuple(range(1, 16))}


def _experiment_config(args) -> ExperimentConfig:
    settings: dict = {}
    if args.config is not None:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        settings.update(loaded)
    explicit = {
        "n_values": _parse_n_values(args.n) if args.n is not None else None,
        "m_policy": args.m,
        "C": args.C,
        "reps": args.reps,
        "samples": args.samples,
        "seed": args.seed,
    }
    for key, value in explicit.items():
        if value is not None:
            settings[key] = value
    if args.paper_scale:
        for key, value in PAPER_SCALE_DEFAULTS.items():
            settings.setdefault(key, value)
    return ExperimentConfig.from_json_dict(settings)


def _tag(ok: bool) -> str:
    return "[ok]" if ok else "[FAIL]"


# Each handler returns (table, stderr status text) and leaves writing the
# table and choosing the exit code to `main`.


def _cmd_unimodular(args) -> tuple[Table, str]:
    reports = run_unimodular_experiment(_experiment_config(args), args.workers)
    lines = []
    for report in reports:
        verdict = report.within_tolerance()
        ideal = "n/a"
        if report.ideal_lo is not None:
            ideal = float((report.ideal_lo + report.ideal_hi) / 2)
        lines.append(
            f"unimodular n={report.n} m={report.m}: avg={float(report.average):.6f}"
            f" min={float(report.minimum):.6f} radius={report.radius:.2g}"
            f" ideal={ideal} [{'n/a' if verdict is None else 'ok' if verdict else 'FAIL'}]"
        )
    return reports_table(reports), "\n".join(lines)


def _cmd_coprime(args) -> tuple[Table, str]:
    table = run_coprime_table(args.n_max)
    minimum, argmin = Fraction(table.header["minimum"]), table.header["argmin"]
    return table, f"coprime n<={args.n_max} min={minimum} at n={argmin} {_tag(table.ok)}"


def _cmd_bounds_table(args) -> tuple[Table, str]:
    table = run_bounds_table(args.n_max, args.precision)
    return table, f"bounds-table n<={args.n_max} {_tag(table.ok)}"


def _cmd_lemma_verify(args) -> tuple[Table, str]:
    table = run_lemma_verification()
    return table, f"lemma-verify {len(table.rows)} instances {_tag(table.ok)}"


def _cmd_tv_check(args) -> tuple[Table, str]:
    custom = (args.lattice, args.sub, args.B1)
    if custom != (None, None, None):
        if None in custom:
            raise ValueError("custom tv-check needs --lattice, --sub and --B1")
        lattice = _load_lattice(args.lattice)
        try:
            sub = vectors_from_json(json.loads(args.sub), "--sub")
        except json.JSONDecodeError as exc:
            raise ValueError(f"--sub is not JSON: {exc}") from None
        table = run_tv_suite([("custom", lattice, sub, _fraction(args.B1, "--B1"))])
    else:
        table = run_tv_suite()
    return table, f"tv-check {len(table.rows)} instances {_tag(table.ok)}"


def _cmd_fullrank_check(args) -> tuple[Table, str]:
    lattice = LatticeBasis([[1, 0], [0, 1]])
    if args.lattice is not None:
        lattice = _load_lattice(args.lattice)
    nu = _fraction(args.nu_upper, "--nu-upper") if args.nu_upper is not None else None
    table = run_fullrank_check(
        lattice,
        _fraction(args.B, "--B") if args.B is not None else None,
        trials=args.trials,
        seed=args.seed,
        nu_upper=nu,
        allow_out_of_hypothesis=args.allow_out_of_hypothesis,
    )
    (row,) = table.rows
    freq = "n/a" if row.frequency is None else f"{float(row.frequency):.4f}"
    return table, (
        f"fullrank-check n={row.n} B={row.B} freq={freq}"
        f" hypothesis={'yes' if row.hypothesis_held else 'no'} {_tag(table.ok)}"
    )


# name -> (help, [(flag, add_argument keywords)]); every subcommand also
# takes the common flag --out of `build_parser`.
SUBCOMMANDS = {
    "unimodular": ("random-parallelepiped unimodularity experiment", [
        ("--seed", dict(type=int, help="master seed")),
        ("--workers", dict(type=int, default=1, help="worker processes")),
        ("--config", dict(help="JSON config file")),
        ("--n", dict(help="dimensions, e.g. 2 or 1..4 or 1,3")),
        ("--m", dict(help="columns policy: n+1 (default), n, or an integer")),
        ("--C", dict(type=int, help="parallelepiped coordinate bound")),
        ("--reps", dict(type=int, help="parallelepipeds per n")),
        ("--samples", dict(type=int, help="matrices per parallelepiped")),
        ("--paper-scale", dict(
            action="store_true",
            help="reps=1000, C=10^18, n=1..15 unless overridden (hours of compute)",
        )),
    ]),
    "coprime": ("exact coprimality ratios", [
        ("--n-max", dict(type=int, default=1000)),
    ]),
    "bounds-table": ("closed-form bound table", [
        ("--n-max", dict(type=int, default=15)),
        ("--precision", dict(type=int, default=PRECISION)),
    ]),
    "lemma-verify": ("window counting bound checks", []),
    "tv-check": ("total-variation distance checks", [
        ("--lattice", dict(help="lattice JSON file")),
        ("--sub", dict(help="sublattice generators as JSON")),
        ("--B1", dict(help="window bound")),
    ]),
    "fullrank-check": ("full-rank sampling frequency", [
        ("--seed", dict(type=int, default=0, help="master seed")),
        ("--lattice", dict(help="lattice JSON file (default Z^2)")),
        ("--B", dict(help="window bound (default: threshold)")),
        ("--trials", dict(type=int, default=2000)),
        ("--nu-upper", dict()),
        ("--allow-out-of-hypothesis", dict(action="store_true")),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgen",
        description="Lattice generation probabilities: experiments and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output CSV path (default stdout)")

    # handlers are looked up when the parser is built, not at import, so a
    # handler replaced on this module is the one dispatched
    module = globals()
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=module["_cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # keep exit 2 reserved for failed checks; usage errors are operational
        return 0 if exc.code in (0, None) else 1
    created = False
    try:
        if args.out:
            # refuse an unwritable --out before any work; "a" keeps its bytes
            existed = os.path.exists(args.out)
            open(args.out, "a").close()
            created = not existed
        table, status = args.func(args)
        text = table.to_csv()
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (SamplerError, ValueError, ArithmeticError, OSError) as exc:
        kind = "sampler error" if isinstance(exc, SamplerError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        if created:
            # a failed run leaves no file that the probe made
            os.remove(args.out)
        return 1
    print(status, file=sys.stderr)
    return 0 if table.ok else 2


if __name__ == "__main__":
    sys.exit(main())
