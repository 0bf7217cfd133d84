"""End-to-end and per-layer benchmark of the ``latgen`` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads, their latgen invocations and the reasoning behind them live
in ``perfbench/workloads.json``; the seed-commit outputs every invocation
is checked against live in ``perfbench/reference.json``.

``--trace 0`` runs the workload's invocations over and over, each in a
fresh ``python -m latgen.cli`` process, until ``--seconds`` have passed,
and reports every end-to-end metric from the per-invocation medians.
``--trace 1`` makes one pass that runs each invocation untraced as
written, untraced with ``--workers 1`` (when it asks for more), and
traced with ``--workers 1`` through ``perfbench/tracing.py``, and
reports the per-layer metrics.  Either way the last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` count CLI
invocations, and ``failed / attempted`` is the failed fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work" / str(os.getpid())
TRACES = HERE / ".traces"  # span files of the last traced run of each workload
# a run must exit within 180 s; invocations still running at this point are killed
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 9
SETUP_CODE = "import time, latgen.cli; latgen.cli.build_parser(); print(repr(time.monotonic()))"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, stale reference)."""


# ---------------------------------------------------------------------------
# workload arithmetic
# ---------------------------------------------------------------------------


def flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def n_values(text: str) -> list[int]:
    lo, hi = text.split("..")
    return list(range(int(lo), int(hi) + 1))


def m_for(policy: str, n: int) -> int:
    if not policy.startswith("n+"):
        raise BenchError(f"unsupported --m policy {policy!r}")
    return n + int(policy[2:])


def matrices(argv: list[str]) -> int:
    """Matrices an invocation decides: reps x samples over n for
    ``unimodular``, one rank decision per trial for ``fullrank-check``."""
    f = flags(argv)
    if argv[0] == "unimodular":
        return int(f["--reps"]) * int(f["--samples"]) * len(n_values(f["--n"]))
    if argv[0] == "fullrank-check":
        return int(f["--trials"])
    return 0


def points(argv: list[str]) -> int:
    f = flags(argv)
    per_n = int(f["--reps"]) * int(f["--samples"])
    return sum(per_n * m_for(f["--m"], n) for n in n_values(f["--n"]))


def workers(argv: list[str]) -> int:
    return int(flags(argv).get("--workers", "1"))


def with_one_worker(argv: list[str]) -> list[str]:
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


# ---------------------------------------------------------------------------
# running one CLI invocation
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    """One finished ``latgen`` process: timings, rusage and output."""

    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    code: int
    output: bytes
    stderr: str
    summary: Optional[dict] = None
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], stdout, stderr, deadline: float):
    """Run cmd in its own process group and wait for it.

    Returns (wall seconds, exit code, rusage).  The rusage comes from
    wait4 on the child, so it covers the child and every pool worker it
    reaped; at the deadline the whole group is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr, start_new_session=True
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_cli(argv: list[str], tag: str, deadline: float, traced: bool = False) -> Invocation:
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    full = [*argv, "--out", str(out_path)]
    if traced:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(WORK / tag), "--", *full]
    else:
        cmd = [sys.executable, "-m", "latgen.cli", *full]
    with open(err_path, "wb") as err:
        wall, code, usage = spawn(cmd, subprocess.DEVNULL, err, deadline)
    output = out_path.read_bytes() if out_path.exists() else b""
    summary = None
    if traced and code >= 0:
        summary_path = WORK / f"{tag}.summary.json"
        if summary_path.exists():
            summary = json.loads(summary_path.read_text())
            wall -= summary["post_s"]
    inv = Invocation(
        argv,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code,
        output,
        err_path.read_text(errors="replace")[-2000:],
        summary,
    )
    if code < 0:
        inv.problems.append(f"killed by signal {-code} (run limit {RUN_LIMIT_S:.0f} s)")
    elif code != 0:
        inv.problems.append(f"exit code {code}")
    if traced and summary is None:
        inv.problems.append("traced run wrote no summary")
    return inv


def measure_setup(deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until latgen.cli is
    imported and build_parser() has returned (CLOCK_MONOTONIC is shared
    by all processes)."""
    path = WORK / "setup.out"
    start = time.monotonic()
    with open(path, "wb") as out:
        _, code, _ = spawn([sys.executable, "-c", SETUP_CODE], out, subprocess.DEVNULL, deadline)
    if code != 0:
        raise BenchError(f"importing latgen.cli failed with exit code {code}")
    return float(path.read_text()) - start


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check(inv: Invocation, ref: dict, notes: set[str]) -> None:
    """Append to inv.problems every way its output differs from the reference."""
    if inv.code != 0:
        return
    if inv.argv[0] != "unimodular":
        digest = hashlib.sha256(inv.output).hexdigest()
        if digest != ref["sha256"]:
            inv.problems.append(
                f"output differs from the reference ({len(inv.output)} bytes, sha256 {digest[:12]})"
            )
        return
    from latgen.experiments import parse_reports_csv, reports_to_csv

    text = inv.output.decode()
    try:
        reports = parse_reports_csv(text)
    except (ValueError, KeyError) as exc:
        inv.problems.append(f"unimodular CSV does not parse: {exc}")
        return
    if reports_to_csv(reports) != text:
        inv.problems.append("unimodular CSV does not round-trip through parse_reports_csv")
    for report in reports:
        expected = ref["successes"].get(str(report.n))
        if report.rng.get("algorithm") != ref["rng_algorithm"]:
            notes.add(
                f"rng.algorithm {report.rng.get('algorithm')!r} differs from the reference's "
                f"{ref['rng_algorithm']!r}: per-shard counts not compared, exit code only"
            )
        elif expected is None or list(report.successes) != expected:
            inv.problems.append(f"n={report.n}: per-shard successes differ from the reference")


def check_trace_counts(traced: Invocation, untraced: Invocation) -> None:
    """The traced counts must agree exactly with the untraced output."""
    if traced.summary is None or traced.argv[0] != "unimodular" or untraced.code != 0:
        return
    from latgen.experiments import parse_reports_csv

    layer = traced.summary["metrics"]
    try:
        successes = sum(sum(r.successes) for r in parse_reports_csv(untraced.output.decode()))
    except (ValueError, KeyError):
        return  # already reported by check()
    decide, take = "latgen.exactmat.unimodular_columns", "latgen.sampling.RejectionSampler.take"
    expected = {
        "exactmat.decisions": (decide, matrices(traced.argv)),
        "exactmat.successes": (decide, successes),
        "sampling.points": (take, points(traced.argv)),
    }
    for key, (entry_point, want) in expected.items():
        if entry_point not in traced.summary["absent"] and layer[key] != want:
            traced.problems.append(f"trace count {key} = {layer[key]}, untraced output gives {want}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _proc_field(path: str, key: str):
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args, invocations) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [[sys.executable, "-m", "latgen.cli", *argv] for argv in invocations],
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def end_to_end_run(refs, rng, started, seconds, deadline, notes):
    """Run the workload's invocations, each in a fresh process, until
    ``seconds`` have passed; return the end-to-end metrics and every
    invocation.

    Every invocation runs once, in an order shuffled by the seed; then
    passes, longest invocation first, go on while the next invocation is
    expected to finish inside the run, and the last pass fills the rest of
    the run with the invocations that still fit.  Each metric is taken
    from the per-invocation medians, so a burst of host noise moves one
    sample of one invocation, not the whole figure.  The
    ``SETUP_SAMPLES`` set-up samples precede the first invocations.
    """
    samples: dict[int, list[Invocation]] = {i: [] for i in range(len(refs))}
    setup: list[float] = []
    runs: list[Invocation] = []
    n_pass = 0
    order = rng.sample(range(len(refs)), len(refs))
    while True:
        ran = 0
        for i in order:
            if samples[i]:
                expected = statistics.median(inv.wall for inv in samples[i])
                if time.monotonic() - started + expected > seconds:
                    continue
            if len(setup) < SETUP_SAMPLES:
                setup.append(measure_setup(deadline))
            inv = run_cli(refs[i]["argv"], f"p{n_pass}-i{i}", deadline)
            check(inv, refs[i], notes)
            samples[i].append(inv)
            runs.append(inv)
            ran += 1
            if inv.code < 0:  # killed at the run limit: nothing more fits
                ran = 0
                break
        n_pass += 1
        if not ran:
            break
        # longest first from now on, so that the last pass fills with short ones
        order.sort(key=lambda i: -statistics.median(inv.wall for inv in samples[i]))
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(deadline))

    def median_of(i, key):
        return statistics.median(getattr(inv, key) for inv in samples[i])

    wall = sum(median_of(i, "wall") for i in samples)
    values = {
        "wall_s": wall,
        "matrices_per_s": sum(matrices(refs[i]["argv"]) for i in samples) / wall,
        "cpu_s": sum(median_of(i, "cpu") for i in samples),
        "peak_rss_mb": max(median_of(i, "rss_mb") for i in samples),
        "setup_s": statistics.median(setup),
    }
    for i, done in samples.items():
        notes.add(f"{' '.join(refs[i]['argv'])}: wall s of {len(done)} runs: "
                  + ", ".join(f"{inv.wall:.3f}" for inv in done))
    notes.add(f"setup s of {len(setup)} samples: " + ", ".join(f"{v:.4f}" for v in setup))
    return values, runs


def traced_pass(order, refs, deadline, notes, n_pass) -> tuple[dict, list[Invocation], list]:
    from latgen.experiments import parse_reports_csv

    runs, slowest = [], []
    sums: dict[str, float] = {}
    shard_times: list[float] = []
    cpu = worker_wall = baseline_wall = traced_wall = parse_s = 0.0
    csv_bytes = 0
    for i in order:
        argv = refs[i]["argv"]
        plain = run_cli(argv, f"t{n_pass}-i{i}-plain", deadline)
        baseline = plain
        if workers(argv) != 1:
            baseline = run_cli(with_one_worker(argv), f"t{n_pass}-i{i}-w1", deadline)
        traced = run_cli(with_one_worker(argv), f"t{n_pass}-i{i}-traced", deadline, traced=True)
        for inv in {id(x): x for x in (plain, baseline, traced)}.values():
            check(inv, refs[i], notes)
            runs.append(inv)
        check_trace_counts(traced, plain)
        cpu += plain.cpu
        worker_wall += workers(argv) * plain.wall
        baseline_wall += baseline.wall
        traced_wall += traced.wall
        if traced.summary is None:
            continue
        notes.update(f"not traced, absent from latgen: {path}" for path in traced.summary["absent"])
        layer = dict(traced.summary["metrics"])
        shard_times += layer.pop("shard_times")
        for key, value in layer.items():
            sums[key] = sums.get(key, 0) + value
        if traced.summary["slowest_shard"]:
            slowest.append(traced.summary["slowest_shard"])
        csv_bytes += len(traced.output)
        if argv[0] == "unimodular" and traced.code == 0:
            start = time.perf_counter()
            parse_reports_csv(traced.output.decode())
            parse_s += time.perf_counter() - start
    values = dict(sums)
    candidates = sums.get("sampling.candidates", 0)
    decisions = sums.get("exactmat.decisions", 0)
    values["sampling.acceptance"] = sums.get("sampling.points", 0) / candidates if candidates else 0.0
    values["sampling.us_per_candidate"] = 1e6 * sums.get("sampling.take_s", 0) / candidates if candidates else 0.0
    values["exactmat.us_per_decision"] = 1e6 * sums.get("exactmat.decide_s", 0) / decisions if decisions else 0.0
    values["exactmat.unimodular_frac"] = sums.get("exactmat.successes", 0) / decisions if decisions else 0.0
    values["experiments.shard_count"] = len(shard_times)
    values["experiments.shard_s_p50"] = statistics.median(shard_times) if shard_times else 0.0
    values["experiments.shard_s_max"] = max(shard_times, default=0.0)
    values["experiments.pool_efficiency"] = cpu / worker_wall if worker_wall else 0.0
    values["experiments.csv_parse_s"] = parse_s
    values["experiments.csv_bytes"] = csv_bytes
    values["cli.trace_overhead_s"] = traced_wall - baseline_wall
    return values, runs, slowest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running CLI process group is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (SRC / "latgen" / "cli.py").is_file():
        raise BenchError(f"no latgen sources under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    reference = json.loads((HERE / "reference.json").read_text())["workloads"]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    invocations = workloads[args.workload]["invocations"]
    refs = reference.get(args.workload, [])
    if [r["argv"] for r in refs] != invocations:
        raise BenchError("reference.json does not match workloads.json; rerun make_reference.py")
    sys.path.insert(0, str(SRC))

    WORK.mkdir(parents=True)
    rng = random.Random(args.seed)
    notes: set[str] = set()
    slowest: list = []
    try:
        if args.trace:
            order = rng.sample(range(len(invocations)), len(invocations))
            values, runs, slowest = traced_pass(order, refs, deadline, notes, 0)
            kept = TRACES / args.workload
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir(parents=True)
            for path in WORK.glob("*.spans.json"):
                shutil.move(path, kept / path.name)
            notes.add(f"spans written to {kept.relative_to(ROOT)}")
        else:
            values, runs = end_to_end_run(refs, rng, started, args.seconds, deadline, notes)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    print("# provenance " + json.dumps(provenance(args, invocations), sort_keys=True))
    for entry in spec[group]:
        name = entry["name"]
        # a traced pass whose traced run failed has no layer figures
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"# {name} = {values[name]:.6g} {entry['unit']}")
    for seconds, shard, acceptance in slowest:
        where = "(id unknown)" if shard is None else "kind={} n={} shard={}".format(*shard)
        acc = "n/a" if acceptance is None else f"{acceptance:.3g}"
        print(f"# slowest shard {where}: {seconds:.3f} s traced, acceptance {acc}")
    failed = [inv for inv in runs if inv.problems]
    print(f"# failed_frac = {len(failed)}/{len(runs)} = {len(failed) / len(runs):.4g}")
    for note in sorted(notes):
        print(f"# note: {note}")
    for inv in failed:
        print(f"# FAILED {' '.join(inv.argv)}: {'; '.join(inv.problems)}", file=sys.stderr)
        print(inv.stderr, file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
