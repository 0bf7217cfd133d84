"""Record the outputs every benchmark invocation is checked against.

    python3 perfbench/make_reference.py

Runs each invocation of ``workloads.json`` once and writes
``reference.json``: the rng algorithm id and per-shard success counts of
every ``unimodular`` output, and the SHA-256 of every other output.
Run it only at a commit whose outputs are known good; a change that alters
an output on purpose bumps the rng algorithm id or states the change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from latgen.experiments import parse_reports_csv

    workloads = json.loads((run.HERE / "workloads.json").read_text())["workloads"]
    run.WORK.mkdir(parents=True)
    deadline = time.monotonic() + 3600
    out = {}
    try:
        for name, workload in workloads.items():
            entries = out[name] = []
            for i, argv in enumerate(workload["invocations"]):
                inv = run.run_cli(argv, f"ref-{name}-{i}", deadline)
                if inv.code != 0:
                    print(inv.stderr, file=sys.stderr)
                    raise SystemExit(f"{' '.join(argv)}: exit code {inv.code}")
                entry = {"argv": argv}
                if argv[0] == "unimodular":
                    reports = parse_reports_csv(inv.output.decode())
                    entry["rng_algorithm"] = reports[0].rng["algorithm"]
                    entry["successes"] = {str(r.n): list(r.successes) for r in reports}
                else:
                    entry["sha256"] = hashlib.sha256(inv.output).hexdigest()
                    entry["bytes"] = len(inv.output)
                entries.append(entry)
                print(f"{name}: {' '.join(argv)}  {inv.wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    document = {
        "git_commit": run.git_commit(),
        "src_sha256": run.source_digest(),
        "workloads": out,
    }
    (run.HERE / "reference.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
