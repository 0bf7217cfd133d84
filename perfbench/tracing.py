"""Layer tracing for the latgen benchmark, installed from outside ``src/``.

Run as a script, it executes one latgen command in this process with
timing wrappers around each layer's public entry points, then writes the
recorded spans and their per-layer sums to two JSON files:

    python perfbench/tracing.py OUT_PREFIX -- unimodular --n 2 ... --out X

A wrapper replaces every binding of the original function in the latgen
modules (``experiments`` imports ``unimodular_columns`` by name, so the
wrapper goes on ``latgen.experiments.unimodular_columns`` as well as on
``latgen.exactmat``); methods are wrapped on their class.  Each span
records its name, start, end, parent span and a shard id decoded from
the sampler's ``RngStream.stream`` with the ``experiments.stream_id``
layout.  Spans stay in memory until the command returns.

Wrapping adds about a microsecond per call, which inflates the hot
leaves (``unimodular_columns`` takes 1-60 us), so traced figures are
never used for end-to-end numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_SHARD_BITS = 24


def decode_stream(stream: int) -> list[int]:
    """[kind, n, shard] of a stream id built by ``experiments.stream_id``."""
    low = stream & ((1 << _SHARD_BITS) - 1)
    return [stream >> 48, (stream >> _SHARD_BITS) & ((1 << _SHARD_BITS) - 1), low >> 1]


class Tracer:
    """In-memory span recorder: a span is [name, start, end, parent, shard, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []

    def wrap(self, name, fn, shard_of=None, pre=None, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            shard = shard_of(args, kwargs) if shard_of else None
            if parent >= 0:
                # a shard span learns its id from the first sampler call inside it
                if shard is None:
                    shard = spans[parent][4]
                elif spans[parent][4] is None:
                    spans[parent][4] = shard
            span = [name, 0.0, 0.0, parent, shard, None]
            stack.append(len(spans))
            spans.append(span)
            state = pre(args) if pre else None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                span[5] = post(args, result, state)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "absent": self.absent}


def _replace_everywhere(modules, original, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every latgen layer.

    An entry point missing from this version of latgen is listed in
    ``tracer.absent`` and its metrics read 0, so a refactor that renames
    one shows up in the output instead of breaking the traced run.
    """
    import latgen.cli  # noqa: F401  (imports every layer)

    modules = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "latgen"}
    counters = tracer.counters
    decode = decode_stream
    stream_id = getattr(modules["latgen.experiments"], "stream_id", None)
    if stream_id is None or decode_stream(stream_id(1, 5, 3, 1)) != [1, 5, 3]:
        tracer.absent.append("latgen.experiments.stream_id layout (shard ids not decoded)")
        decode = lambda stream: None  # noqa: E731

    def wrap(path, name, adapt=None, **hooks):
        """Wrap module function or class method ``path`` as span ``name``."""
        parts = path.split(".")
        owner = modules.get(".".join(parts[:2]))
        for part in parts[2:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None)
        if original is None:
            tracer.absent.append(path)
            return
        wrapper = tracer.wrap(name, adapt(original) if adapt else original, **hooks)
        if len(parts) > 3:
            setattr(owner, parts[-1], wrapper)
        else:
            _replace_everywhere(modules.values(), original, wrapper)

    # sampling
    wrap(
        "latgen.sampling.RejectionSampler.take", "sampling.take",
        shard_of=lambda a, k: decode(a[0].rng.stream),
        pre=lambda a: a[0].candidates,
        post=lambda a, r, before: {"points": len(r), "candidates": a[0].candidates - before},
    )
    wrap(
        "latgen.sampling.random_parallelepiped", "sampling.parallelepiped",
        shard_of=lambda a, k: decode((a[2] if len(a) > 2 else k["rng"]).stream),
        post=lambda a, r, s: {"resamples": r.resamples},
    )
    wrap(
        "latgen.sampling.WindowSampler.take", "sampling.window_take",
        shard_of=lambda a, k: decode(a[0]._core.rng.stream),
    )

    # exactmat
    def count_decision(args, result, state):
        counters["decisions"] += 1
        counters["unimodular"] += bool(result)

    wrap("latgen.exactmat.unimodular_columns", "exactmat.decide", post=count_decision)
    wrap("latgen.exactmat.det", "exactmat.det")
    wrap("latgen.exactmat.RationalMatrix.det", "exactmat.det")
    wrap("latgen.exactmat.RationalMatrix.inverse", "exactmat.inverse")
    wrap("latgen.exactmat.rank_of_rows", "exactmat.rank")
    wrap("latgen.exactmat.snf_with_transforms", "exactmat.snf")

    # lattice
    wrap("latgen.lattice.covering_radius_estimate", "lattice.covering_radius")
    wrap(
        "latgen.lattice.enumerate_window", "lattice.enumerate_window",
        post=lambda a, r, s: {"points": len(r)},
    )
    wrap("latgen.lattice.count_in_hyperplane", "lattice.hyperplane")
    wrap("latgen.lattice.rank_of_span", "lattice.rank_of_span")

    # bounds (enclosure arithmetic runs inside these spans)
    for attr in (
        "ideal_probability", "alpha", "fullrank_lower_bound",
        "window_thresholds", "tv_bound", "totients", "ZetaContext.zeta", "ZetaContext.zeta_hat",
    ):
        wrap(f"latgen.bounds.{attr}", "bounds." + attr.split(".")[-1])

    # groupgen: count calls of the projection each quotient returns
    def counting_projections(quotient_group):
        @functools.wraps(quotient_group)
        def counted_quotient(*args, **kwargs):
            group, projection = quotient_group(*args, **kwargs)

            def counted(vector):
                counters["projections"] += 1
                return projection(vector)

            return group, counted

        return counted_quotient

    wrap("latgen.groupgen.quotient_group", "groupgen.quotient", adapt=counting_projections)

    # experiments
    for attr in (
        "run_unimodular_experiment", "run_coprime_table", "run_bounds_table",
        "run_lemma_verification", "run_tv_suite", "run_tv_check", "run_fullrank_check",
    ):
        wrap(f"latgen.experiments.{attr}", "experiments.run")
    wrap("latgen.experiments._run_shards", "experiments.pool")
    wrap("latgen.experiments._unimodular_shard", "experiments.shard")
    wrap("latgen.experiments.wilson_radius", "experiments.stats")
    wrap("latgen.experiments.cluster_radius", "experiments.stats")
    wrap("latgen.experiments.reports_to_csv", "experiments.csv_write")
    for cls in ("CoprimeTable", "BoundsTable", "LemmaReport", "TvReport", "FullrankReport"):
        wrap(f"latgen.experiments.{cls}.to_csv", "experiments.csv_write")

    # cli: one span per subcommand handler
    for command in (
        "unimodular", "coprime", "bounds_table", "lemma_verify", "tv_check", "fullrank_check",
    ):
        wrap(f"latgen.cli._cmd_{command}", f"cli.{command}")


# ---------------------------------------------------------------------------
# span file -> per-layer metrics
# ---------------------------------------------------------------------------


def _summaries(dump: dict):
    """Per span name: (calls, inclusive seconds, self seconds, extras)."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _shard, _extra in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    extra = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, _parent, _shard, more) in enumerate(spans):
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - child_time[i]
        for key, value in (more or {}).items():
            extra[name][key] += value
    return calls, busy, own, extra


def layer_metrics(dump: dict) -> dict:
    """Per-layer sums of one traced invocation, plus its shard durations
    under ``shard_times``; ratios and percentiles are taken per pass."""
    calls, busy, own, extra = _summaries(dump)
    counters = dump["counters"]
    bounds_names = [name for name in calls if name.startswith("bounds.")]
    experiments_own = ("experiments.run", "experiments.pool", "experiments.shard", "experiments.stats")
    out = {
        "sampling.take_s": busy["sampling.take"],
        "sampling.points": extra["sampling.take"]["points"],
        "sampling.candidates": extra["sampling.take"]["candidates"],
        "sampling.parallelepiped_s": busy["sampling.parallelepiped"],
        "sampling.resamples": extra["sampling.parallelepiped"]["resamples"],
        "sampling.window_take_s": busy["sampling.window_take"],
        "exactmat.decide_s": busy["exactmat.decide"],
        "exactmat.decisions": counters.get("decisions", 0),
        "exactmat.successes": counters.get("unimodular", 0),
        "exactmat.det_s": busy["exactmat.det"],
        "exactmat.inverse_s": busy["exactmat.inverse"],
        "exactmat.rank_s": busy["exactmat.rank"],
        "exactmat.snf_s": busy["exactmat.snf"],
        "lattice.covering_radius_s": busy["lattice.covering_radius"],
        "lattice.enumerate_window_s": busy["lattice.enumerate_window"],
        "lattice.window_points": extra["lattice.enumerate_window"]["points"],
        "lattice.hyperplane_s": busy["lattice.hyperplane"],
        "lattice.rank_of_span_s": busy["lattice.rank_of_span"],
        "bounds.busy_s": sum(own[name] for name in bounds_names),
        "bounds.calls": sum(calls[name] for name in bounds_names),
        "groupgen.quotient_s": busy["groupgen.quotient"],
        "groupgen.projections": counters.get("projections", 0),
        "experiments.self_s": sum(own[name] for name in experiments_own),
        "experiments.csv_write_s": busy["experiments.csv_write"],
    }
    for name in ("unimodular", "coprime", "bounds_table", "lemma_verify", "tv_check", "fullrank_check"):
        out[f"cli.{name}_s"] = busy[f"cli.{name}"]
    out["shard_times"] = [
        end - start for name, start, end, *_rest in dump["spans"] if name == "experiments.shard"
    ]
    return out


def slowest_shard(dump: dict):
    """[seconds, [kind, n, shard], acceptance] of the slowest shard, or None."""
    spans = dump["spans"]
    shards = [
        (end - start, i)
        for i, (name, start, end, *_rest) in enumerate(spans)
        if name == "experiments.shard"
    ]
    if not shards:
        return None
    seconds, index = max(shards)
    points = candidates = 0
    for name, _start, _end, parent, _shard, more in spans:
        if name == "sampling.take" and parent == index:
            points += more["points"]
            candidates += more["candidates"]
    return [seconds, spans[index][4], points / candidates if candidates else None]


def main(argv: list[str]) -> int:
    """Trace one latgen command; write PREFIX.spans.json and PREFIX.summary.json.

    ``post_s`` in the summary is the time spent after the command
    returned, so the caller can leave it out of the traced wall time.
    """
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py OUT_PREFIX -- LATGEN-ARGS...", file=sys.stderr)
        return 1
    prefix = argv[0]
    tracer = Tracer()
    install(tracer)
    import latgen.cli

    try:
        code = latgen.cli.main(argv[2:])
    finally:
        done = time.perf_counter()
        dump = tracer.dump()
        with open(prefix + ".spans.json", "w") as handle:
            json.dump(dump, handle)
        summary = {
            "metrics": layer_metrics(dump),
            "slowest_shard": slowest_shard(dump),
            "absent": dump["absent"],
            "post_s": time.perf_counter() - done,
        }
        with open(prefix + ".summary.json", "w") as handle:
            json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
