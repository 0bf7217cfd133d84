"""Monte Carlo harness and table generators behind the CLI.

Every experiment is sharded by parallelepiped; shard r of an experiment
of kind K at dimension n owns the two streams

    stream = (K << 48) | (n << 24) | (2 r + b)      b = 0: parallelepiped
                                                    b = 1: column samples

so results are bit-identical regardless of worker count or scheduling
(results are collected in task order).

Every result is one `Table`: a JSON header, the CSV columns and the
rows.  `Table.to_csv` writes the header as one '# {json}' line (sorted
keys: "format" names the kind, e.g. "latgen-coprime-v1", and "ok" the
verdict, beside the kind's own fields), then the column line, then one
line per row, each cell encoded by `_cell`: None as "", bools as 0/1,
Fractions as "p/q", floats by repr, anything else by str (the window
bounds B and B1 are stored as str(b), so they read "10", not "10/1").
`Table.from_csv` reads any latgen output back with string cells, and
writing that back gives the same bytes.  Each kind's rows are a
namedtuple whose fields are its columns.

The unimodular report ("latgen-reports-v2") records its `ExperimentConfig`
(the worker count is a run argument, not config) and its RNG provenance
once in the header, one row per shard with that shard's counts, and
per-dimension summaries (exact values as "p/q" strings).
An `ExperimentReport` is its config, n and per-shard counts, and derives
every summary from them.  `_reports` groups shard rows into reports both
when the experiment runs and when `parse_reports_csv` reads a report
back from its header config and shard rows, so writing the parsed
reports gives the same text only when the header's summaries agree with
the rows.  Frequencies are exact rationals end to end; only the
confidence radii are floats.

The reported uncertainty is the Wilson 95% radius on the pooled success
count together with a between-parallelepiped (cluster) radius; tolerance
checks use the larger of the two, since parallelepiped heterogeneity
makes the pooled binomial radius alone too optimistic.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import bounds
from .exactmat import det, unimodular_columns
from .groupgen import quotient_group
from .lattice import (
    LatticeBasis,
    count_in_hyperplane,
    covering_radius_estimate,
    enumerate_window,
    lemma1_bounds,
    lemma2_count_bound,
)
from .sampling import (
    COSET_ALGORITHM_ID,
    RngStream,
    SamplerError,
    WindowSampler,
    random_parallelepiped,
)

_WILSON_Z = 1.959963984540054

KIND_UNIMODULAR = 1
KIND_FULLRANK = 2

STREAM_LAYOUT = "stream = kind<<48 | n<<24 | 2*shard + (0: parallelepiped, 1: columns)"


def stream_id(kind: int, n: int, shard: int, sub: int) -> int:
    return (kind << 48) | (n << 24) | (shard << 1) | sub


def wilson_radius(successes: int, trials: int) -> float:
    """Half-width of the Wilson 95% interval for a binomial proportion."""
    if trials < 1:
        return 0.0
    p = successes / trials
    z = _WILSON_Z
    z2 = z * z
    return (
        z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / (1 + z2 / trials)
    )


def cluster_radius(frequencies: Sequence[Fraction]) -> float:
    """Normal 95% radius for the mean of per-parallelepiped frequencies."""
    r = len(frequencies)
    if r < 2:
        return 0.0
    mean = sum(frequencies) / r
    var = sum((f - mean) ** 2 for f in frequencies)
    return _WILSON_Z * math.sqrt(float(var) / (r * (r - 1)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """The recorded experiment: these six fields are the report header's
    config, so a header's config reruns the run.  Each field's type and
    value are checked here, however the config is built."""

    n_values: tuple[int, ...] = (1, 2, 3, 4)
    m_policy: str = "n+1"
    C: int = 10**4
    reps: int = 100
    samples: int = 10**4
    seed: int = 0

    def __post_init__(self):
        for key, value in vars(self).items():
            if key == "n_values":
                ok = isinstance(value, (list, tuple)) and all(map(_is_int, value))
            else:
                ok = isinstance(value, str) if key == "m_policy" else _is_int(value)
            if not ok:
                raise ValueError(f"config {key} has the wrong type: {value!r}")
        # a JSON list would compare unequal to the same dimensions as a tuple
        object.__setattr__(self, "n_values", tuple(self.n_values))
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n values must be >= 1")
        # 2 * shard + b and n each fill 24 bits of a stream id
        if self.reps > 1 << 23 or max(self.n_values) >= 1 << 24:
            raise ValueError(
                "need reps <= 2^23 and n < 2^24, or shards share random streams "
                f"({STREAM_LAYOUT})"
            )
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError(f"n values must be distinct: {list(self.n_values)}")
        if self.C < 1 or self.reps < 1 or self.samples < 1:
            raise ValueError("all counts must be >= 1")
        for n in self.n_values:  # refuse a bad policy before any work
            self.m_for(n)

    def m_for(self, n: int) -> int:
        policy = self.m_policy.strip()
        if policy == "n":
            return n
        offset = policy.startswith("n+")
        digits = policy[2:] if offset else policy.removeprefix("-")
        # ASCII digits only: int() also takes "+", "_", spaces and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"m policy {self.m_policy!r} is not n, n+K or an integer")
        m = n + int(digits) if offset else int(policy)
        if m < 1:
            raise ValueError(f"m policy {self.m_policy!r} gives m < 1")
        return m

    def to_json_dict(self) -> dict:
        return dict(asdict(self), n_values=list(self.n_values))

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# unimodular experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """The unimodular experiment at one dimension: the run's config, n and
    the per-shard success and resample counts in shard order.  Every other
    attribute is derived from these four at construction: m, frequencies,
    average, minimum, maximum, wilson_radius, cluster_radius, ideal_lo and
    ideal_hi (None when m < n) and the RNG provenance rng."""

    config: ExperimentConfig
    n: int
    successes: tuple[int, ...]
    resamples: tuple[int, ...]

    def __post_init__(self):
        samples = self.config.samples
        if not all(0 <= s <= samples for s in self.successes):
            raise ValueError(f"n={self.n}: shard successes must lie in [0, {samples}]")
        self.m = self.config.m_for(self.n)
        self.frequencies = tuple(Fraction(s, samples) for s in self.successes)
        total, trials = sum(self.successes), len(self.successes) * samples
        self.average = Fraction(total, trials)
        self.minimum, self.maximum = min(self.frequencies), max(self.frequencies)
        self.wilson_radius = wilson_radius(total, trials)
        self.cluster_radius = cluster_radius(self.frequencies)
        self.ideal_lo = self.ideal_hi = None
        if self.m >= self.n:
            ideal = bounds.ideal_probability(self.n, self.m)
            self.ideal_lo, self.ideal_hi = ideal.lo, ideal.hi
        self.rng = {
            "algorithm": COSET_ALGORITHM_ID,
            "seed": self.config.seed,
            "stream_layout": STREAM_LAYOUT,
            "kind_id": KIND_UNIMODULAR,
        }

    @property
    def radius(self) -> float:
        return max(self.wilson_radius, self.cluster_radius)

    def within_tolerance(self) -> Optional[bool]:
        """Average within 3 radii of the ideal value (None when no ideal
        column applies)."""
        if self.ideal_lo is None:
            return None
        mid = (self.ideal_lo + self.ideal_hi) / 2
        return abs(float(self.average - mid)) <= 3 * self.radius


def _reports(cfg: ExperimentConfig, rows) -> list[ExperimentReport]:
    """One report per n of the config, in config order, from the run's
    (n, shard, successes, resamples) rows in any order; refused unless the
    rows of each listed n are its shards 0..reps-1."""
    per_n: dict[int, list[tuple[int, int, int]]] = {n: [] for n in cfg.n_values}
    for n, shard, successes, resamples in rows:
        if n not in per_n:
            raise ValueError(f"shard row for n={n}, which the config does not list")
        per_n[n].append((shard, successes, resamples))
    reports = []
    for n, shards in per_n.items():
        shards.sort()
        if [shard for shard, _, _ in shards] != list(range(cfg.reps)):
            raise ValueError(f"n={n}: the shard rows are not shards 0..{cfg.reps - 1}")
        _, successes, resamples = zip(*shards)
        reports.append(ExperimentReport(cfg, n, successes, resamples))
    return reports


# most points a shard takes and decides at once (at least one matrix):
# it bounds the shard's memory, and the stream does not depend on it
_CHUNK_POINTS = 1 << 16


def _unimodular_shard(task) -> tuple[int, int, int]:
    seed, n, m, c, samples, shard = task
    pe_rng = RngStream(seed, stream_id(KIND_UNIMODULAR, n, shard, 0))
    parallelepiped = random_parallelepiped(n, c, pe_rng)
    rng = RngStream(seed, stream_id(KIND_UNIMODULAR, n, shard, 1))
    chunk = max(1, _CHUNK_POINTS // m)
    successes = 0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        try:
            points = parallelepiped.take(rng, count * m)
        except SamplerError as exc:
            raise SamplerError(
                f"shard {shard} (n={n}, generators {parallelepiped.generators}): {exc}"
            ) from exc
        successes += sum(unimodular_columns(points[k * m:(k + 1) * m], n) for k in range(count))
    return shard, successes, parallelepiped.resamples


def _run_shards(tasks, workers: int) -> list:
    """Shard results in task order; workers take the tasks in that order.

    The parent imports numpy before the pool forks, so the workers share
    its pages instead of each importing it again."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        import numpy  # noqa: F401

        with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
            return list(pool.imap(_unimodular_shard, tasks, chunksize=1))
    return [_unimodular_shard(t) for t in tasks]


def run_unimodular_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ExperimentReport]:
    """The random-parallelepiped unimodularity experiment.

    For each dimension n: draw `reps` parallelepipeds from [-C, C]^n, for
    each draw `samples` integer n x m matrices with columns uniform in
    the parallelepiped, and record the fraction that generate Z^n.  All
    shards of all n share one pool of `workers` processes (at least 1),
    largest n (the slowest shards) first; the reports do not depend on
    the worker count.
    """
    tasks = [
        (cfg.seed, n, cfg.m_for(n), cfg.C, cfg.samples, shard)
        for n in sorted(cfg.n_values, reverse=True)
        for shard in range(cfg.reps)
    ]
    results = _run_shards(tasks, workers)
    return _reports(cfg, [(task[1], *result) for task, result in zip(tasks, results)])


# ---------------------------------------------------------------------------
# the report table
# ---------------------------------------------------------------------------


def _frac_str(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Table:
    """One latgen result: a JSON-ready header, the CSV column names and
    the rows (tuples in column order)."""

    header: dict
    columns: tuple[str, ...]
    rows: list

    @property
    def ok(self) -> Optional[bool]:
        """The header's verdict: whether every check passed (None if absent)."""
        return self.header.get("ok")

    def to_csv(self) -> str:
        lines = ["# " + json.dumps(self.header, sort_keys=True), ",".join(self.columns)]
        lines.extend(",".join(map(_cell, row)) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Table":
        """Read any latgen output back; every cell stays a string."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].startswith("# "):
            raise ValueError("missing JSON header line")
        if len(lines) < 2:
            raise ValueError("missing column line")
        header = json.loads(lines[0][2:])
        if not isinstance(header, dict):
            raise ValueError("the header line does not hold a JSON object")
        row_type = namedtuple("Row", lines[1].split(","))
        rows = []
        for line in lines[2:]:
            cells = line.split(",")
            if len(cells) != len(row_type._fields):
                raise ValueError(f"row {line!r} does not match columns {lines[1]!r}")
            rows.append(row_type(*cells))
        return cls(header, row_type._fields, rows)


REPORTS_FORMAT = "latgen-reports-v2"

ShardRow = namedtuple("ShardRow", "n m shard successes frequency resamples")


def reports_table(reports: Sequence[ExperimentReport]) -> Table:
    """The unimodular report: the config, RNG provenance and verdict once
    in the header beside per-dimension summaries, one row per shard; ok
    unless some report is out of tolerance."""
    header = {
        "format": REPORTS_FORMAT,
        "config": reports[0].config.to_json_dict(),
        "rng": reports[0].rng,
        "ok": all(r.within_tolerance() is not False for r in reports),
        "summaries": [
            {
                "n": r.n,
                "m": r.m,
                "average": _frac_str(r.average),
                "minimum": _frac_str(r.minimum),
                "maximum": _frac_str(r.maximum),
                "wilson_radius": repr(r.wilson_radius),
                "cluster_radius": repr(r.cluster_radius),
                "ideal_lo": _frac_str(r.ideal_lo),
                "ideal_hi": _frac_str(r.ideal_hi),
            }
            for r in reports
        ],
    }
    rows = [
        ShardRow(r.n, r.m, shard, *shard_data)
        for r in reports
        for shard, shard_data in enumerate(zip(r.successes, r.frequencies, r.resamples))
    ]
    return Table(header, ShardRow._fields, rows)


def reports_to_csv(reports: Sequence[ExperimentReport]) -> str:
    return reports_table(reports).to_csv()


def parse_reports_csv(text: str) -> list[ExperimentReport]:
    """The reports of a unimodular output, built by `_reports` from the
    header's config and the shard rows, as the run builds them; the
    header's summaries and the rows' m and frequency cells are not read,
    so writing the reports back gives the same text only when they agree
    with the counts."""
    table = Table.from_csv(text)
    if table.header.get("format") != REPORTS_FORMAT:
        raise ValueError("unknown report format")
    if table.columns != ShardRow._fields:
        raise ValueError(f"the column line is not {','.join(ShardRow._fields)}")
    config = table.header.get("config")
    if not isinstance(config, dict):
        raise ValueError("the header holds no config object")
    rows = [(int(r.n), int(r.shard), int(r.successes), int(r.resamples)) for r in table.rows]
    return _reports(ExperimentConfig.from_json_dict(config), rows)


# ---------------------------------------------------------------------------
# coprimality and bounds tables
# ---------------------------------------------------------------------------

CoprimeRow = namedtuple("CoprimeRow", "n ratio ratio_float is_minimum")


def run_coprime_table(n_max: int) -> Table:
    """Exact coprimality ratios for n = 1..n_max.

    The verified facts: every ratio is at least 13/22, with equality
    exactly at n = 10 (the check requires n_max >= 10 to see it).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    phi = bounds.totients(n_max)
    ratios = []
    acc = 0
    for n in range(1, n_max + 1):
        acc += phi[n]
        ratios.append(Fraction(2 * acc + 1, n * (n + 1)))
    minimum = min(ratios)
    argmin = [n for n, r in enumerate(ratios, start=1) if r == minimum]
    floor = Fraction(13, 22)
    ok = all(r >= floor for r in ratios)
    if n_max >= 10:
        ok = ok and minimum == floor and argmin == [10]
    header = {
        "format": "latgen-coprime-v1",
        "n_max": n_max,
        "minimum": _frac_str(minimum),
        "argmin": argmin,
        "ok": ok,
    }
    rows = [CoprimeRow(n, r, float(r), n in argmin) for n, r in enumerate(ratios, start=1)]
    return Table(header, CoprimeRow._fields, rows)


BoundsRow = namedtuple(
    "BoundsRow", "n fullrank_lower alpha_lo alpha_hi ideal_lo ideal_hi b_min b1_min"
)


def run_bounds_table(n_max: int) -> Table:
    """Closed-form table: full-rank lower bound, alpha enclosure, ideal
    probability and window thresholds (unit covering radius) per n; ok
    when every certified alpha is at least 0.092.  Every value comes from
    the one certified grid of `bounds`, which the header records as
    ``precision``."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        alpha_lo = alpha_hi = b_min = b1_min = None
        if n >= 2:
            alpha = bounds.alpha(n)
            ok = ok and alpha.lo >= Fraction(92, 1000)
            alpha_lo, alpha_hi = float(alpha.lo), float(alpha.hi)
            b_min, b1_min = bounds.window_thresholds(n, 1)
        ideal = bounds.ideal_probability(n, n + 1)
        rows.append(
            BoundsRow(
                n, float(bounds.fullrank_lower_bound(n).lo), alpha_lo, alpha_hi,
                float(ideal.lo), float(ideal.hi), b_min, b1_min,
            )
        )
    header = {"format": "latgen-bounds-v1", "precision": bounds.PRECISION, "ok": ok}
    return Table(header, BoundsRow._fields, rows)


# ---------------------------------------------------------------------------
# counting-bounds verification
# ---------------------------------------------------------------------------


@dataclass
class LemmaInstance:
    name: str
    lattice: LatticeBasis
    bound: Fraction
    grid_resolution: int


LemmaRow = namedtuple("LemmaRow", "name n B count lower upper hyperplane_ok ok")


def default_lemma_instances() -> list[LemmaInstance]:
    """Twenty desk-scale lattices (n <= 3) with matched windows."""

    def lb(*cols):
        return LatticeBasis(list(cols))

    instances = [
        ("Z1", lb([1]), Fraction(10), 64),
        ("2Z1", lb([2]), Fraction(17), 64),
        ("half_Z1", lb([Fraction(1, 2)]), Fraction(6), 64),
        ("5half_Z1", lb([Fraction(5, 2)]), Fraction(21), 64),
        ("Z2", lb([1, 0], [0, 1]), Fraction(10), 40),
        ("diag12", lb([1, 0], [0, 2]), Fraction(12), 40),
        ("diag23", lb([2, 0], [0, 3]), Fraction(14), 32),
        ("skew2a", lb([1, 0], [1, 1]), Fraction(9), 40),
        ("skew2b", lb([2, 0], [1, 3]), Fraction(16), 32),
        ("skew2c", lb([1, 1], [-1, 2]), Fraction(12), 40),
        ("rect_half", lb([Fraction(1, 2), 0], [0, 3]), Fraction(11), 40),
        ("col_mix", lb([3, 1], [1, 2]), Fraction(15), 32),
        ("Z3", lb([1, 0, 0], [0, 1, 0], [0, 0, 1]), Fraction(7), 12),
        ("diag112", lb([1, 0, 0], [0, 1, 0], [0, 0, 2]), Fraction(8), 12),
        ("diag122", lb([1, 0, 0], [0, 2, 0], [0, 0, 2]), Fraction(9), 12),
        ("diag123", lb([1, 0, 0], [0, 2, 0], [0, 0, 3]), Fraction(11), 12),
        ("skew3a", lb([1, 0, 0], [1, 1, 0], [0, 1, 1]), Fraction(7), 12),
        ("skew3b", lb([1, 0, 0], [0, 1, 0], [1, 1, 2]), Fraction(9), 12),
        ("2Z3", lb([2, 0, 0], [0, 2, 0], [0, 0, 2]), Fraction(13), 12),
        ("skew3c", lb([2, 0, 0], [1, 2, 0], [1, 1, 2]), Fraction(12), 12),
    ]
    return [LemmaInstance(*inst) for inst in instances]


def run_lemma_verification(
    instances: Optional[Sequence[LemmaInstance]] = None,
) -> Table:
    """Check both counting inequalities on every instance.

    The two-sided window count bracket uses the grid under-estimate on
    the lower side and the closed-form upper bound on the upper side; the
    hyperplane bound is checked for the span of every proper subset of
    basis vectors.
    """
    rows = []
    for inst in instances or default_lemma_instances():
        lattice, bound = inst.lattice, inst.bound
        n = lattice.dim
        nu_est = covering_radius_estimate(lattice, inst.grid_resolution)
        points = enumerate_window(lattice, bound)
        count = len(points)
        lower, upper = lemma1_bounds(lattice, bound, nu_est)
        hyperplane_ok = True
        for k in range(1, n):
            h_bound = lemma2_count_bound(lattice, bound, k)
            for support in itertools.combinations(range(n), k):
                h_count = count_in_hyperplane(lattice, support, points)
                hyperplane_ok = hyperplane_ok and h_count <= h_bound
        ok = lower <= count <= upper and hyperplane_ok
        rows.append(
            LemmaRow(
                inst.name, n, str(bound), count, float(lower), float(upper),
                hyperplane_ok, ok,
            )
        )
    header = {"format": "latgen-lemma-v1", "ok": all(row.ok for row in rows)}
    return Table(header, LemmaRow._fields, rows)


# ---------------------------------------------------------------------------
# total-variation checks
# ---------------------------------------------------------------------------

TvRow = namedtuple("TvRow", "name n B1 group_order tv_exact tv_bound ok")


def run_tv_check(
    lattice: LatticeBasis,
    sub: Sequence[Sequence],
    b1: Union[int, Fraction],
    name: str = "tv",
) -> TvRow:
    """Exact total variation between uniform cosets and the projected
    window distribution, checked against the closed-form bound.

    ``sub`` holds n vectors of the lattice spanning a full-rank
    sublattice; anything else raises ValueError."""
    n = lattice.dim
    b1 = Fraction(b1)
    if len(sub) != n:
        raise ValueError(f"need exactly {n} sublattice generators")
    group, projection = quotient_group([lattice.coordinates(v) for v in sub])
    bound = bounds.tv_bound(n, b1, LatticeBasis(sub).nu_upper, lattice.nu_upper)
    points = enumerate_window(lattice, b1)
    counts: dict[tuple, int] = {}
    for point in points:
        coset = projection(point)
        counts[coset] = counts.get(coset, 0) + 1
    total = len(points)
    order = group.order
    uniform = Fraction(1, order)
    tv = Fraction(0)
    for element in group.elements():
        share = Fraction(counts.get(element, 0), total)
        tv += abs(share - uniform)
    tv /= 2
    return TvRow(name, n, str(b1), order, tv, bound, tv <= bound)


def default_tv_instances() -> list[tuple[str, LatticeBasis, list, Fraction]]:
    def lb(*cols):
        return LatticeBasis(list(cols))

    z1 = lb([1])
    z2 = lb([1, 0], [0, 1])
    return [
        ("z1_mod2_101", z1, [[2]], Fraction(101)),
        ("z1_mod2_50", z1, [[2]], Fraction(50)),
        ("z1_mod3_91", z1, [[3]], Fraction(91)),
        ("z1_half_mod3", lb([Fraction(1, 2)]), [[Fraction(3, 2)]], Fraction(30)),
        ("z2_trivial", z2, [[1, 0], [0, 1]], Fraction(10)),
        ("z2_mod2x3", z2, [[2, 0], [0, 3]], Fraction(60)),
        ("z2_mod2x2", z2, [[2, 0], [0, 2]], Fraction(41)),
        ("z2_parity", z2, [[1, 1], [0, 2]], Fraction(33)),
        ("2z2_mod2", lb([2, 0], [0, 2]), [[4, 0], [0, 4]], Fraction(81)),
        ("skew_mod2", lb([1, 0], [1, 1]), [[2, 0], [2, 2]], Fraction(44)),
        ("z2_mod3x3", z2, [[3, 0], [0, 3]], Fraction(63)),
    ]


def run_tv_suite(instances: Optional[Sequence[tuple]] = None) -> Table:
    """`run_tv_check` on each (name, lattice, sub, B1) instance, by
    default `default_tv_instances`."""
    rows = [
        run_tv_check(lattice, sub, b1, name=name)
        for name, lattice, sub, b1 in instances or default_tv_instances()
    ]
    header = {"format": "latgen-tv-v1", "ok": all(row.ok for row in rows)}
    return Table(header, TvRow._fields, rows)


# ---------------------------------------------------------------------------
# full-rank frequency check
# ---------------------------------------------------------------------------

FullrankRow = namedtuple(
    "FullrankRow", "name n B hypothesis_held trials successes frequency radius ok"
)


def run_fullrank_check(
    lattice: LatticeBasis,
    window_bound: Optional[Union[int, Fraction]],
    trials: int,
    seed: int = 0,
    allow_out_of_hypothesis: bool = False,
    name: str = "fullrank",
) -> Table:
    """Frequency with which n uniform window points span full rank.

    The paper's full-rank lemma holds for windows B >= 8 n^(n/2) nu with
    nu at least the covering radius; here nu is the lattice's certified
    ``nu_upper``.  That threshold exists only for n >= 2, and
    ``window_bound`` None takes the window at it.  A window below it, or
    any window of an n = 1 lattice, is refused unless
    ``allow_out_of_hypothesis`` is set: the row then records
    hypothesis_held=False and asserts nothing.  Inside the hypothesis,
    the check is frequency >= 1/2 - 3 Wilson radii.  With zero trials the
    frequency is empty and nothing is asserted.
    """
    n = lattice.dim
    threshold = None
    # window_thresholds refuses n = 1, the error only when the window is
    # the threshold
    if window_bound is None or n >= 2:
        threshold = bounds.window_thresholds(n, lattice.nu_upper)[0]
    if trials < 0:
        raise ValueError("trials must be >= 0")
    b = Fraction(threshold if window_bound is None else window_bound)
    rng = RngStream(seed, stream_id(KIND_FULLRANK, n, 0, 1))
    # refuses B <= 0 whatever the trial count
    sampler = WindowSampler(lattice, b, rng)
    hypothesis_held = threshold is not None and b >= threshold
    if not hypothesis_held and not allow_out_of_hypothesis:
        below = (
            f"window bound {b} has no threshold: window thresholds are defined for n >= 2"
            if threshold is None
            else f"window bound {b} below threshold {threshold}"
        )
        raise ValueError(f"{below}; pass --allow-out-of-hypothesis to report anyway")
    successes = 0
    for _ in range(trials):
        # B is nonsingular, so the points span R^n iff their coordinates do
        if det(sampler.take(n)) != 0:
            successes += 1
    freq = Fraction(successes, trials) if trials else None
    radius = wilson_radius(successes, trials)
    ok = freq is None or not hypothesis_held or float(freq) >= 0.5 - 3 * radius
    row = FullrankRow(name, n, str(b), hypothesis_held, trials, successes, freq, radius, ok)
    header = {
        "format": "latgen-fullrank-v1",
        "ok": ok,
        "rng": rng.provenance(),
        "threshold": _frac_str(threshold),
    }
    return Table(header, FullrankRow._fields, [row])
