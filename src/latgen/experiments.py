"""Monte Carlo harness and table generators behind the CLI.

Every experiment is sharded by parallelepiped; shard r of an experiment
of kind K at dimension n owns the two streams

    stream = (K << 48) | (n << 24) | (2 r + b)      b = 0: parallelepiped
                                                    b = 1: column samples

so results are bit-identical regardless of worker count or scheduling
(aggregation sorts by shard index).  Reports carry the full configuration
and RNG provenance needed to reproduce them.

Output format: one '# {json}' header line holding config, provenance and
per-report summaries (exact values as "p/q" strings), then ordinary CSV
rows.  Frequencies are exact rationals end to end; only the confidence
radii are floats.

The reported uncertainty is the Wilson 95% radius on the pooled success
count together with a between-parallelepiped (cluster) radius; tolerance
checks use the larger of the two, since parallelepiped heterogeneity
makes the pooled binomial radius alone too optimistic.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
from dataclasses import dataclass, field, fields
from fractions import Fraction
from io import StringIO
from typing import Optional, Sequence, TextIO, Union

from . import bounds
from .bounds import ZetaContext
from .enclosure import Enclosure
from .exactmat import unimodular_columns
from .groupgen import quotient_group
from .lattice import (
    LatticeBasis,
    Window,
    count_in_hyperplane,
    covering_radius_estimate,
    enumerate_window,
    lemma1_bounds,
    lemma2_count_bound,
    rank_of_span,
)
from .sampling import (
    ALGORITHM_ID,
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


def wilson_radius(successes: int, trials: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson 95% interval for a binomial proportion."""
    if trials < 1:
        return 0.0
    p = successes / trials
    z2 = z * z
    return (
        z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / (1 + z2 / trials)
    )


def cluster_radius(frequencies: Sequence[Fraction], z: float = _WILSON_Z) -> float:
    """Normal 95% radius for the mean of per-parallelepiped frequencies."""
    r = len(frequencies)
    if r < 2:
        return 0.0
    mean = sum(frequencies) / r
    var = sum((f - mean) ** 2 for f in frequencies)
    return z * math.sqrt(float(var) / (r * (r - 1)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: tuple[int, ...] = (1, 2, 3, 4)
    m_policy: str = "n+1"
    C: int = 10**4
    reps: int = 100
    samples: int = 10**4
    seed: int = 0
    workers: int = 1
    max_rejects: int = 10**6
    paper_scale: bool = False
    out: Optional[str] = None

    def __post_init__(self):
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n values must be >= 1")
        if self.C < 1 or self.reps < 1 or self.samples < 1 or self.workers < 1:
            raise ValueError("all counts must be >= 1")
        self.m_for(max(self.n_values))  # validate the policy eagerly

    def m_for(self, n: int) -> int:
        policy = self.m_policy.strip()
        if policy == "n":
            return n
        if policy.startswith("n+"):
            m = n + int(policy[2:])
        else:
            m = int(policy)
        if m < 1:
            raise ValueError(f"m policy {self.m_policy!r} gives m < 1")
        return m

    def to_json_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "m_policy": self.m_policy,
            "C": self.C,
            "reps": self.reps,
            "samples": self.samples,
            "seed": self.seed,
            "workers": self.workers,
            "max_rejects": self.max_rejects,
            "paper_scale": self.paper_scale,
            "out": self.out,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(obj)
        if "n_values" in data:
            data["n_values"] = tuple(data["n_values"])
        return cls(**data)


PAPER_SCALE_DEFAULTS = {"reps": 1000, "C": 10**18, "n_values": tuple(range(1, 16))}


# ---------------------------------------------------------------------------
# unimodular experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    kind: str
    n: int
    m: int
    config: dict
    frequencies: tuple[Fraction, ...]
    successes: tuple[int, ...]
    resamples: tuple[int, ...]
    average: Fraction
    minimum: Fraction
    maximum: Fraction
    wilson_radius: float
    cluster_radius: float
    ideal_lo: Optional[Fraction]
    ideal_hi: Optional[Fraction]
    rng: dict

    def __post_init__(self):
        if not self.minimum <= self.average <= self.maximum:
            raise ValueError("summary statistics out of order")
        for f in (self.minimum, self.average, self.maximum):
            if not 0 <= f <= 1:
                raise ValueError("frequencies must lie in [0, 1]")

    @property
    def radius(self) -> float:
        return max(self.wilson_radius, self.cluster_radius)

    def within_tolerance(self, multiple: float = 3.0) -> Optional[bool]:
        """Average within `multiple` radii of the ideal value (None when no
        ideal column applies)."""
        if self.ideal_lo is None:
            return None
        mid = (self.ideal_lo + self.ideal_hi) / 2
        return abs(float(self.average - mid)) <= multiple * self.radius


def _unimodular_shard(task) -> tuple[int, int, int]:
    seed, n, m, c, samples, shard, max_rejects = task
    pe_rng = RngStream(seed, stream_id(KIND_UNIMODULAR, n, shard, 0))
    parallelepiped = random_parallelepiped(n, c, pe_rng)
    sampler = parallelepiped.sampler(
        RngStream(seed, stream_id(KIND_UNIMODULAR, n, shard, 1)),
        max_rejects=max_rejects,
    )
    try:
        points = sampler.take(samples * m)
    except SamplerError as exc:
        raise SamplerError(
            f"shard {shard} (n={n}, generators {parallelepiped.generators}): {exc}",
            exc.acceptance_estimate,
        ) from exc
    successes = 0
    for k in range(samples):
        columns = [list(points[k * m + j]) for j in range(m)]
        if unimodular_columns(columns, n):
            successes += 1
    return shard, successes, parallelepiped.resamples


def _run_shards(tasks, workers: int):
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            results = list(pool.imap_unordered(_unimodular_shard, tasks, chunksize=1))
    else:
        results = [_unimodular_shard(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    return results


def run_unimodular_experiment(
    cfg: ExperimentConfig, ctx: Optional[ZetaContext] = None
) -> list[ExperimentReport]:
    """The random-parallelepiped unimodularity experiment.

    For each dimension n: draw `reps` parallelepipeds from [-C, C]^n, for
    each draw `samples` integer n x m matrices with columns uniform in
    the parallelepiped, and record the fraction that generate Z^n.
    """
    ctx = ctx or bounds.default_context()
    reports = []
    for n in cfg.n_values:
        m = cfg.m_for(n)
        tasks = [
            (cfg.seed, n, m, cfg.C, cfg.samples, shard, cfg.max_rejects)
            for shard in range(cfg.reps)
        ]
        results = _run_shards(tasks, cfg.workers)
        successes = tuple(s for _, s, _ in results)
        resamples = tuple(r for _, _, r in results)
        freqs = tuple(Fraction(s, cfg.samples) for s in successes)
        total = sum(successes)
        trials = cfg.reps * cfg.samples
        if m >= n:
            ideal = bounds.ideal_probability(n, m, ctx)
            ideal_lo, ideal_hi = ideal.lo, ideal.hi
        else:
            ideal_lo = ideal_hi = None
        reports.append(
            ExperimentReport(
                kind="unimodular",
                n=n,
                m=m,
                config=cfg.to_json_dict(),
                frequencies=freqs,
                successes=successes,
                resamples=resamples,
                average=Fraction(total, trials),
                minimum=min(freqs),
                maximum=max(freqs),
                wilson_radius=wilson_radius(total, trials),
                cluster_radius=cluster_radius(freqs),
                ideal_lo=ideal_lo,
                ideal_hi=ideal_hi,
                rng={
                    "algorithm": ALGORITHM_ID,
                    "seed": cfg.seed,
                    "stream_layout": STREAM_LAYOUT,
                    "kind_id": KIND_UNIMODULAR,
                },
            )
        )
    return reports


# ---------------------------------------------------------------------------
# report CSV round trip
# ---------------------------------------------------------------------------


def _frac_str(x: Optional[Fraction]) -> Optional[str]:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _frac(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


def write_reports_csv(reports: Sequence[ExperimentReport], out: TextIO) -> None:
    header = {
        "format": "latgen-reports-v1",
        "summaries": [
            {
                "kind": r.kind,
                "n": r.n,
                "m": r.m,
                "config": r.config,
                "average": _frac_str(r.average),
                "minimum": _frac_str(r.minimum),
                "maximum": _frac_str(r.maximum),
                "wilson_radius": repr(r.wilson_radius),
                "cluster_radius": repr(r.cluster_radius),
                "ideal_lo": _frac_str(r.ideal_lo),
                "ideal_hi": _frac_str(r.ideal_hi),
                "rng": r.rng,
            }
            for r in reports
        ],
    }
    out.write("# " + json.dumps(header, sort_keys=True) + "\n")
    out.write("kind,n,m,shard,samples,successes,frequency,resamples\n")
    for r in reports:
        samples = r.config["samples"]
        for shard, (s, resample) in enumerate(zip(r.successes, r.resamples)):
            freq = _frac_str(Fraction(s, samples))
            out.write(
                f"{r.kind},{r.n},{r.m},{shard},{samples},{s},{freq},{resample}\n"
            )


def reports_to_csv(reports: Sequence[ExperimentReport]) -> str:
    buf = StringIO()
    write_reports_csv(reports, buf)
    return buf.getvalue()


def parse_reports_csv(text: str) -> list[ExperimentReport]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing JSON header line")
    header = json.loads(lines[0][2:])
    if header.get("format") != "latgen-reports-v1":
        raise ValueError("unknown report format")
    per_key: dict[tuple, list[tuple[int, int, int, int]]] = {}
    for line in lines[2:]:
        kind, n, m, shard, samples, successes, _freq, resamples = line.split(",")
        per_key.setdefault((kind, int(n), int(m)), []).append(
            (int(shard), int(samples), int(successes), int(resamples))
        )
    reports = []
    for summary in header["summaries"]:
        key = (summary["kind"], summary["n"], summary["m"])
        rows = sorted(per_key[key])
        samples = summary["config"]["samples"]
        successes = tuple(s for _, _, s, _ in rows)
        resamples = tuple(r for _, _, _, r in rows)
        config = dict(summary["config"])
        config["n_values"] = list(config["n_values"])
        reports.append(
            ExperimentReport(
                kind=summary["kind"],
                n=summary["n"],
                m=summary["m"],
                config=config,
                frequencies=tuple(Fraction(s, samples) for s in successes),
                successes=successes,
                resamples=resamples,
                average=_frac(summary["average"]),
                minimum=_frac(summary["minimum"]),
                maximum=_frac(summary["maximum"]),
                wilson_radius=float(summary["wilson_radius"]),
                cluster_radius=float(summary["cluster_radius"]),
                ideal_lo=_frac(summary["ideal_lo"]),
                ideal_hi=_frac(summary["ideal_hi"]),
                rng=summary["rng"],
            )
        )
    return reports


# ---------------------------------------------------------------------------
# coprimality and bounds tables
# ---------------------------------------------------------------------------


@dataclass
class CoprimeTable:
    n_max: int
    ratios: list[Fraction]
    minimum: Fraction
    argmin: list[int]
    ok: bool

    def to_csv(self) -> str:
        buf = StringIO()
        header = {
            "format": "latgen-coprime-v1",
            "n_max": self.n_max,
            "minimum": _frac_str(self.minimum),
            "argmin": self.argmin,
            "ok": self.ok,
        }
        buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
        buf.write("n,ratio,ratio_float,is_minimum\n")
        for n, ratio in enumerate(self.ratios, start=1):
            buf.write(
                f"{n},{_frac_str(ratio)},{float(ratio)!r},{int(n in self.argmin)}\n"
            )
        return buf.getvalue()


def run_coprime_table(n_max: int) -> CoprimeTable:
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
    return CoprimeTable(n_max, ratios, minimum, argmin, ok)


@dataclass
class BoundsRow:
    n: int
    fullrank: Enclosure
    alpha: Optional[Enclosure]
    ideal: Enclosure
    b_min: Optional[Fraction]
    b1_min: Optional[Fraction]


@dataclass
class BoundsTable:
    rows: list[BoundsRow]
    precision: int

    @property
    def ok(self) -> bool:
        return all(
            row.alpha is None or row.alpha.lo >= Fraction(92, 1000)
            for row in self.rows
        )

    def to_csv(self) -> str:
        buf = StringIO()
        header = {
            "format": "latgen-bounds-v1",
            "precision": self.precision,
            "ok": self.ok,
        }
        buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
        buf.write(
            "n,fullrank_lower,alpha_lo,alpha_hi,ideal_lo,ideal_hi,b_min,b1_min\n"
        )
        for row in self.rows:
            alpha_lo = "" if row.alpha is None else f"{float(row.alpha.lo)!r}"
            alpha_hi = "" if row.alpha is None else f"{float(row.alpha.hi)!r}"
            b_min = "" if row.b_min is None else _frac_str(row.b_min)
            b1_min = "" if row.b1_min is None else _frac_str(row.b1_min)
            buf.write(
                f"{row.n},{float(row.fullrank.lo)!r},{alpha_lo},{alpha_hi},"
                f"{float(row.ideal.lo)!r},{float(row.ideal.hi)!r},{b_min},{b1_min}\n"
            )
        return buf.getvalue()


def run_bounds_table(n_max: int, ctx: Optional[ZetaContext] = None) -> BoundsTable:
    """Closed-form table: full-rank lower bound, alpha enclosure, ideal
    probability and window thresholds (unit covering radius) per n."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ctx = ctx or bounds.default_context()
    rows = []
    for n in range(1, n_max + 1):
        if n >= 2:
            alpha = bounds.alpha(n, ctx)
            b_min, b1_min = bounds.window_thresholds(n, 1, ctx)
        else:
            alpha, b_min, b1_min = None, None, None
        rows.append(
            BoundsRow(
                n=n,
                fullrank=bounds.fullrank_lower_bound(n, ctx),
                alpha=alpha,
                ideal=bounds.ideal_probability(n, n + 1, ctx),
                b_min=b_min,
                b1_min=b1_min,
            )
        )
    return BoundsTable(rows, ctx.precision)


# ---------------------------------------------------------------------------
# counting-bounds verification
# ---------------------------------------------------------------------------


@dataclass
class LemmaInstance:
    name: str
    lattice: LatticeBasis
    bound: Fraction
    grid_resolution: int


@dataclass
class LemmaRow:
    name: str
    n: int
    window_bound: Fraction
    count: int
    lower: Fraction
    upper: Fraction
    hyperplane_checks: list[tuple[int, int, Fraction]]  # (k, count, bound)
    ok: bool


@dataclass
class LemmaReport:
    rows: list[LemmaRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write(
            "# " + json.dumps({"format": "latgen-lemma-v1", "ok": self.ok}) + "\n"
        )
        buf.write("name,n,B,count,lower,upper,hyperplane_ok,ok\n")
        for row in self.rows:
            hyper_ok = all(c <= b for _, c, b in row.hyperplane_checks)
            buf.write(
                f"{row.name},{row.n},{row.window_bound},{row.count},"
                f"{float(row.lower)!r},{float(row.upper)!r},{int(hyper_ok)},{int(row.ok)}\n"
            )
        return buf.getvalue()


def default_lemma_instances() -> list[LemmaInstance]:
    """Twenty desk-scale lattices (n <= 3) with matched windows."""

    def lb(*cols):
        return LatticeBasis.from_columns(list(cols))

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
) -> LemmaReport:
    """Check both counting inequalities on every instance.

    The two-sided window count bracket uses the grid under-estimate on
    the lower side and the closed-form upper bound on the upper side; the
    hyperplane bound is checked for the span of every proper subset of
    basis vectors.
    """
    report = LemmaReport()
    for inst in instances or default_lemma_instances():
        lattice, window = inst.lattice, Window(inst.lattice.dim, inst.bound)
        n = lattice.dim
        nu_est = covering_radius_estimate(lattice, inst.grid_resolution)
        points = enumerate_window(lattice, window)
        count = len(points)
        lower, upper = lemma1_bounds(lattice, window, nu_est)
        ok = lower <= count <= upper
        hyper = []
        if n >= 2:
            columns = lattice.basis.columns()
            for k in range(1, n):
                for subset in itertools.combinations(range(n), k):
                    spanning = [columns[j] for j in subset]
                    h_count = count_in_hyperplane(lattice, window, spanning)
                    h_bound = lemma2_count_bound(lattice, window, k)
                    hyper.append((k, h_count, h_bound))
                    ok = ok and h_count <= h_bound
        report.rows.append(
            LemmaRow(
                name=inst.name,
                n=n,
                window_bound=window.bound,
                count=count,
                lower=lower,
                upper=upper,
                hyperplane_checks=hyper,
                ok=ok,
            )
        )
    return report


# ---------------------------------------------------------------------------
# total-variation checks
# ---------------------------------------------------------------------------


@dataclass
class TvRow:
    name: str
    n: int
    b1: Fraction
    group_order: int
    tv_exact: Fraction
    tv_bound: Fraction
    ok: bool


@dataclass
class TvReport:
    rows: list[TvRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write("# " + json.dumps({"format": "latgen-tv-v1", "ok": self.ok}) + "\n")
        buf.write("name,n,B1,group_order,tv_exact,tv_bound,ok\n")
        for row in self.rows:
            buf.write(
                f"{row.name},{row.n},{row.b1},{row.group_order},"
                f"{_frac_str(row.tv_exact)},{_frac_str(row.tv_bound)},{int(row.ok)}\n"
            )
        return buf.getvalue()


def run_tv_check(
    lattice: LatticeBasis,
    sub: Sequence[Sequence],
    b1: Union[int, Fraction],
    name: str = "tv",
) -> TvRow:
    """Exact total variation between uniform cosets and the projected
    window distribution, checked against the closed-form bound."""
    n = lattice.dim
    b1 = Fraction(b1)
    group, projection = quotient_group(lattice, sub)
    sub_lattice = LatticeBasis.from_columns([list(map(Fraction, v)) for v in sub])
    nu1_upper = sub_lattice.nu_upper
    if b1 <= 2 * nu1_upper:
        raise ValueError("hypothesis violated: need B1 > 2 * nu1_upper")
    points = enumerate_window(lattice, Window(n, b1))
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
    bound = bounds.tv_bound(n, b1, nu1_upper, lattice.nu_upper)
    return TvRow(
        name=name,
        n=n,
        b1=b1,
        group_order=order,
        tv_exact=tv,
        tv_bound=bound,
        ok=tv <= bound,
    )


def default_tv_instances() -> list[tuple[str, LatticeBasis, list, Fraction]]:
    def lb(*cols):
        return LatticeBasis.from_columns(list(cols))

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


def run_tv_suite() -> TvReport:
    report = TvReport()
    for name, lattice, sub, b1 in default_tv_instances():
        report.rows.append(run_tv_check(lattice, sub, b1, name=name))
    return report


# ---------------------------------------------------------------------------
# full-rank frequency check
# ---------------------------------------------------------------------------


@dataclass
class FullrankReport:
    name: str
    n: int
    window_bound: Fraction
    threshold: Optional[Fraction]
    hypothesis_held: bool
    trials: int
    successes: int
    frequency: Optional[Fraction]
    radius: float
    ok: bool
    rng: dict

    def to_csv(self) -> str:
        buf = StringIO()
        header = {
            "format": "latgen-fullrank-v1",
            "ok": self.ok,
            "rng": self.rng,
            "threshold": _frac_str(self.threshold),
        }
        buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
        buf.write("name,n,B,hypothesis_held,trials,successes,frequency,radius,ok\n")
        freq = "" if self.frequency is None else _frac_str(self.frequency)
        buf.write(
            f"{self.name},{self.n},{self.window_bound},{int(self.hypothesis_held)},"
            f"{self.trials},{self.successes},{freq},{self.radius!r},{int(self.ok)}\n"
        )
        return buf.getvalue()


def run_fullrank_check(
    lattice: LatticeBasis,
    window_bound: Union[int, Fraction],
    trials: int,
    seed: int = 0,
    nu_upper: Optional[Fraction] = None,
    allow_out_of_hypothesis: bool = False,
    name: str = "fullrank",
    max_rejects: int = 10**6,
) -> FullrankReport:
    """Frequency with which n uniform window points span full rank.

    Requires the window to meet the threshold 8 n^(n/2) nu unless
    explicitly overridden (the report then records hypothesis_held=False
    and asserts nothing); inside the hypothesis, the check is
    frequency >= 1/2 - 3 Wilson radii.
    """
    n = lattice.dim
    b = Fraction(window_bound)
    nu = Fraction(nu_upper) if nu_upper is not None else lattice.nu_upper
    if n >= 2:
        threshold = bounds.window_thresholds(n, nu)[0]
        hypothesis_held = b >= threshold
    else:
        threshold = None
        hypothesis_held = False
    if not hypothesis_held and not allow_out_of_hypothesis:
        raise ValueError(
            f"window bound {b} below threshold {threshold}; "
            "pass allow_out_of_hypothesis=True to report anyway"
        )
    rng = RngStream(seed, stream_id(KIND_FULLRANK, n, 0, 1))
    if trials == 0:
        return FullrankReport(
            name, n, b, threshold, hypothesis_held, 0, 0, None, 0.0,
            ok=True, rng=rng.provenance(),
        )
    sampler = WindowSampler(lattice, Window(n, b), rng, max_rejects=max_rejects)
    successes = 0
    for _ in range(trials):
        vectors = sampler.take(n)
        if rank_of_span(vectors) == n:
            successes += 1
    freq = Fraction(successes, trials)
    radius = wilson_radius(successes, trials)
    ok = (not hypothesis_held) or float(freq) >= 0.5 - 3 * radius
    return FullrankReport(
        name=name,
        n=n,
        window_bound=b,
        threshold=threshold,
        hypothesis_held=hypothesis_held,
        trials=trials,
        successes=successes,
        frequency=freq,
        radius=radius,
        ok=ok,
        rng=rng.provenance(),
    )
