"""Experiment harness: reproducibility, statistics, report round trips."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from latgen import experiments
from latgen.experiments import (
    KIND_UNIMODULAR,
    ExperimentConfig,
    _unimodular_shard,
    cluster_radius,
    default_lemma_instances,
    default_tv_instances,
    parse_reports_csv,
    reports_to_csv,
    run_bounds_table,
    run_coprime_table,
    run_fullrank_check,
    run_lemma_verification,
    run_tv_check,
    run_tv_suite,
    run_unimodular_experiment,
    stream_id,
    wilson_radius,
)
from latgen.exactmat import unimodular_columns
from latgen.lattice import (
    LatticeBasis,
    count_in_hyperplane,
    enumerate_window,
    lemma1_bounds,
    lemma2_count_bound,
    window_cell,
)
from latgen.sampling import (
    ALGORITHM_ID,
    COSET_ALGORITHM_ID,
    RngStream,
    WindowSampler,
    random_parallelepiped,
)
from oracles import box_rejection_sample, fraction_det, parallelepiped_cell

Z1 = LatticeBasis([[1]])
Z2 = LatticeBasis([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(m_policy="n-5")
    # every n is checked, not only the largest
    with pytest.raises(ValueError, match="is not n, n[+]K or an integer"):
        ExperimentConfig(n_values=(4, 1), m_policy="n+-1")
    # a repeated dimension would write two identical summaries
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(n_values=(1, 1))
    # 2 * shard + 1 and n each have 24 bits of a stream id: shard 2^23 of
    # n = 2 would replay shard 0 of n = 3
    assert stream_id(1, 2, 2**23, 0) == stream_id(1, 3, 0, 0)
    ExperimentConfig(n_values=(2**24 - 1,), reps=2**23)
    with pytest.raises(ValueError, match="stream"):
        ExperimentConfig(reps=2**23 + 1)
    with pytest.raises(ValueError, match="stream"):
        ExperimentConfig(n_values=(1, 2**24))


def test_m_policy():
    cfg = ExperimentConfig(n_values=(3,))
    assert cfg.m_for(3) == 4
    assert ExperimentConfig(n_values=(3,), m_policy="n").m_for(3) == 3
    assert ExperimentConfig(n_values=(3,), m_policy="n+2").m_for(3) == 5
    assert ExperimentConfig(n_values=(3,), m_policy="7").m_for(3) == 7


def test_config_json_round_trip():
    cfg = ExperimentConfig(n_values=(1, 2), reps=5, samples=10, seed=9)
    again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_json_dict({"bogus": 1})
    # the constructor checks each field's type, not only the JSON path
    for bad in ({"seed": 1.5}, {"n_values": (2.5,)}, {"m_policy": 5}, {"C": True}):
        with pytest.raises(ValueError, match="wrong type"):
            ExperimentConfig(**bad)


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------


def test_wilson_radius_behavior():
    assert wilson_radius(0, 0) == 0.0
    r_small = wilson_radius(50, 100)
    r_large = wilson_radius(5000, 10000)
    assert 0 < r_large < r_small
    # extreme proportions shrink the radius
    assert wilson_radius(0, 100) < wilson_radius(50, 100)


def test_cluster_radius_behavior():
    assert cluster_radius([Fraction(1, 2)]) == 0.0
    tight = cluster_radius([Fraction(1, 2)] * 10)
    spread = cluster_radius([Fraction(0), Fraction(1)] * 5)
    assert tight == 0.0
    assert spread > 0.2


# ---------------------------------------------------------------------------
# unimodular experiment
# ---------------------------------------------------------------------------

SMALL = ExperimentConfig(n_values=(1, 2), reps=4, samples=200, C=100, seed=11)


def test_unimodular_reports_structure():
    reports = run_unimodular_experiment(SMALL)
    assert [r.n for r in reports] == [1, 2]
    for report in reports:
        assert report.m == report.n + 1
        assert len(report.frequencies) == SMALL.reps
        assert report.minimum <= report.average <= report.maximum
        total = sum(report.successes)
        assert report.average == Fraction(total, SMALL.reps * SMALL.samples)
        assert report.ideal_lo is not None
        assert report.rng["algorithm"] == "splitmix64-ctr-v1+coset-v1"


def test_unimodular_deterministic_and_worker_invariant():
    one = run_unimodular_experiment(SMALL)
    again = run_unimodular_experiment(SMALL)
    assert reports_to_csv(one) == reports_to_csv(again)
    multi = run_unimodular_experiment(SMALL, workers=3)
    assert multi == one
    assert reports_to_csv(multi) == reports_to_csv(one)


def test_pool_sized_by_shards(monkeypatch):
    # more workers than shards forks one process per shard; a serial fake
    # pool records the size asked for and starts no process
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr("multiprocessing.Pool", SerialPool)
    cfg = ExperimentConfig(n_values=(2,), reps=2, samples=50, C=100, seed=3)
    pooled = run_unimodular_experiment(cfg, workers=8)
    assert sizes == [2]
    serial = run_unimodular_experiment(cfg, workers=1)
    assert sizes == [2]
    assert pooled == serial


def test_shard_chunking_irrelevant(monkeypatch):
    # chunks of a few points split each shard's 41 matrices over many
    # takes, the last one partial; the same matrices are decided in the
    # same order as in one take, so no chunk drops or repeats a matrix
    decided = []

    def recording(columns, n):
        decided.append(tuple(map(tuple, columns)))
        return unimodular_columns(columns, n)

    monkeypatch.setattr(experiments, "unimodular_columns", recording)
    cfg = ExperimentConfig(n_values=(2, 3), reps=2, samples=41, C=100, seed=5)
    whole = run_unimodular_experiment(cfg)
    whole_decided = decided[:]
    decided.clear()
    monkeypatch.setattr(experiments, "_CHUNK_POINTS", 10)  # 3 matrices at n = 2, 2 at n = 3
    chunked = run_unimodular_experiment(cfg)
    assert len(whole_decided) == 2 * 2 * 41
    assert decided == whole_decided
    assert chunked == whole


def test_unimodular_shard_successes_pinned():
    # (shard, successes, resamples) of the first 500 matrices of shards 0
    # and 1 at the acceptance-criterion-5 settings; any change here means
    # the coset sample stream or the unimodularity decision moved
    expected = {
        1: [(0, 301, 0), (1, 315, 0)],
        2: [(0, 269, 0), (1, 247, 0)],
        3: [(0, 244, 0), (1, 231, 0)],
        4: [(0, 206, 0), (1, 223, 0)],
    }
    assert COSET_ALGORITHM_ID == "splitmix64-ctr-v1+coset-v1"
    for n, rows in expected.items():
        got = [_unimodular_shard((0, n, n + 1, 10000, 500, shard)) for shard in (0, 1)]
        assert got == rows, n


def test_unimodular_shard_matches_exact_cell_probability():
    # a small cell's exact p(V): the share of the |det V|^3 ordered triples
    # of its points that generate Z^2, decided by the gcd of the three 2 x 2
    # minors; each shard's count must sit within 4 binomial standard
    # deviations of samples * p(V) (so equal it when p is 0 or 1)
    seed, n, m, c, samples = 0, 2, 3, 3, 2000
    for shard in range(12):
        rng = RngStream(seed, stream_id(KIND_UNIMODULAR, n, shard, 0))
        points = parallelepiped_cell(random_parallelepiped(n, c, rng).generators).points()
        minor = {
            (x, y): abs(int(fraction_det([[x[0], y[0]], [x[1], y[1]]])))
            for x in points
            for y in points
        }
        generating = sum(
            1
            for x, y, z in itertools.product(points, repeat=3)
            if gcd(minor[x, y], minor[x, z], minor[y, z]) == 1
        )
        p = Fraction(generating, len(points) ** m)
        _, successes, _ = _unimodular_shard((seed, n, m, c, samples, shard))
        mean = samples * p
        assert (successes - mean) ** 2 <= 16 * mean * (1 - p), (shard, successes, p)


def test_box_rejection_oracle_reproduces_rejection_pins():
    # the same shards sampled by bounding-box rejection, the stream of
    # "splitmix64-ctr-v1" reports, keep that stream's pinned counts
    expected = {
        1: [(0, 301, 0), (1, 315, 0)],
        2: [(0, 248, 0), (1, 225, 0)],
        3: [(0, 214, 0), (1, 226, 0)],
        4: [(0, 220, 0), (1, 222, 0)],
    }
    assert ALGORITHM_ID == "splitmix64-ctr-v1"
    samples = 500
    for n, rows in expected.items():
        m = n + 1
        got = []
        for shard in (0, 1):
            p = random_parallelepiped(
                n, 10000, RngStream(0, stream_id(KIND_UNIMODULAR, n, shard, 0))
            )
            rng = RngStream(0, stream_id(KIND_UNIMODULAR, n, shard, 1))
            points = box_rejection_sample(parallelepiped_cell(p.generators), rng, samples * m)
            successes = sum(
                unimodular_columns([list(points[k * m + j]) for j in range(m)], n)
                for k in range(samples)
            )
            got.append((shard, successes, p.resamples))
        assert got == rows, n


def test_unimodular_seed_matters():
    other = run_unimodular_experiment(
        ExperimentConfig(**{**SMALL.to_json_dict(), "seed": 12})
    )
    assert other[0].frequencies != run_unimodular_experiment(SMALL)[0].frequencies


def test_square_case_near_zero():
    cfg = ExperimentConfig(
        n_values=(2,), m_policy="n", reps=3, samples=2000, C=10**4, seed=3
    )
    (report,) = run_unimodular_experiment(cfg)
    assert report.ideal_lo == report.ideal_hi == 0
    assert report.average < Fraction(1, 1000)


def test_reports_csv_round_trip():
    reports = run_unimodular_experiment(SMALL)
    text = reports_to_csv(reports)
    assert text.startswith("# {")
    parsed = parse_reports_csv(text)
    assert parsed == reports
    # the summaries are derived again from the shard rows, so an edited
    # summary does not survive a round trip
    first, rest = text.split("\n", 1)
    header = json.loads(first[2:])
    header["summaries"][0]["average"] = "0/1"
    edited = "# " + json.dumps(header, sort_keys=True) + "\n" + rest
    assert reports_to_csv(parse_reports_csv(edited)) == text
    # the rows must be shards 0..reps-1 of the configured dimensions
    lines = text.splitlines(keepends=True)
    with pytest.raises(ValueError, match="shard rows"):
        parse_reports_csv("".join(lines[:-1]))
    with pytest.raises(ValueError, match="does not list"):
        parse_reports_csv(text + "7,8,0,1,1/200,0\n")
    # the rows may come in any order, but each shard only once
    head, columns, *rows = lines
    shuffled = [head, columns, *rows[::-1]]
    assert parse_reports_csv("".join(shuffled)) == reports
    assert reports_to_csv(parse_reports_csv("".join(shuffled))) == text
    with pytest.raises(ValueError, match="shard rows"):
        parse_reports_csv(text + rows[0])
    # a malformed header or column line is a ValueError too
    del header["config"]
    for bad in (
        "# [1]\n" + rest,
        "# " + json.dumps(header, sort_keys=True) + "\n" + rest,
        head + columns.replace(",resamples", "") + "".join(
            row.rsplit(",", 1)[0] + "\n" for row in rows
        ),
    ):
        with pytest.raises(ValueError):
            parse_reports_csv(bad)
    # m < n has no ideal column: its empty cells round-trip as well
    below = run_unimodular_experiment(
        ExperimentConfig(n_values=(2,), m_policy="1", reps=2, samples=10, seed=5)
    )
    assert below[0].ideal_lo is None
    below_text = reports_to_csv(below)
    assert parse_reports_csv(below_text) == below
    assert reports_to_csv(parse_reports_csv(below_text)) == below_text


def test_paper_scale_magnitudes_smoke():
    # C = 10^18 forces the big-integer sampling engine end to end
    cfg = ExperimentConfig(n_values=(2,), reps=2, samples=30, C=10**18, seed=6)
    (report,) = run_unimodular_experiment(cfg)
    assert 0 <= report.average <= 1
    (again,) = run_unimodular_experiment(cfg)
    assert report.frequencies == again.frequencies


def test_cube_parallelepiped_matches_ideal():
    # uniform draws from [0, C)^n: the empirical unimodularity frequency
    # sits within 3 Wilson radii of the infinite-window product
    from latgen.bounds import ideal_probability
    from latgen.exactmat import unimodular_columns
    from latgen.experiments import wilson_radius
    from latgen.sampling import Parallelepiped, RngStream

    n, m, c, matrices = 2, 3, 500, 20000
    cube = Parallelepiped([[c if i == j else 0 for i in range(n)] for j in range(n)])
    points = cube.take(RngStream(seed=17, stream=2), matrices * m)
    successes = sum(
        unimodular_columns([list(points[k * m + j]) for j in range(m)], n)
        for k in range(matrices)
    )
    ideal = float(ideal_probability(n, m).mid)
    radius = wilson_radius(successes, matrices)
    assert abs(successes / matrices - ideal) <= 3 * radius + 0.01


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_coprime_table():
    table = run_coprime_table(1000)
    assert table.rows[9].ratio == Fraction(13, 22)
    assert table.rows[0].ratio == Fraction(3, 2)
    assert Fraction(table.header["minimum"]) == Fraction(13, 22)
    assert table.header["argmin"] == [10]
    assert table.ok
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0].startswith("# {")
    assert "10,13/22" in csv_text


def test_coprime_table_small_range():
    # below n = 10 the global minimum is not visible; only the floor holds
    table = run_coprime_table(5)
    assert table.ok
    assert Fraction(table.header["minimum"]) == Fraction(13, 20)


def test_bounds_table():
    table = run_bounds_table(5)
    assert table.ok
    assert len(table.rows) == 5
    row2 = table.rows[1]
    assert row2.b_min == 16 and row2.b1_min == 1536
    assert table.rows[0].alpha_lo is None
    assert "n,fullrank_lower" in table.to_csv()


# ---------------------------------------------------------------------------
# counting-bounds suite
# ---------------------------------------------------------------------------


def test_lemma_suite_instances_cover_spec():
    instances = default_lemma_instances()
    assert len(instances) >= 20
    assert {inst.lattice.dim for inst in instances} == {1, 2, 3}


def test_lemma_verification_passes(monkeypatch):
    calls = Counter()

    def spy(lattice, *args):
        calls[id(lattice)] += 1
        return count_in_hyperplane(lattice, *args)

    monkeypatch.setattr(experiments, "count_in_hyperplane", spy)
    instances = default_lemma_instances()
    report = run_lemma_verification(instances)
    assert report.ok
    assert len(report.rows) >= 20
    # every 2-d and 3-d row carried a hyperplane check per proper subset
    for inst in instances:
        n = inst.lattice.dim
        assert calls[id(inst.lattice)] == (2**n - 2 if n >= 2 else 0), inst.name
    assert "Z2," in report.to_csv()


# ---------------------------------------------------------------------------
# total-variation suite
# ---------------------------------------------------------------------------


def test_tv_worked_example():
    row = run_tv_check(Z1, [[2]], 101)
    assert row.tv_exact == Fraction(1, 202)
    assert row.tv_bound == Fraction(1, 34)
    assert row.ok


def test_tv_trivial_quotient():
    row = run_tv_check(Z2, [[1, 0], [0, 1]], 10)
    assert row.tv_exact == 0
    assert row.ok


def test_tv_suite_passes():
    report = run_tv_suite()
    assert report.ok
    assert len(report.rows) >= 10
    names = [row.name for row in report.rows]
    assert "z1_mod2_101" in names


def test_tv_check_rejects_small_window():
    with pytest.raises(ValueError):
        run_tv_check(Z1, [[2]], 1)


def test_tv_check_rejects_bad_sublattice():
    with pytest.raises(ValueError, match="exactly 2"):
        run_tv_check(Z2, [[1, 0]], 10)
    # every sublattice generator must be a lattice vector
    with pytest.raises(ValueError, match="not a lattice point"):
        run_tv_check(Z2, [[Fraction(1, 2), 0], [0, 1]], 10)


def test_tv_instances_have_varied_groups():
    orders = {run_tv_check(l, s, b, name=n).group_order
              for n, l, s, b in default_tv_instances()[:4]}
    assert len(orders) >= 2


# ---------------------------------------------------------------------------
# full-rank check
# ---------------------------------------------------------------------------


def test_fullrank_z2_at_threshold():
    report = run_fullrank_check(Z2, 32, trials=400, seed=5)
    (row,) = report.rows
    assert row.hypothesis_held
    assert Fraction(report.header["threshold"]) == 32
    assert report.ok
    assert float(row.frequency) > 0.9


def test_fullrank_custom_nu_threshold():
    report = run_fullrank_check(Z2, 16, trials=100, seed=5, nu_upper=Fraction(1))
    assert Fraction(report.header["threshold"]) == 16
    assert report.rows[0].hypothesis_held


def test_fullrank_out_of_hypothesis():
    with pytest.raises(ValueError, match="threshold"):
        run_fullrank_check(Z2, 4, trials=10, seed=1)
    report = run_fullrank_check(
        Z1, 8, trials=800, seed=2, allow_out_of_hypothesis=True
    )
    (row,) = report.rows
    assert not row.hypothesis_held
    assert report.ok  # nothing asserted out of hypothesis
    assert abs(float(row.frequency) - 7 / 8) < 0.05


def test_fullrank_zero_trials_vacuous():
    report = run_fullrank_check(Z2, 32, trials=0, seed=0)
    assert report.ok and report.rows[0].frequency is None


def test_nonpositive_window_bound_refused():
    # every library entry to a window refuses B <= 0, even with no trial to run
    for bound in (0, -1):
        calls = [
            lambda: window_cell(Z2, bound),
            lambda: enumerate_window(Z2, bound),
            lambda: WindowSampler(Z2, bound, RngStream(seed=0)),
            lambda: lemma1_bounds(Z2, bound, 0),
            lambda: lemma2_count_bound(Z2, bound, 1),
            lambda: run_fullrank_check(Z2, bound, trials=0, allow_out_of_hypothesis=True),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="window bound must be positive"):
                call()


def test_fullrank_deterministic():
    a = run_fullrank_check(Z2, 32, trials=200, seed=9)
    b = run_fullrank_check(Z2, 32, trials=200, seed=9)
    assert a.rows[0].successes == b.rows[0].successes
