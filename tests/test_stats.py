"""Statistics oracles: enumeration-backed checks for every operation."""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from jarcompat.stats import (
    DegenerateTable,
    EmptyInput,
    LEVEL_ORDER,
    _MW_EXACT_LIMIT,
    breaking_ratio,
    chi2_sf,
    chi_squared,
    cliffs_delta,
    cochran_sample,
    fisher_exact,
    holm_bonferroni,
    interpret_cliffs_delta,
    kruskal_wallis,
    mann_whitney,
    normal_quantile,
    normal_sf,
    odds_ratio,
)

_FACT = [math.factorial(i) for i in range(45)]


def fisher_oracle(a: int, b: int, c: int, d: int) -> float:
    """Brute-force two-sided Fisher p via multinomial-weight enumeration."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    if n == 0 or r1 == 0 or r2 == 0 or c1 == 0 or c1 == n:
        return 1.0
    lo, hi = max(0, c1 - r2), min(r1, c1)
    weights = []
    for k in range(lo, hi + 1):
        cells = (k, r1 - k, c1 - k, r2 - (c1 - k))
        weights.append(_FACT[n] // math.prod(_FACT[x] for x in cells))
    observed = weights[a - lo]
    return float(Fraction(sum(w for w in weights if w <= observed), sum(weights)))


# --- normal quantile / gamma ------------------------------------------------


def test_normal_quantile_reference_points():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)
    assert normal_quantile(0.9995) == pytest.approx(3.290526731491926, abs=1e-9)
    assert normal_quantile(0.0005) == pytest.approx(-3.290526731491926, abs=1e-9)


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_normal_quantile_inverts_cdf(p):
    from jarcompat.stats import normal_cdf

    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-11)


def test_chi2_sf_reference_points():
    # Values pinned against the standard chi-square distribution.
    assert chi2_sf(0.0, 1) == pytest.approx(1.0)
    assert chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
    assert chi2_sf(7.814727903251179, 3) == pytest.approx(0.05, abs=1e-9)
    assert chi2_sf(2.2, 1) == pytest.approx(0.13801073756865706, abs=1e-10)


# --- Cochran ------------------------------------------------------------------

TABLE5_POPULATIONS = {
    # population -> published sample size
    293817: 15701,
    29847: 10663,
    111830: 14445,
    123286: 14621,
    28854: 10533,
    35539: 11310,
    2861: 2440,
    13444: 7426,
    17425: 8498,
    1809: 1631,
}


def test_cochran_reproduces_published_sample_sizes():
    for population, expected in TABLE5_POPULATIONS.items():
        got = cochran_sample(population, 0.99, 0.01, 0.5)
        assert abs(got - expected) <= 2, (population, got, expected)


def test_cochran_caps_at_population():
    assert cochran_sample(1, 0.99, 0.01, 0.5) == 1
    assert cochran_sample(10, 0.95, 0.05, 0.5) == 10


def test_cochran_domain_errors():
    with pytest.raises(ValueError):
        cochran_sample(0, 0.99, 0.01)
    with pytest.raises(ValueError):
        cochran_sample(10, 1.2, 0.01)
    with pytest.raises(ValueError):
        cochran_sample(10, 0.99, 0.0)
    with pytest.raises(ValueError):
        cochran_sample(10, 0.99, 0.01, 1.5)


def test_cochran_monotone_in_population_and_margin():
    sizes = [cochran_sample(n, 0.99, 0.01, 0.5) for n in (100, 1000, 10000, 100000, 1000000)]
    assert sizes == sorted(sizes)
    margins = [cochran_sample(50000, 0.99, e, 0.5) for e in (0.05, 0.02, 0.01, 0.005)]
    assert margins == sorted(margins)


# --- chi-squared ---------------------------------------------------------------


def test_chi_squared_identical_rows():
    result = chi_squared([(10, 90), (20, 180)])
    assert result.statistic == pytest.approx(0.0, abs=1e-9)
    assert result.p_value == pytest.approx(1.0)


def test_chi_squared_matches_direct_formula():
    counts = [(12, 5), (3, 14)]
    result = chi_squared(counts)
    # Independent evaluation of sum((o-e)^2/e).
    total = sum(sum(c) for c in counts)
    row_sums = [sum(c) for c in counts]
    col_sums = [sum(c[j] for c in counts) for j in range(2)]
    expected_stat = sum(
        (counts[i][j] - row_sums[i] * col_sums[j] / total) ** 2
        / (row_sums[i] * col_sums[j] / total)
        for i in range(2)
        for j in range(2)
    )
    assert result.statistic == pytest.approx(expected_stat, abs=1e-9)
    assert result.p_value == pytest.approx(chi2_sf(expected_stat, 1), abs=1e-12)


def test_chi_squared_published_broken_client_table():
    # major, minor, patch, dev: (broken, not broken)
    table = [
        (1250, 10663 - 1250),
        (1130, 14445 - 1130),
        (735, 14621 - 735),
        (1772, 10533 - 1772),
    ]
    assert chi_squared(table).p_value < 1e-15


def test_chi_squared_degenerate():
    with pytest.raises(DegenerateTable):
        chi_squared([(1, 2)])
    with pytest.raises(DegenerateTable):
        chi_squared([(0, 0), (1, 2)])


# --- Fisher ---------------------------------------------------------------------


def test_fisher_homogeneous():
    assert fisher_exact([[5, 5], [5, 5]]).p_value == pytest.approx(1.0)


def test_fisher_known_value():
    assert fisher_exact([[1, 9], [11, 3]]).p_value == pytest.approx(0.00276, abs=5e-6)


def test_fisher_matches_oracle_on_random_small_tables():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c, d = (rng.randrange(0, 12) for _ in range(4))
        assert fisher_exact([[a, b], [c, d]]).p_value == pytest.approx(
            fisher_oracle(a, b, c, d), abs=1e-9
        )


def test_fisher_large_table_log_space_path():
    # Forces the log-space branch (total > 1000) and checks significance.
    result = fisher_exact([[1250, 9413], [1130, 13315]])
    assert result.p_value < 1e-20


def per_k_log_space_fisher_p(a: int, b: int, c: int, d: int) -> float:
    """Reference for the log-space branch: every term of every weight evaluated per ``k``."""
    def log_comb(n: int, k: int) -> float:
        return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    def log_hyper(k: int, r1: int, r2: int, c1: int) -> float:
        return log_comb(r1, k) + log_comb(r2, c1 - k) - log_comb(r1 + r2, c1)

    r1, r2, c1 = a + b, c + d, a + c
    log_obs = log_hyper(a, r1, r2, c1)
    acc = 0.0
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        log_w = log_hyper(k, r1, r2, c1)
        if log_w <= log_obs + math.log1p(1e-7):
            acc += math.exp(log_w)
    return min(1.0, acc)


# The observed cell at the lower end, the upper end and the mode of its
# support; tables with equal rows, whose weights are symmetric, so that the
# mirrored cell ties the observed weight (with c1 = 601 the two modes, 300
# and 301, tie too); c1 = 1 and c1 = n - 1; and broken clients among the
# MDG client populations of the major (29,847), minor (111,830) and patch
# (123,286) levels.
@example([0, 1500, 900, 300])
@example([900, 600, 0, 1200])
@example([500, 1000, 400, 800])
@example([350, 650, 350, 650])
@example([300, 700, 400, 600])
@example([301, 299, 300, 300])
@example([300, 300, 301, 299])
@example([1, 599, 600, 0])
@example([1, 1200, 0, 1300])
@example([0, 1200, 1, 1300])
@example([1200, 0, 1299, 1])
@example([1199, 1, 1300, 0])
@example([1250, 28597, 4700, 107130])
@example([4700, 107130, 3100, 120186])
@example([1250, 28597, 3100, 120186])
@example([3500, 108330, 3860, 119426])
@example([2400, 27447, 2400, 109430])
@given(st.lists(st.integers(0, 4000), min_size=4, max_size=4))
def test_fisher_log_space_matches_per_k_reference_exactly(cells):
    a, b, c, d = cells
    r1, r2, c1 = a + b, c + d, a + c
    assume(r1 + r2 > 1000 and r1 and r2 and 0 < c1 < r1 + r2)
    assert fisher_exact([[a, b], [c, d]]).p_value == per_k_log_space_fisher_p(a, b, c, d)


def test_fisher_rejects_negative():
    with pytest.raises(DegenerateTable):
        fisher_exact([[1, -1], [2, 3]])


# --- odds ratio -----------------------------------------------------------------


def test_odds_ratio_published_values():
    assert odds_ratio(1250, 10663, 1130, 14445) == pytest.approx(0.64, abs=0.01)
    assert odds_ratio(735, 14621, 1772, 10533) == pytest.approx(3.82, abs=0.01)


def test_odds_ratio_identity_and_zero_cells():
    assert odds_ratio(10, 100, 10, 100) == pytest.approx(1.0)
    assert odds_ratio(0, 10, 1, 10) == math.inf
    assert odds_ratio(1, 10, 10, 10) == math.inf
    assert odds_ratio(1, 10, 0, 10) == 0.0
    with pytest.raises(ValueError):
        odds_ratio(11, 10, 1, 10)


# --- Holm-Bonferroni ---------------------------------------------------------------


def test_holm_examples():
    assert holm_bonferroni([0.03]) == [0.03]
    assert holm_bonferroni([0.01, 0.04]) == [pytest.approx(0.02), pytest.approx(0.04)]
    assert holm_bonferroni([0.6, 0.7]) == [1.0, 1.0]


def test_holm_preserves_order_and_dominates_input():
    ps = [0.04, 0.001, 0.2, 0.015]
    adjusted = holm_bonferroni(ps)
    for raw, adj in zip(ps, adjusted):
        assert adj >= raw
    ranked = sorted(range(len(ps)), key=lambda i: ps[i])
    adj_in_rank_order = [adjusted[i] for i in ranked]
    assert adj_in_rank_order == sorted(adj_in_rank_order)


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=8))
def test_holm_properties(ps):
    adjusted = holm_bonferroni(ps)
    assert all(0 <= adj <= 1 for adj in adjusted)
    assert all(adj >= raw - 1e-12 for raw, adj in zip(ps, adjusted))


# --- Mann-Whitney ------------------------------------------------------------------


def u_of(group_x, group_y) -> float:
    """U counted pair by pair: 1 per x > y, 0.5 per tie."""
    u = 0.0
    for x in group_x:
        for y in group_y:
            u += 1.0 if x > y else (0.5 if x == y else 0.0)
    return u


def mann_whitney_permutation_oracle(xs, ys) -> float:
    """Two-sided exact p by enumerating all group assignments of the pooled
    values and ranking U deviations (independent of the implementation)."""
    pooled = list(xs) + list(ys)
    n = len(xs)

    center = n * (len(pooled) - n) / 2.0
    observed = abs(u_of(xs, ys) - center)
    hits = 0
    total = 0
    for chosen in combinations(range(len(pooled)), n):
        chosen_set = set(chosen)
        gx = [pooled[i] for i in chosen]
        gy = [pooled[i] for i in range(len(pooled)) if i not in chosen_set]
        total += 1
        if abs(u_of(gx, gy) - center) >= observed - 1e-12:
            hits += 1
    return hits / total


def test_mann_whitney_identical_singletons():
    assert mann_whitney(Counter([1.0]), Counter([1.0])).p_value == pytest.approx(1.0)


def test_mann_whitney_separated_triples():
    result = mann_whitney(Counter([1, 2, 3]), Counter([4, 5, 6]))
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(0.1)


def test_mann_whitney_exact_matches_permutation_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 13 - n)
        xs = [rng.randrange(0, 6) for _ in range(n)]
        ys = [rng.randrange(0, 6) for _ in range(m)]
        expected = mann_whitney_permutation_oracle(xs, ys)
        result = mann_whitney(Counter(xs), Counter(ys))
        assert result.statistic == u_of(xs, ys), (xs, ys)
        assert result.p_value == pytest.approx(expected, abs=1e-12), (xs, ys)


def test_mann_whitney_large_shifted_samples_significant():
    rng = random.Random(3)
    xs = [rng.gauss(0, 1) for _ in range(120)]
    ys = [rng.gauss(1.0, 1) for _ in range(120)]
    assert mann_whitney(Counter(xs), Counter(ys)).p_value < 0.01


def test_mann_whitney_normal_approximation_close_to_permutation():
    # A 10+10 sample sits above the exact cutoff; compare against a full
    # resampling estimate.
    rng = random.Random(5)
    xs = [rng.randrange(0, 30) for _ in range(10)]
    ys = [rng.randrange(4, 34) for _ in range(10)]
    result = mann_whitney(Counter(xs), Counter(ys))
    assert result.statistic == u_of(xs, ys)
    approx = result.p_value
    resamples = 20000
    pooled = xs + ys
    center = len(xs) * len(ys) / 2.0

    observed = abs(u_of(xs, ys) - center)
    hits = 0
    for _ in range(resamples):
        rng.shuffle(pooled)
        if abs(u_of(pooled[: len(xs)], pooled[len(xs) :]) - center) >= observed - 1e-12:
            hits += 1
    assert approx == pytest.approx(hits / resamples, abs=0.03)


def test_mann_whitney_tied_large_samples_match_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(17)
    xs = [float(rng.randrange(0, 5)) for _ in range(300)]
    ys = [float(rng.randrange(0, 6)) for _ in range(300)]
    result = mann_whitney(Counter(xs), Counter(ys))
    reference = scipy_stats.mannwhitneyu(
        xs, ys, alternative="two-sided", method="asymptotic", use_continuity=True
    )
    assert result.statistic == u_of(xs, ys) == reference.statistic
    assert result.p_value == pytest.approx(reference.pvalue, rel=1e-9)


def test_mann_whitney_empty_raises():
    with pytest.raises(EmptyInput):
        mann_whitney(Counter(), Counter([1.0]))


# --- Kruskal-Wallis -------------------------------------------------------------------


def test_kruskal_identical_groups():
    result = kruskal_wallis([Counter([1, 2, 3]), Counter([1, 2, 3])])
    assert result.statistic == pytest.approx(0.0, abs=1e-9)
    assert result.p_value == pytest.approx(1.0, abs=1e-9)
    tied = kruskal_wallis([Counter([5, 5]), Counter([5, 5, 5])])
    assert tied.p_value == pytest.approx(1.0)


def test_kruskal_matches_permutation_oracle():
    rng = random.Random(23)
    groups = [[1, 5, 7], [2, 2, 9], [8, 3]]
    observed = kruskal_wallis([Counter(g) for g in groups]).statistic

    def h_of(sample_groups):
        return kruskal_wallis([Counter(g) for g in sample_groups]).statistic

    pooled = [v for g in groups for v in g]
    sizes = [len(g) for g in groups]
    hits = 0
    resamples = 100000
    for _ in range(resamples):
        rng.shuffle(pooled)
        split = []
        offset = 0
        for size in sizes:
            split.append(pooled[offset : offset + size])
            offset += size
        if h_of(split) >= observed - 1e-12:
            hits += 1
    p_perm = hits / resamples
    p_chi2 = kruskal_wallis([Counter(g) for g in groups]).p_value
    # The chi-square approximation should sit near the permutation truth.
    assert p_chi2 == pytest.approx(p_perm, abs=0.05)


def test_kruskal_detects_shifted_groups():
    rng = random.Random(9)
    groups = [
        [rng.gauss(0, 1) for _ in range(60)],
        [rng.gauss(0.2, 1) for _ in range(60)],
        [rng.gauss(0.9, 1) for _ in range(60)],
        [rng.gauss(1.4, 1) for _ in range(60)],
    ]
    assert kruskal_wallis([Counter(g) for g in groups]).p_value < 0.01


def test_kruskal_needs_two_groups():
    with pytest.raises(EmptyInput):
        kruskal_wallis([Counter([1, 2])])


# --- Cliff's delta -------------------------------------------------------------------


def cliffs_oracle(xs, ys) -> float:
    gt = sum(1 for x in xs for y in ys if x > y)
    lt = sum(1 for x in xs for y in ys if x < y)
    return (gt - lt) / (len(xs) * len(ys))


def test_cliffs_identical():
    value, label = cliffs_delta(Counter([1, 2, 3]), Counter([1, 2, 3]))
    assert value == 0.0
    assert label == "negligible"


def test_cliffs_interpretation_scale():
    assert interpret_cliffs_delta(0.16) == "small"
    assert interpret_cliffs_delta(0.20) == "small"
    assert interpret_cliffs_delta(0.12) == "negligible"
    assert interpret_cliffs_delta(0.04) == "negligible"
    assert interpret_cliffs_delta(-0.08) == "negligible"
    assert interpret_cliffs_delta(0.40) == "medium"
    assert interpret_cliffs_delta(0.60) == "large"


def test_cliffs_matches_pair_counting_oracle():
    rng = random.Random(31)
    for _ in range(50):
        xs = [rng.randrange(0, 10) for _ in range(rng.randrange(1, 15))]
        ys = [rng.randrange(0, 10) for _ in range(rng.randrange(1, 15))]
        value, _ = cliffs_delta(Counter(xs), Counter(ys))
        assert value == pytest.approx(cliffs_oracle(xs, ys), abs=1e-12)


def test_cliffs_bounds():
    assert cliffs_delta(Counter([10]), Counter([1]))[0] == 1.0
    assert cliffs_delta(Counter([1]), Counter([10]))[0] == -1.0


# --- rank tests on value counts -------------------------------------------------------

# The rank tests as they were written over lists of values, one value at a
# time: the reference that the value-count versions must equal exactly.


def per_element_rank_table(values) -> tuple[dict, list[int]]:
    counts = Counter(values)
    rank_of = {}
    below = 0
    for value in sorted(counts):
        tied = counts[value]
        rank_of[value] = (2 * below + tied + 1) / 2.0
        below += tied
    return rank_of, [c for c in counts.values() if c > 1]


def per_element_mann_whitney(xs, ys) -> tuple[float, float]:
    n, m = len(xs), len(ys)
    rank_of, tie_counts = per_element_rank_table(chain(xs, ys))
    offset = n * (n + 1) / 2.0
    u = sum(rank_of[x] for x in xs) - offset
    center = n * m / 2.0
    if n + m <= _MW_EXACT_LIMIT:
        total = 0
        extreme = 0
        observed_dev = abs(u - center)
        ranks = [rank_of[v] for v in chain(xs, ys)]
        for chosen in combinations(ranks, n):
            total += 1
            if abs(sum(chosen) - offset - center) >= observed_dev - 1e-12:
                extreme += 1
        return u, min(1.0, extreme / total)
    size = n + m
    tie_term = sum(t**3 - t for t in tie_counts)
    sigma_sq = n * m / 12.0 * ((size + 1) - tie_term / (size * (size - 1)))
    if sigma_sq <= 0:
        return u, 1.0
    z = max(0.0, abs(u - center) - 0.5) / math.sqrt(sigma_sq)
    return u, min(1.0, 2.0 * normal_sf(z))


def per_element_kruskal_wallis(groups) -> tuple[float, float]:
    size = sum(len(g) for g in groups)
    rank_of, tie_counts = per_element_rank_table(chain.from_iterable(groups))
    h = 0.0
    for group in groups:
        r = sum(rank_of[v] for v in group)
        h += r * r / len(group)
    h = 12.0 / (size * (size + 1)) * h - 3.0 * (size + 1)
    tie_term = sum(t**3 - t for t in tie_counts)
    correction = 1.0 - tie_term / (size**3 - size) if size > 1 else 0.0
    if correction <= 0.0:
        return 0.0, 1.0
    h = max(0.0, h / correction)
    return h, chi2_sf(h, len(groups) - 1)


def per_element_cliffs_delta(xs, ys) -> tuple[float, str]:
    sorted_ys = sorted(ys)
    m = len(sorted_ys)
    greater = 0
    less = 0
    for x in xs:
        greater += bisect.bisect_left(sorted_ys, x)
        less += m - bisect.bisect_right(sorted_ys, x)
    delta = (greater - less) / (len(xs) * m)
    return delta, interpret_cliffs_delta(delta)


# Values with many ties, negative ones, halves and an int equal to a float
# (2 and 2.0 count as one value, as they did in a list).
_tied_values = st.lists(
    st.one_of(st.integers(-4, 4), st.sampled_from([-2.5, -0.5, 0.5, 2.0, 3.75])), min_size=1, max_size=14
)


# Sizes on both sides of _MW_EXACT_LIMIT = 16 (8 + 8 exact, 9 + 8 normal),
# and far above it.
@example([[1, 1, 2, -3, 0.5, 2.0, 2, 4], [0, 0, 1, -3, -3, 2, 4, 4]])
@example([[1, 1, 2, -3, 0.5, 2.0, 2, 4, -1], [0, 0, 1, -3, -3, 2, 4, 4], [3, 3]])
@example([[i % 7 - 3 for i in range(300)], [i % 5 - 1 for i in range(250)], [-1.5] * 40 + [9] * 3])
@given(st.lists(_tied_values, min_size=2, max_size=4))
def test_rank_tests_on_value_counts_equal_the_per_element_reference(samples):
    xs, ys = samples[0], samples[1]
    u = mann_whitney(Counter(xs), Counter(ys))
    assert (u.statistic, u.p_value) == per_element_mann_whitney(xs, ys)
    assert cliffs_delta(Counter(xs), Counter(ys)) == per_element_cliffs_delta(xs, ys)
    h = kruskal_wallis([Counter(s) for s in samples])
    assert (h.statistic, h.p_value) == per_element_kruskal_wallis(samples)


# --- ratios --------------------------------------------------------------------------


def counted(rows: list[dict]) -> Counter:
    """The (level, breaking, year) cell counts of ``rows``, as ``analyze`` tallies them."""
    return Counter((r["level"], r["breaking"], r["year"]) for r in rows)


def test_breaking_ratio_hand_count():
    rows = (
        [{"level": "minor", "breaking": i < 2, "year": 2011} for i in range(4)]
        + [{"level": "patch", "breaking": False, "year": 2011} for _ in range(4)]
        + [{"level": "major", "breaking": True, "year": 2012} for _ in range(2)]
    )
    table = {r["group"]: r for r in breaking_ratio(counted(rows))}
    assert table["minor"]["count"] == 4
    assert table["minor"]["breaking_pct"] == 50.0
    assert table["non-major"]["count"] == 8
    assert table["non-major"]["breaking"] == 2
    assert table["total"]["count"] == 10
    assert table["dev"]["breaking_pct"] is None  # empty group


def test_breaking_ratio_published_total():
    counts = {("minor", True, 2018): 26407, ("minor", False, 2018): 119879 - 26407}
    table = {r["group"]: r for r in breaking_ratio(counts)}
    assert table["total"]["breaking_pct"] == 22.0


def test_breaking_ratio_year_level():
    rows = [
        {"level": "minor", "breaking": True, "year": 2011},
        {"level": "minor", "breaking": False, "year": 2012},
        {"level": "patch", "breaking": False, "year": 2012},
    ]
    table = {r["group"]: r for r in breaking_ratio(counted(rows), "year_level")}
    assert table["2011/minor"]["breaking_pct"] == 100.0
    assert table["2012/minor"]["breaking_pct"] == 0.0
    assert table["2012/non-major"]["count"] == 2


def naive_breaking_ratio(rows: list[dict], group_by: str) -> list[dict]:
    """Reference for ``breaking_ratio``: one comprehension over all rows per group."""
    if group_by == "level":
        groups = [(label, [r for r in rows if r["level"] == label]) for label in LEVEL_ORDER]
        groups.append(("non-major", [r for r in rows if r["level"] in ("minor", "patch")]))
        groups.append(("total", rows))
    else:
        keys = sorted({(r["year"], r["level"]) for r in rows})
        groups = [
            (f"{year}/{level}", [r for r in rows if r["year"] == year and r["level"] == level])
            for year, level in keys
        ]
        for year in sorted({r["year"] for r in rows}):
            groups.append(
                (f"{year}/non-major",
                 [r for r in rows if r["year"] == year and r["level"] in ("minor", "patch")])
            )
    total = len(rows)
    table = []
    for label, members in groups:
        count = len(members)
        breaking = sum(1 for r in members if r["breaking"])
        table.append(
            {
                "group": label,
                "count": count,
                "share_pct": round(100.0 * count / total, 1) if total else None,
                "breaking": breaking,
                "breaking_pct": round(100.0 * breaking / count, 1) if count else None,
            }
        )
    return table


_ratio_rows = st.lists(
    st.fixed_dictionaries(
        {
            "level": st.sampled_from(LEVEL_ORDER + ("unknown",)),
            "year": st.integers(2010, 2013),
            "breaking": st.booleans(),
        }
    ),
    max_size=60,
)


@given(_ratio_rows, st.lists(st.booleans(), max_size=4))
def test_breaking_ratio_matches_naive_reference(rows, major_only_flags):
    # A year of its own holding only major rows: its non-major row is empty.
    rows = rows + [{"level": "major", "year": 2020, "breaking": flag} for flag in major_only_flags]
    counts = counted(rows)
    for group_by in ("level", "year_level"):
        expected = naive_breaking_ratio(rows, group_by)
        assert breaking_ratio(counts, group_by) == expected
        # The cells may come in any order.
        assert breaking_ratio(dict(reversed(counts.items())), group_by) == expected


def test_breaking_ratio_reads_each_row_a_bounded_number_of_times():
    reads = [0]

    class CountingCells(Mapping):
        """Cell counts that record every key they hand out and every count read."""

        def __init__(self, counts):
            self.counts = counts

        def __getitem__(self, cell):
            reads[0] += 1
            return self.counts[cell]

        def __iter__(self):
            for cell in self.counts:
                reads[0] += 1
                yield cell

        def __len__(self):
            return len(self.counts)

    rows = [
        {"level": level, "year": 2010 + i % 10, "breaking": i % 3 == 0}
        for i in range(200)
        for level in LEVEL_ORDER
    ]
    cells = CountingCells(counted(rows))
    for group_by in ("level", "year_level"):
        reads[0] = 0
        assert breaking_ratio(cells, group_by) == naive_breaking_ratio(rows, group_by)
        # One key and one count per distinct cell, however many rows share it.
        assert reads[0] <= 2 * len(cells), (group_by, reads[0] / len(cells))
