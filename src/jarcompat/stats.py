"""Statistical machinery: sampling, hypothesis tests, and effect sizes.

Everything is implemented directly on top of the standard library so the
numbers are reproducible without an external statistics dependency. The
normal tails use ``math.erfc``, which keeps their precision far out;
chi-square tail probabilities go through the regularized incomplete gamma
function with the usual series / continued-fraction split.

Fisher's exact test in log space adds only the terms that can change its
sum (see ``fisher_exact``). The rank tests take each sample as its value
counts, so their cost grows with the distinct values, not the values. Both
give the same floats as adding every term, and ranking every value, one at
a time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Callable, Mapping, Sequence


class DegenerateTable(ValueError):
    """Contingency table without enough information to test."""


class EmptyInput(ValueError):
    """An operation that needs at least one value received none."""


@dataclass
class TestResult:
    statistic: float
    p_value: float


# --- normal distribution -------------------------------------------------

# The CDF and the survival function use ``math.erfc``: ``NormalDist.cdf``
# goes through ``erf``, which loses the far tails that small p-values need.


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Wichura's AS 241, accurate to about 1e-16)."""
    # Imported here: ``statistics`` loads ``decimal`` and ``fractions``, about
    # 0.5 MB that only sampling needs.
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


# --- incomplete gamma / chi-square tail ----------------------------------

_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 1000


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized gamma P(a, x) by series; valid for x < a + 1."""
    term = 1.0 / a
    total = term
    for n in range(1, _GAMMA_ITMAX):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_fraction(a: float, x: float) -> float:
    """Upper regularized gamma Q(a, x) by continued fraction; x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x)."""
    if x < 0 or a <= 0:
        raise ValueError(f"gamma_q domain error: a={a}, x={x}")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cont_fraction(a, x)


def chi2_sf(stat: float, df: int) -> float:
    return gamma_q(df / 2.0, stat / 2.0)


# --- sampling -------------------------------------------------------------


def cochran_sample(population: int, confidence: float, margin: float, proportion: float = 0.5) -> int:
    """Cochran sample size with finite-population correction.

    n0 = z^2 p (1 - p) / e^2 with z the two-sided normal quantile, then
    n = n0 / (1 + (n0 - 1) / N), rounded half-up and capped at N.
    """
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    if not 0.0 <= proportion <= 1.0:
        raise ValueError(f"proportion must be in [0, 1], got {proportion}")
    z = normal_quantile((1.0 + confidence) / 2.0)
    n0 = z * z * proportion * (1.0 - proportion) / (margin * margin)
    n = n0 / (1.0 + (n0 - 1.0) / population)
    return min(population, int(math.floor(n + 0.5)))


# --- contingency tests -----------------------------------------------------


def chi_squared(counts: Sequence[Sequence[int]]) -> TestResult:
    """Pearson chi-squared test of homogeneity across rows of counts."""
    if len(counts) < 2 or any(len(cells) < 2 for cells in counts):
        raise DegenerateTable("need at least a 2x2 table")
    width = len(counts[0])
    if any(len(cells) != width for cells in counts):
        raise DegenerateTable("ragged table")
    if any(cell < 0 for cells in counts for cell in cells):
        raise DegenerateTable("negative cell")
    row_sums = [sum(cells) for cells in counts]
    col_sums = [sum(cells[j] for cells in counts) for j in range(width)]
    total = sum(row_sums)
    if any(s == 0 for s in row_sums) or any(s == 0 for s in col_sums):
        raise DegenerateTable("zero row or column sum gives zero expected counts")
    stat = 0.0
    for i, cells in enumerate(counts):
        for j, observed in enumerate(cells):
            expected = row_sums[i] * col_sums[j] / total
            stat += (observed - expected) ** 2 / expected
    df = (len(counts) - 1) * (width - 1)
    return TestResult(statistic=stat, p_value=chi2_sf(stat, df))


# Exact-arithmetic cutoff for Fisher's test; bigger tables go to log space.
_FISHER_EXACT_LIMIT = 1000
# Relative tolerance for counting a table as "at most as probable" in log space.
_FISHER_REL_EPS = 1e-7


def fisher_exact(table: Sequence[Sequence[int]]) -> TestResult:
    """Two-sided Fisher's exact test on a 2x2 table.

    Sums hypergeometric probabilities no larger than the observed table's.
    Small tables (n <= 1000) are evaluated in exact integer arithmetic.
    Large ones are evaluated in log space with a relative tie tolerance:
    the p-value is ``acc += exp(log_w)`` in increasing k over every k whose
    log weight is at most the observed one's plus log1p(1e-7), each log
    weight evaluated for its own k.

    That sum evaluates only the terms that can change it. It skips three
    kinds of term, and each skip leaves the sum bit-identical:

    - The terms left out. The weights are log-concave in k, so those above
      the threshold form one interval around the mode, (c1+1)(r1+1)//(n+2)
      clamped to the support, whose ends are found by bisection. Where the
      mode is not above the threshold, no term is.
    - The leading terms of the block left of that interval whose ``exp`` is
      exactly 0.0, found by bisection because the block rises. Adding 0.0
      to a sum that is still 0.0 changes nothing.
    - The trailing terms of the block right of it, from the first term t
      that is 0.0 or below acc * 2**-54. Such a term is less than half an
      ulp of acc, so acc + t rounds back to acc, and the block falls, so
      every later term is smaller still.

    Every term that is added is the same float, added in the same order.
    """
    if len(table) != 2 or any(len(row) != 2 for row in table):
        raise DegenerateTable("fisher_exact needs a 2x2 table")
    (a, b), (c, d) = table
    if min(a, b, c, d) < 0:
        raise DegenerateTable("negative cell")
    r1, r2 = a + b, c + d
    c1 = a + c
    n = r1 + r2
    if n == 0 or r1 == 0 or r2 == 0 or c1 == 0 or c1 == n:
        return TestResult(statistic=float("nan"), p_value=1.0)

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    if n <= _FISHER_EXACT_LIMIT:
        weights = [math.comb(r1, k) * math.comb(r2, c1 - k) for k in range(lo, hi + 1)]
        observed = weights[a - lo]
        included = sum(w for w in weights if w <= observed)
        p = included / math.comb(n, c1)
    else:
        # _log_comb(r1, k) + _log_comb(r2, c1 - k) - _log_comb(n, c1) per k, with the
        # terms that do not depend on k computed once and the sum order kept.
        lg_r1, lg_r2 = math.lgamma(r1 + 1), math.lgamma(r2 + 1)
        log_total = _log_comb(n, c1)

        def log_weight(k: int) -> float:
            return (
                (lg_r1 - math.lgamma(k + 1) - math.lgamma(r1 - k + 1))
                + (lg_r2 - math.lgamma(c1 - k + 1) - math.lgamma(r2 - c1 + k + 1))
                - log_total
            )

        threshold = log_weight(a) + math.log1p(_FISHER_REL_EPS)
        # The weights rise to the mode and fall after it, so the terms left
        # out form one interval [first, last] around the mode.
        mode = min(max((c1 + 1) * (r1 + 1) // (n + 2), lo), hi)
        if log_weight(mode) > threshold:
            first = _first(lo, mode, lambda k: log_weight(k) > threshold)
            last = _first(mode, hi + 1, lambda k: log_weight(k) <= threshold) - 1
        else:
            first, last = mode + 1, mode
        acc = 0.0
        for k in range(_first(lo, first, lambda k: math.exp(log_weight(k)) != 0.0), first):
            acc += math.exp(log_weight(k))
        for k in range(last + 1, hi + 1):
            term = math.exp(log_weight(k))
            if term == 0.0 or term < acc * 2**-54:
                break  # below half an ulp of acc, as is every later term
            acc += term
        p = min(1.0, acc)
    odds = float("inf") if b * c == 0 else (a * d) / (b * c)
    return TestResult(statistic=odds, p_value=min(1.0, p))


def _first(start: int, stop: int, holds: Callable[[int], bool]) -> int:
    """The least k in [start, stop) for which ``holds(k)``, or ``stop``,
    found by bisection: ``holds`` is false and then true over the range."""
    return start + bisect.bisect_left(range(start, stop), True, key=holds)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def odds_ratio(a_broken: int, a_total: int, b_broken: int, b_total: int) -> float:
    """Odds of b relative to the odds of a ("a vs b" orientation).

    Returns inf when the comparison is undefined because a zero cell makes
    one of the odds zero or infinite.
    """
    if not (0 <= a_broken <= a_total and 0 <= b_broken <= b_total):
        raise ValueError("broken counts must satisfy 0 <= broken <= total")
    a_ok = a_total - a_broken
    b_ok = b_total - b_broken
    if a_broken == 0 or b_ok == 0:
        return float("inf")
    if b_broken == 0:
        return 0.0
    return (b_broken / b_ok) / (a_broken / a_ok)


def holm_bonferroni(p_values: Sequence[float]) -> list[float]:
    """Step-down Holm-Bonferroni adjustment, returned in input order."""
    if any(not 0.0 <= p <= 1.0 for p in p_values):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (m - rank) * p_values[idx])
        adjusted[idx] = min(1.0, running)
    return adjusted


# --- rank tests -------------------------------------------------------------

# Each sample is given as its value counts: a mapping from each distinct
# value to how often it occurs, such as a ``Counter`` of the values. The
# tests depend on a sample only through these counts, so a sample costs
# time and memory in its distinct values, apart from Mann-Whitney's exact
# enumeration.

# Total sample size up to which the exact Mann-Whitney distribution is
# enumerated; beyond it a tie-corrected normal approximation is used.
_MW_EXACT_LIMIT = 16


def mann_whitney(xs: Mapping[float, int], ys: Mapping[float, int]) -> TestResult:
    """Two-tailed Mann-Whitney U test on two samples of value counts.

    U is the rank sum of ``xs`` in the pooled sample minus n(n+1)/2. Small
    samples (n + m <= 16) use exact enumeration over all group assignments,
    which handles ties correctly. Larger samples use the tie-corrected
    normal approximation with continuity correction.
    """
    n, m = sum(xs.values()), sum(ys.values())
    if n == 0 or m == 0:
        raise EmptyInput("both samples must be non-empty")
    pooled = Counter(xs)
    pooled.update(ys)
    rank_of, tie_counts = _rank_table(pooled)
    offset = n * (n + 1) / 2.0
    u = _rank_sum(rank_of, xs) - offset
    center = n * m / 2.0

    if n + m <= _MW_EXACT_LIMIT:
        total = 0
        extreme = 0
        observed_dev = abs(u - center)
        ranks = [rank_of[v] for sample in (xs, ys) for v, count in sample.items() for _ in range(count)]
        for chosen in combinations(ranks, n):
            u_perm = sum(chosen) - offset
            total += 1
            if abs(u_perm - center) >= observed_dev - 1e-12:
                extreme += 1
        return TestResult(statistic=u, p_value=min(1.0, extreme / total))

    size = n + m
    tie_term = sum(t**3 - t for t in tie_counts)
    sigma_sq = n * m / 12.0 * ((size + 1) - tie_term / (size * (size - 1)))
    if sigma_sq <= 0:
        return TestResult(statistic=u, p_value=1.0)
    deviation = abs(u - center)
    z = max(0.0, deviation - 0.5) / math.sqrt(sigma_sq)
    return TestResult(statistic=u, p_value=min(1.0, 2.0 * normal_sf(z)))


def _rank_table(counts: Mapping[float, int]) -> tuple[dict[float, float], list[int]]:
    """The midrank of each distinct value of the pooled sample ``counts``,
    and the size of each tie of two or more.

    Ranks are 1-based positions in sorted order; tied values share the mean
    of their positions.
    """
    rank_of: dict[float, float] = {}
    below = 0
    for value in sorted(counts):
        tied = counts[value]
        rank_of[value] = (2 * below + tied + 1) / 2.0  # mean of positions below+1 .. below+tied
        below += tied
    return rank_of, [c for c in counts.values() if c > 1]


def _rank_sum(rank_of: dict[float, float], sample: Mapping[float, int]) -> float:
    """The sum of the ranks of ``sample``'s values. Midranks are multiples
    of 0.5, so each product and partial sum is exact, and this is the same
    float as the sum of the ranks one value at a time."""
    return sum(rank_of[value] * count for value, count in sample.items())


def kruskal_wallis(groups: Sequence[Mapping[float, int]]) -> TestResult:
    """Kruskal-Wallis rank-sum test with tie correction, on groups of value counts."""
    sizes = [sum(group.values()) for group in groups]
    if len(groups) < 2 or 0 in sizes:
        raise EmptyInput("need at least two non-empty groups")
    size = sum(sizes)
    pooled: Counter[float] = Counter()
    for group in groups:
        pooled.update(group)
    rank_of, tie_counts = _rank_table(pooled)
    h = 0.0
    for group, group_size in zip(groups, sizes):
        r = _rank_sum(rank_of, group)
        h += r * r / group_size
    h = 12.0 / (size * (size + 1)) * h - 3.0 * (size + 1)
    tie_term = sum(t**3 - t for t in tie_counts)
    correction = 1.0 - tie_term / (size**3 - size) if size > 1 else 0.0
    if correction <= 0.0:
        return TestResult(statistic=0.0, p_value=1.0)  # all values tied
    h /= correction
    h = max(0.0, h)
    return TestResult(statistic=h, p_value=chi2_sf(h, len(groups) - 1))


# Cohen's-scale thresholds for |delta|.
CLIFFS_THRESHOLDS = ((0.147, "negligible"), (0.33, "small"), (0.474, "medium"))


def interpret_cliffs_delta(delta: float) -> str:
    magnitude = abs(delta)
    for threshold, label in CLIFFS_THRESHOLDS:
        if magnitude < threshold:
            return label
    return "large"


def cliffs_delta(xs: Mapping[float, int], ys: Mapping[float, int]) -> tuple[float, str]:
    """Cliff's delta in [-1, 1] with its Cohen's-scale interpretation, on
    two samples of value counts.

    One walk over the sorted distinct values of both samples keeps the
    cumulative count of ys below the current value, so each x value adds
    its count times the ys below it and times the ys above it: the integer
    counts of all (x, y) pairs with x > y and with x < y.
    """
    n, m = sum(xs.values()), sum(ys.values())
    if n == 0 or m == 0:
        raise EmptyInput("both samples must be non-empty")
    greater = 0
    less = 0
    below = 0
    for value in sorted(xs.keys() | ys.keys()):
        x_count, y_count = xs.get(value, 0), ys.get(value, 0)
        greater += x_count * below
        less += x_count * (m - below - y_count)
        below += y_count
    delta = (greater - less) / (n * m)
    return delta, interpret_cliffs_delta(delta)


# --- corpus ratios -----------------------------------------------------------

LEVEL_ORDER = ("major", "minor", "patch", "dev")


def breaking_ratio(counts: Mapping[tuple[str, bool, int], int], group_by: str = "level") -> list[dict]:
    """Count / share / breaking tallies per semver level (optionally per year).

    ``counts`` maps each (level, breaking, year) cell to how many upgrades
    have it; every count is positive. Ratios over empty groups come out as
    None. One pass tallies ``[count, breaking]`` per key (``level``, or
    ``(year, level)``); the groups are sums of those tallies, so the cost is
    linear in the distinct cells whatever the groups.
    """
    if group_by == "level":
        key_of = itemgetter(0)
    elif group_by == "year_level":
        key_of = itemgetter(2, 0)
    else:
        raise ValueError(f"unknown grouping {group_by!r}")

    tallies: dict = {}
    for cell, n in counts.items():
        tally = tallies.setdefault(key_of(cell), [0, 0])
        tally[0] += n
        if cell[1]:
            tally[1] += n

    def summed(keys) -> tuple[int, int]:
        found = [tallies[k] for k in keys if k in tallies]
        return sum(t[0] for t in found), sum(t[1] for t in found)

    total = summed(tallies)[0]
    if group_by == "level":
        groups = [(label, summed([label])) for label in LEVEL_ORDER]
        groups.append(("non-major", summed(["minor", "patch"])))
        groups.append(("total", summed(tallies)))
    else:
        groups = [(f"{year}/{level}", summed([(year, level)])) for year, level in sorted(tallies)]
        for year in sorted({year for year, _ in tallies}):
            groups.append((f"{year}/non-major", summed([(year, "minor"), (year, "patch")])))

    table = []
    for label, (count, breaking) in groups:
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
