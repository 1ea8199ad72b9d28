"""Report generation over pipeline outputs or injected summary counts.

From a ``corpus run`` results directory: breaking-upgrade ratios per semver
level (plus non-major and total rows), the year-by-level trend series, and
two client-impact batteries (see ``Battery``): chi-squared, Fisher and odds
ratios on broken-client proportions; Kruskal-Wallis, Mann-Whitney and
Cliff's delta on detection counts. From a summary JSON of per-level
(population, sample, broken) counts, the proportion battery alone, which
checks published tables without the underlying corpus.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Callable

from .corpus import write_csv
from .stats import (
    DegenerateTable,
    LEVEL_ORDER,
    TestResult,
    breaking_ratio,
    chi_squared,
    cliffs_delta,
    fisher_exact,
    holm_bonferroni,
    kruskal_wallis,
    mann_whitney,
    odds_ratio,
)

# Significance stars at the usual thresholds.
STARS = ((0.01, "***"), (0.05, "**"), (0.1, "*"))

RATIO_COLUMNS = ("group", "count", "share_pct", "breaking", "breaking_pct")


def significance(p: float) -> str:
    for threshold, stars in STARS:
        if p < threshold:
            return stars
    return ""


# Characters of a results table read and counted at a time by ``_count_cells``.
_CHUNK = 64 * 1024


def _count_cells(path: Path, columns: tuple[str, ...]) -> Counter[tuple[str, ...]]:
    """How often each tuple of ``columns`` cells (two or more, in that order) occurs in ``path``.

    ``csv.reader`` reads the header, and columns are found by name in it, so
    others may be absent or in any order. The rows after it are read
    ``_CHUNK`` characters at a time: the complete lines of each chunk are
    split on ``","`` and counted, and the partial last line is carried into
    the next chunk. For text without a quote or a carriage return, which
    jarcompat's writers never put in these tables, that gives the cells
    ``csv.reader`` gives. At the first chunk that holds either, or more text
    than ``csv.field_size_limit()``, the counts so far are dropped and the
    whole table is counted with ``csv.reader``, the reference for quoted or
    CR-terminated tables and for cells it rejects. Both ways skip blank lines,
    as ``csv.DictReader`` does, and name the physical line of a row with too
    few cells, the header being line 1. Text that is not UTF-8, and a row
    that ``csv.reader`` rejects, are ValueErrors naming the file, and the
    line for the latter. A missing file or a file without rows gives no
    counts.

    Rows are counted, never held, so memory depends on the number of distinct
    cell tuples and on ``_CHUNK``, not on the number of rows. A chunk's lines
    are held at once. Analyzing the published MDG counts on a 2-vCPU host
    (12 runs each), 64 KiB chunks raised peak RSS by under 1% over counting
    with ``csv.reader`` alone; 16 KiB kept it flat but ran no faster, and
    256 KiB ran slower (median 0.35 s against 0.24 s).
    """
    if not path.exists():
        return Counter()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                return Counter()
            position = {name: i for i, name in enumerate(header)}
            missing = [name for name in columns if name not in position]
            if missing:
                raise ValueError(f"{path}: no column {', '.join(missing)}")
            indices = [position[name] for name in columns]
            pick = itemgetter(*indices)
            counts = _count_split(handle, path, reader.line_num, pick, max(indices) + 1)
            if counts is not None:
                return counts
            handle.seek(0)
            reader = csv.reader(handle)
            next(reader)
            return Counter(map(pick, filter(None, reader)))
        except IndexError:
            raise ValueError(f"{path}:{reader.line_num}: too few cells") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _count_split(handle, path: Path, line: int, pick, width: int) -> Counter[tuple[str, ...]] | None:
    """The rest of ``handle``, after ``line`` lines, counted by splitting, or
    None where only ``csv.reader`` can tell the cells: at a quote, a CR, or
    text longer than its field limit. ``pick`` takes cells below ``width``."""
    split = methodcaller("split", ",", width)
    limit = csv.field_size_limit()
    counts: Counter[tuple[str, ...]] = Counter()
    carry = ""
    while True:
        block = handle.read(_CHUNK)
        if '"' in block or "\r" in block:
            return None
        text = carry + block
        if len(text) > limit:
            return None
        lines = text.split("\n")
        carry = lines.pop() if block else ""
        try:
            counts.update(map(pick, map(split, filter(None, lines))))
        except IndexError:
            short = next(i for i, row in enumerate(lines, 1) if row and len(split(row)) < width)
            raise ValueError(f"{path}:{line + short}: too few cells") from None
        if not block:
            return counts
        line += len(lines)


def _cell(convert, text: str, path: Path, column: str):
    """``convert(text)``, or a ValueError that names the file, the column and the cell."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: bad {column} cell {text!r}") from None


# A battery's pairwise test takes two levels' data and gives the p-value, the
# effect-size cells of the CSV row and the report's note on the effect.


def _fisher(a: tuple[int, int], b: tuple[int, int]) -> tuple[float, list[str], str]:
    (a_broken, a_total), (b_broken, b_total) = a, b
    p = fisher_exact([[a_broken, a_total - a_broken], [b_broken, b_total - b_broken]]).p_value
    ratio = f"{odds_ratio(a_broken, a_total, b_broken, b_total):.2f}"  # "inf" when undefined
    return p, [ratio], f"odds ratio {ratio}"


def _mann_whitney(xs: list[float], ys: list[float]) -> tuple[float, list[str], str]:
    p = mann_whitney(xs, ys).p_value
    delta, label = cliffs_delta(xs, ys)
    return p, [f"{delta:.3f}", label], f"Cliff's delta {delta:.2f} ({label})"


@dataclass(frozen=True)
class Battery:
    """An omnibus test across levels, then every pair of levels with
    Holm-adjusted p-values, reported in ``report.md`` and one pairwise CSV.
    The tests look the statistics up when called, so a wrapped one is used."""

    heading: str
    omnibus_name: str
    statistic_name: str
    omnibus: Callable[[list], TestResult]  # takes the (level, data) of every level tested
    pairwise: Callable[[object, object], tuple[float, list[str], str]]
    file_name: str
    effect_columns: tuple[str, ...]

    def run(self, data: dict[str, object], out: Path, narrative: list[str]) -> None:
        """Test the levels ``data`` holds, in ``LEVEL_ORDER``, and write the results."""
        levels = [level for level in LEVEL_ORDER if level in data]
        narrative += [self.heading, ""]
        if len(levels) > 1:
            try:
                result = self.omnibus([(level, data[level]) for level in levels])
            except DegenerateTable as exc:
                narrative.append(f"- {self.omnibus_name}: undefined for this table ({exc})")
            else:
                narrative.append(
                    f"- {self.omnibus_name}: {self.statistic_name} {result.statistic:.2f}, "
                    f"p {result.p_value:.3g} {significance(result.p_value)}"
                )
        pairs = [(f"{a} vs {b}", *self.pairwise(data[a], data[b])) for a, b in combinations(levels, 2)]
        rows = []
        for (pair, p, effect, note), p_adj in zip(pairs, holm_bonferroni([p for _, p, _, _ in pairs])):
            stars = significance(p_adj)
            rows.append([pair, f"{p:.6g}", f"{p_adj:.6g}", *effect, stars])
            narrative.append(f"- {pair}: p_adj {p_adj:.3g} {stars}, {note}")
        narrative.append("")
        write_csv(out / self.file_name, ("pair", "p", "p_adj", *self.effect_columns, "significance"), rows)


# Data per level: (broken, sampled) clients.
PROPORTIONS = Battery(
    "## Broken-client proportions", "chi-squared across levels", "statistic",
    lambda levels: chi_squared([(b, n - b) for _, (b, n) in levels]),
    _fisher, "q3_pairwise_fisher.csv", ("odds_ratio",),
)
# Data per level: the detection counts of the broken clients.
DETECTIONS = Battery(
    "## Detections per broken client", "Kruskal-Wallis across levels", "H",
    lambda levels: kruskal_wallis([values for _, values in levels]),
    _mann_whitney, "q3_pairwise_mannwhitney.csv", ("cliffs_delta", "interpretation"),
)


def analyze_results(
    results_dir: str | Path | None, out_dir: str | Path, summary_json: str | Path | None = None
) -> None:
    """Write the report set of one input, a ``corpus run`` results directory
    or a summary JSON of per-level counts, into ``out_dir``."""
    if (results_dir is None) == (summary_json is None):
        raise ValueError("need exactly one input: a results directory or a summary JSON")
    if summary_json is None:
        if not Path(results_dir).is_dir():
            raise ValueError(f"{results_dir}: no such results directory")
    else:
        # Each level is {"population": N, "sample": n, "broken": b}.
        levels = json.loads(Path(summary_json).read_text(encoding="utf-8"))["levels"]
        unknown = sorted(set(levels) - set(LEVEL_ORDER))
        if unknown:
            raise ValueError(
                f"{summary_json}: unknown level {', '.join(map(repr, unknown))}; "
                f"levels are {', '.join(LEVEL_ORDER)}"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    narrative = ["# Corpus analysis", ""]
    if summary_json is None:
        _analyze_tables(Path(results_dir), out, narrative)
    else:
        counts: dict[str, tuple[int, int]] = {}
        rows = []
        for level in LEVEL_ORDER:
            if level in levels:
                entry = levels[level]
                broken, sample = int(entry["broken"]), int(entry["sample"])
                counts[level] = (broken, sample)
                pct = round(100.0 * broken / sample, 1) if sample else None
                rows.append([level, int(entry.get("population", 0)), sample, broken, pct])
        write_csv(out / "proportions.csv", ("level", "population", "sample", "broken", "pct_broken"), rows)
        PROPORTIONS.run(counts, out, narrative)
    (out / "report.md").write_text("\n".join(narrative) + "\n", encoding="utf-8")


def _analyze_tables(results: Path, out: Path, narrative: list[str]) -> None:
    """The breaking ratios from ``upgrades.csv`` and both batteries from ``clients.csv``."""
    upgrades = _count_cells(results / "upgrades.csv", ("level", "breaking", "year"))
    clients = _count_cells(results / "clients.csv", ("level", "broken", "detections"))

    if upgrades:
        cells: Counter[tuple[str, bool, int]] = Counter()
        for (level, breaking, year), n in upgrades.items():
            cells[level, breaking == "true", _cell(int, year, results / "upgrades.csv", "year")] += n
        levels = breaking_ratio(cells, "level")
        for file_name, table in (("q1_ratios.csv", levels), ("q2_trend.csv", breaking_ratio(cells, "year_level"))):
            write_csv(out / file_name, RATIO_COLUMNS, [[r[c] for c in RATIO_COLUMNS] for r in table])
        narrative += ["## Breaking upgrades per level", ""]
        for r in levels:
            pct = "n/a" if r["breaking_pct"] is None else f"{r['breaking_pct']}%"
            narrative.append(f"- {r['group']}: {r['breaking']}/{r['count']} breaking ({pct})")
        narrative.append("")

    if clients:
        sampled: Counter[str] = Counter()
        broken: Counter[str] = Counter()
        values: dict[str, list[float]] = {}
        for (level, verdict, detections), n in clients.items():
            if verdict in ("true", "false"):
                sampled[level] += n
            if verdict == "true":
                broken[level] += n
                # The rank tests depend only on the multiset of values.
                value = _cell(float, detections, results / "clients.csv", "detections")
                values.setdefault(level, []).extend([value] * n)
        PROPORTIONS.run({level: (broken[level], n) for level, n in sampled.items()}, out, narrative)
        DETECTIONS.run(values, out, narrative)
