"""Report generation over pipeline outputs or injected summary counts.

Produces three report families:

* breaking-upgrade ratios per semver level (plus non-major and total rows);
* the year-by-level trend series for external plotting;
* the client-impact battery: chi-squared across levels, pairwise Fisher
  tests with Holm-Bonferroni correction and odds ratios, Kruskal-Wallis on
  detection counts, and pairwise Mann-Whitney with Cliff's delta.

The same battery runs on precomputed per-level (population, sample, broken)
counts supplied as a summary JSON, which allows checking published tables
without the underlying corpus.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from operator import itemgetter
from pathlib import Path

from .corpus import write_csv
from .stats import (
    ContingencyTable,
    LEVEL_ORDER,
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


def significance(p: float) -> str:
    for threshold, stars in STARS:
        if p < threshold:
            return stars
    return ""


def _read_csv(path: Path, columns: tuple[str, ...]) -> Counter[tuple[str, ...]]:
    """How often each tuple of ``columns`` cells (two or more, in that order) occurs in ``path``.

    The rows are streamed and counted, never held, so memory depends on the
    number of distinct cell tuples, not rows. Columns are found by header
    name, so others may be absent or in any order; blank lines are skipped,
    as ``csv.DictReader`` skips them. A missing file or a file without rows
    gives no counts.
    """
    if not path.exists():
        return Counter()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return Counter()
        position = {name: i for i, name in enumerate(header)}
        missing = [name for name in columns if name not in position]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)}")
        pick = itemgetter(*(position[name] for name in columns))
        try:
            return Counter(map(pick, filter(None, reader)))
        except IndexError:
            raise ValueError(f"{path}:{reader.line_num}: too few cells") from None


def _cell(convert, text: str, path: Path, column: str):
    """``convert(text)``, or a ValueError that names the file, the column and the cell."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: bad {column} cell {text!r}") from None


def level_pairs() -> list[tuple[str, str]]:
    return [
        (LEVEL_ORDER[i], LEVEL_ORDER[j])
        for i in range(len(LEVEL_ORDER))
        for j in range(i + 1, len(LEVEL_ORDER))
    ]


def proportion_tests(level_counts: dict[str, tuple[int, int]]) -> dict:
    """Chi-squared across levels plus pairwise Fisher / Holm / odds ratios.

    ``level_counts`` maps level -> (broken, sample_size).
    """
    rows = []
    for level in LEVEL_ORDER:
        if level not in level_counts:
            continue
        broken, total = level_counts[level]
        rows.append((level, (broken, total - broken)))
    if len(rows) < 2:
        return {"chi2": None, "pairs": []}
    chi2 = chi_squared(ContingencyTable(rows=rows))

    pairs = []
    raw_ps = []
    for a, b in level_pairs():
        if a not in level_counts or b not in level_counts:
            continue
        a_broken, a_total = level_counts[a]
        b_broken, b_total = level_counts[b]
        fisher = fisher_exact(
            [[a_broken, a_total - a_broken], [b_broken, b_total - b_broken]]
        )
        ratio = odds_ratio(a_broken, a_total, b_broken, b_total)
        pairs.append({"pair": f"{a} vs {b}", "p": fisher.p_value, "odds_ratio": ratio})
        raw_ps.append(fisher.p_value)
    for entry, adjusted in zip(pairs, holm_bonferroni(raw_ps)):
        entry["p_adj"] = adjusted
        entry["significance"] = significance(adjusted)
    return {"chi2": chi2, "pairs": pairs}


def detection_tests(level_values: dict[str, list[float]]) -> dict:
    """Kruskal-Wallis plus pairwise Mann-Whitney / Holm / Cliff's delta."""
    groups = [level_values[level] for level in LEVEL_ORDER if level_values.get(level)]
    if len(groups) < 2:
        return {"kruskal": None, "pairs": []}
    kruskal = kruskal_wallis(groups)

    pairs = []
    raw_ps = []
    for a, b in level_pairs():
        xs = level_values.get(a) or []
        ys = level_values.get(b) or []
        if not xs or not ys:
            continue
        mw = mann_whitney(xs, ys)
        delta, label = cliffs_delta(xs, ys)
        pairs.append(
            {"pair": f"{a} vs {b}", "p": mw.p_value, "cliffs_delta": delta, "interpretation": label}
        )
        raw_ps.append(mw.p_value)
    for entry, adjusted in zip(pairs, holm_bonferroni(raw_ps)):
        entry["p_adj"] = adjusted
        entry["significance"] = significance(adjusted)
    return {"kruskal": kruskal, "pairs": pairs}


def analyze_summary_counts(levels: dict[str, dict]) -> dict:
    """Run the proportion battery on injected per-level counts.

    ``levels`` maps level name to {"population": N, "sample": n, "broken": b}.
    """
    proportions = []
    counts: dict[str, tuple[int, int]] = {}
    for level in LEVEL_ORDER:
        if level not in levels:
            continue
        entry = levels[level]
        broken, sample = int(entry["broken"]), int(entry["sample"])
        counts[level] = (broken, sample)
        proportions.append(
            {
                "level": level,
                "population": int(entry.get("population", 0)),
                "sample": sample,
                "broken": broken,
                "pct_broken": round(100.0 * broken / sample, 1) if sample else None,
            }
        )
    battery = proportion_tests(counts)
    return {"proportions": proportions, "tests": battery}


def analyze_results(results_dir: str | Path, out_dir: str | Path, summary_json: str | Path | None = None) -> dict:
    """Generate the full report set into ``out_dir``; returns the summary dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    narrative: list[str] = ["# Corpus analysis", ""]
    produced: dict = {}

    if summary_json is not None:
        payload = json.loads(Path(summary_json).read_text(encoding="utf-8"))
        outcome = analyze_summary_counts(payload["levels"])
        produced["summary_counts"] = outcome
        write_csv(
            out / "proportions.csv",
            ["level", "population", "sample", "broken", "pct_broken"],
            [[r["level"], r["population"], r["sample"], r["broken"], r["pct_broken"]]
             for r in outcome["proportions"]],
        )
        _emit_proportion_reports(out, outcome["tests"], narrative)

    results = Path(results_dir) if results_dir is not None else None
    upgrades = _read_csv(results / "upgrades.csv", ("level", "breaking", "year")) if results else Counter()
    clients = _read_csv(results / "clients.csv", ("level", "broken", "detections")) if results else Counter()

    if upgrades:
        cells: Counter[tuple[str, bool, int]] = Counter()
        for (level, breaking, year), n in upgrades.items():
            cells[level, breaking == "true", _cell(int, year, results / "upgrades.csv", "year")] += n
        ratio_table = breaking_ratio(cells, "level")
        produced["q1"] = ratio_table
        write_csv(
            out / "q1_ratios.csv",
            ["group", "count", "share_pct", "breaking", "breaking_pct"],
            [[r["group"], r["count"], r["share_pct"], r["breaking"], r["breaking_pct"]]
             for r in ratio_table],
        )
        trend = breaking_ratio(cells, "year_level")
        produced["q2"] = trend
        write_csv(
            out / "q2_trend.csv",
            ["group", "count", "share_pct", "breaking", "breaking_pct"],
            [[r["group"], r["count"], r["share_pct"], r["breaking"], r["breaking_pct"]]
             for r in trend],
        )
        narrative.append("## Breaking upgrades per level")
        narrative.append("")
        for r in ratio_table:
            pct = "n/a" if r["breaking_pct"] is None else f"{r['breaking_pct']}%"
            narrative.append(f"- {r['group']}: {r['breaking']}/{r['count']} breaking ({pct})")
        narrative.append("")

    if clients:
        counts: dict[str, tuple[int, int]] = {}
        values: dict[str, list[float]] = {}
        for (level, broken_cell, detections), n in clients.items():
            if broken_cell not in ("true", "false"):
                continue
            broken, total = counts.get(level, (0, 0))
            is_broken = broken_cell == "true"
            counts[level] = (broken + (n if is_broken else 0), total + n)
            if is_broken:
                # The rank tests depend only on the multiset of values.
                value = _cell(float, detections, results / "clients.csv", "detections")
                values.setdefault(level, []).extend([value] * n)
        produced["q3_proportions"] = proportion_tests(counts)
        _emit_proportion_reports(out, produced["q3_proportions"], narrative)
        produced["q3_detections"] = detection_tests(values)
        _emit_detection_reports(out, produced["q3_detections"], narrative)

    (out / "report.md").write_text("\n".join(narrative) + "\n", encoding="utf-8")
    return produced


def _emit_proportion_reports(out: Path, battery: dict, narrative: list[str]) -> None:
    chi2 = battery.get("chi2")
    narrative.append("## Broken-client proportions")
    narrative.append("")
    if chi2 is not None:
        narrative.append(
            f"- chi-squared across levels: statistic {chi2.statistic:.2f}, "
            f"p {chi2.p_value:.3g} {significance(chi2.p_value)}"
        )
    rows = []
    for pair in battery.get("pairs", []):
        rows.append(
            [pair["pair"], f"{pair['p']:.6g}", f"{pair['p_adj']:.6g}",
             "inf" if pair["odds_ratio"] == float("inf") else f"{pair['odds_ratio']:.2f}",
             pair["significance"]]
        )
        narrative.append(
            f"- {pair['pair']}: p_adj {pair['p_adj']:.3g} {pair['significance']}, "
            f"odds ratio {pair['odds_ratio']:.2f}"
        )
    narrative.append("")
    write_csv(out / "q3_pairwise_fisher.csv", ["pair", "p", "p_adj", "odds_ratio", "significance"], rows)


def _emit_detection_reports(out: Path, battery: dict, narrative: list[str]) -> None:
    kruskal = battery.get("kruskal")
    narrative.append("## Detections per broken client")
    narrative.append("")
    if kruskal is not None:
        narrative.append(
            f"- Kruskal-Wallis across levels: H {kruskal.statistic:.2f}, "
            f"p {kruskal.p_value:.3g} {significance(kruskal.p_value)}"
        )
    rows = []
    for pair in battery.get("pairs", []):
        rows.append(
            [pair["pair"], f"{pair['p']:.6g}", f"{pair['p_adj']:.6g}",
             f"{pair['cliffs_delta']:.3f}", pair["interpretation"], pair["significance"]]
        )
        narrative.append(
            f"- {pair['pair']}: p_adj {pair['p_adj']:.3g} {pair['significance']}, "
            f"Cliff's delta {pair['cliffs_delta']:.2f} ({pair['interpretation']})"
        )
    narrative.append("")
    write_csv(
        out / "q3_pairwise_mannwhitney.csv",
        ["pair", "p", "p_adj", "cliffs_delta", "interpretation", "significance"],
        rows,
    )
