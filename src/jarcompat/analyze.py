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
from functools import partial
from itertools import combinations
from operator import itemgetter
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


# Bytes of a results table read and counted at a time by ``_count_columns``.
_CHUNK = 16 * 1024
# The bytes ``_count_columns`` deletes to see a chunk's layout: all but the
# separators, quotes and CRs, so a chunk keeps its layout only if it is
# nothing but header-width rows that ``csv.reader`` would split the same way.
_NOT_LAYOUT = bytes(sorted(set(range(256)) - set(b',\n"\r')))


def _count_cells(path: Path, columns: tuple[str, ...]) -> Counter[tuple[str, ...]]:
    """How often each tuple of ``columns`` cells (two or more, in that order) occurs in ``path``.

    Columns are found by name in the header, so others may be absent or in
    any order. ``_count_columns`` counts a table split on commas and line
    ends; where it cannot tell the cells as ``csv.reader`` would, the whole
    table is counted again with ``csv.reader`` by ``_count_rows``, the
    reference. A missing file or a file without rows gives no counts.

    Rows are counted, never held, so memory depends on the number of distinct
    cell tuples and on ``_CHUNK``, not on the number of rows. A chunk's cells
    are held at once. On a 2-vCPU host, the two tables of the published MDG
    counts (120k upgrades, 50k clients) count in about 92 ms in-process,
    against 128 ms when each line was split on its own. Analyzing them in 6
    alternating runs, 64 KiB chunks ran about 4% faster than 16 KiB ones but
    raised peak RSS by 0.13 MB in every run, so chunks are 16 KiB.
    """
    if not path.exists():
        return Counter()
    counts = _count_columns(path, columns)
    return _count_rows(path, columns) if counts is None else counts


def _column_indices(path: Path, header: list[str], columns: tuple[str, ...]) -> list[int]:
    """Where ``columns`` are in ``header``, or a ValueError naming ``path`` and those it lacks."""
    position = {name: i for i, name in enumerate(header)}
    missing = [name for name in columns if name not in position]
    if missing:
        raise ValueError(f"{path}: no column {', '.join(missing)}")
    return [position[name] for name in columns]


def _count_columns(path: Path, columns: tuple[str, ...]) -> Counter[tuple[str, ...]] | None:
    """``_count_cells`` over the bytes of ``path``, or None where only
    ``csv.reader`` can tell its cells.

    The header line is split on ``","``. The rows after it are read
    ``_CHUNK`` bytes at a time, and the partial last line is carried into
    the next chunk. The complete lines of a chunk are split once, on commas
    and line ends alike, and each column is the strided slice of its cells.
    That gives ``csv.reader``'s cells only where every line holds the
    header's number of cells and no quote or CR, which one comparison of the
    chunk's layout checks, and where no line is longer than
    ``csv.field_size_limit()``. Anything else, a blank line or text that is
    not UTF-8 included, gives None, so ``csv.reader`` skips, counts or
    rejects it. Cells are decoded once, in the distinct keys at the end.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        header = handle.readline(limit + 1)
        if not header:
            return Counter()
        if b'"' in header or b"\r" in header or len(header) > limit:
            return None
        try:
            names = header.rstrip(b"\n").decode("utf-8").split(",")
        except UnicodeDecodeError:
            return None
        indices = _column_indices(path, names, columns)
        counts: Counter[tuple[bytes, ...]] = Counter()
        carry = b""
        for block in iter(partial(handle.read, _CHUNK), b""):
            text = carry + block
            if len(text) > limit:
                return None
            cut = text.rfind(b"\n") + 1
            carry = text[cut:]
            if cut and not _count_lines(counts, text[:cut - 1], len(names), indices):
                return None
        if carry and not _count_lines(counts, carry, len(names), indices):
            return None
    return Counter({tuple(cell.decode("utf-8") for cell in key): n for key, n in counts.items()})


def _count_lines(counts: Counter, lines: bytes, width: int, indices: list[int]) -> bool:
    """Count the ``indices`` cells of ``lines`` (rows without the last line
    end) into ``counts``; False unless ``lines`` is UTF-8 and its layout is
    ``width`` cells a line."""
    if not lines.isascii():
        try:
            lines.decode("utf-8")
        except UnicodeDecodeError:
            return False
    layout = lines.translate(None, _NOT_LAYOUT) + b"\n"
    if layout != (b"," * (width - 1) + b"\n") * (len(layout) // width):
        return False
    cells = lines.replace(b"\n", b",").split(b",")
    counts.update(zip(*(cells[i::width] for i in indices)))
    return True


def _count_rows(path: Path, columns: tuple[str, ...]) -> Counter[tuple[str, ...]]:
    """``_count_cells`` through ``csv.reader``, which skips blank lines as
    ``csv.DictReader`` does. A row with too few cells, a row ``csv.reader``
    rejects and text that is not UTF-8 are ValueErrors naming the file, and
    the physical line for the first two, the header being line 1."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                return Counter()
            pick = itemgetter(*_column_indices(path, header, columns))
            return Counter(map(pick, filter(None, reader)))
        except IndexError:
            raise ValueError(f"{path}:{reader.line_num}: too few cells") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _cell(convert, text: str, path: Path, column: str):
    """``convert(text)``, or a ValueError that names the file, the column and the cell."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{path}: bad {column} cell {text!r}") from None


def _known_level(text: str) -> None:
    if text not in LEVEL_ORDER:
        raise ValueError(text)


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
        summary = _read_summary(Path(summary_json))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    narrative = ["# Corpus analysis", ""]
    if summary_json is None:
        _analyze_tables(Path(results_dir), out, narrative)
    else:
        rows = [
            [level, population, sample, broken, round(100.0 * broken / sample, 1) if sample else None]
            for level, (population, sample, broken) in summary.items()
        ]
        write_csv(out / "proportions.csv", ("level", "population", "sample", "broken", "pct_broken"), rows)
        PROPORTIONS.run({level: (broken, sample) for level, (_, sample, broken) in summary.items()}, out, narrative)
    (out / "report.md").write_text("\n".join(narrative) + "\n", encoding="utf-8")


def _read_summary(path: Path) -> dict[str, tuple[int, int, int]]:
    """The (population, sample, broken) counts of each level in a summary
    JSON, in ``LEVEL_ORDER``. Each level is ``{"population": N, "sample": n,
    "broken": b}``, where a missing population is 0. Anything else is a
    ValueError naming the file, and the level and field where there is one."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    levels = document.get("levels") if isinstance(document, dict) else None
    if not isinstance(levels, dict):
        raise ValueError(f'{path}: no "levels" object')
    unknown = sorted(set(levels) - set(LEVEL_ORDER))
    if unknown:
        raise ValueError(
            f"{path}: unknown level {', '.join(map(repr, unknown))}; levels are {', '.join(LEVEL_ORDER)}"
        )
    summary = {}
    for level in LEVEL_ORDER:
        if level not in levels:
            continue
        entry = levels[level]
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: level {level!r} is not an object")
        counts = []
        for field in ("population", "sample", "broken"):
            if field not in entry and field != "population":
                raise ValueError(f"{path}: level {level!r} has no {field}")
            value = entry.get(field, 0)
            if type(value) is not int or value < 0:
                raise ValueError(f"{path}: level {level!r} {field} {json.dumps(value)} is not a count")
            counts.append(value)
        population, sample, broken = counts
        if broken > sample:
            raise ValueError(f"{path}: level {level!r} broken {broken} exceeds sample {sample}")
        summary[level] = (population, sample, broken)
    return summary


def _analyze_tables(results: Path, out: Path, narrative: list[str]) -> None:
    """The breaking ratios from ``upgrades.csv`` and both batteries from ``clients.csv``."""
    upgrades_csv, clients_csv = results / "upgrades.csv", results / "clients.csv"
    upgrades = _count_cells(upgrades_csv, ("level", "breaking", "year"))
    clients = _count_cells(clients_csv, ("level", "broken", "detections"))

    if upgrades:
        cells: Counter[tuple[str, bool, int]] = Counter()
        for (level, breaking, year), n in upgrades.items():
            _cell(_known_level, level, upgrades_csv, "level")
            cells[level, breaking == "true", _cell(int, year, upgrades_csv, "year")] += n
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
            _cell(_known_level, level, clients_csv, "level")
            if verdict in ("true", "false"):
                sampled[level] += n
            if verdict == "true":
                broken[level] += n
                # The rank tests depend only on the multiset of values.
                value = _cell(float, detections, clients_csv, "detections")
                values.setdefault(level, []).extend([value] * n)
        PROPORTIONS.run({level: (broken[level], n) for level, n in sampled.items()}, out, narrative)
        DETECTIONS.run(values, out, narrative)
