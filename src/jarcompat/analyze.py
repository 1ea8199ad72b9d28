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
import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Callable

from .corpus import run_forked, usable_cpus, write_csv
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


# Bytes of a results table read and counted at a time by ``_count_range``.
_CHUNK = 16 * 1024
# The bytes ``_count_range`` deletes to see a chunk's layout: all but the
# separators, quotes and CRs, so a chunk keeps its layout only if it is
# nothing but header-width rows that ``csv.reader`` would split the same way.
_NOT_LAYOUT = bytes(sorted(set(range(256)) - set(b',\n"\r')))
# The fewest bytes of both tables per range. On a 2-vCPU host a forked
# counter costs about 5 ms and one process counts about 9 ms per MiB; two
# ranges first beat one at 1.5 to 2 MiB of tables (medians of 40 counts).
_RANGE_BYTES = 1 << 20


def _count_cells(tables: list[tuple[Path, tuple[str, ...]]]) -> list[Counter[tuple[str, ...]]]:
    """How often each tuple of ``columns`` cells (two or more, in that order)
    occurs in each ``(path, columns)`` table.

    Columns are found by name in the header, so others may be absent or in
    any order. A missing file or a file without rows gives no counts. Rows
    are counted, never held, so memory depends on the number of distinct
    cell tuples and on ``_CHUNK``, not on the number of rows. A chunk's
    cells are held at once.

    The rows of each table are cut into n line-aligned ranges (``_ranges``):
    one per CPU this process may run on, but none under ``_RANGE_BYTES`` of
    both files, and one where the platform cannot move a process onto a
    CPU. Range k of every table is job k, which ``run_forked`` runs in
    process k: job 0 in this process and each other job in a process forked
    for it and placed on a CPU of its own. Without that placement, forked
    counters were seen to share their parent's CPU for up to a second while
    another CPU idled.

    ``_count_range`` reads a range ``_CHUNK`` bytes at a time and carries
    the partial last line into the next chunk; the last chunk takes the
    range's unterminated last line with it. The lines of a chunk are split
    once, on commas and line ends alike, and each column is the strided
    slice of its cells. That gives ``csv.reader``'s cells only where every
    line holds the header's number of cells and no quote or CR, which one
    comparison of the chunk's layout checks, where the text is UTF-8 and
    where no line is longer than ``csv.field_size_limit()``. A table whose
    header or any range fails these checks, a blank line included, is
    counted again, whole, by ``_count_rows``, the ``csv.reader`` reference,
    which skips, counts or rejects what they refused. Otherwise the
    bytes-keyed counts of its ranges are summed, and the distinct keys
    decoded once.

    On a 2-vCPU host, the two tables of the published MDG counts (120k
    upgrades, 50k clients, 13 MiB) count in-process in about 70 ms in two
    ranges, against 100-140 ms in one (medians of 30 counts, 5 runs each).
    """
    n = usable_cpus() if hasattr(os, "sched_getaffinity") else 1
    size = sum(path.stat().st_size for path, _ in tables if path.exists())
    while n > 1 and n * _RANGE_BYTES > size:
        n -= 1
    jobs = list(zip(*(_ranges(*table, n) for table in tables)))
    counts = []
    for table, parts in zip(tables, zip(*_count_jobs(jobs))):
        if None in parts:
            counts.append(_count_rows(*table))
        else:
            total = sum(parts, Counter())
            counts.append(Counter({tuple(c.decode("utf-8") for c in key): m for key, m in total.items()}))
    return counts


def _column_indices(path: Path, header: list[str], columns: tuple[str, ...]) -> list[int]:
    """Where ``columns`` are in ``header``, or a ValueError naming ``path`` and those it lacks."""
    position = {name: i for i, name in enumerate(header)}
    missing = [name for name in columns if name not in position]
    if missing:
        raise ValueError(f"{path}: no column {', '.join(missing)}")
    return [position[name] for name in columns]


def _ranges(path: Path, columns: tuple[str, ...], n: int) -> list[tuple | None]:
    """The rows of a table after its header as n spans ``(path, header
    width, column indices, start, end)`` that each begin a line, some maybe
    empty; or n Nones where the header is for ``csv.reader`` alone: one with
    a quote or CR, longer than ``csv.field_size_limit()`` or not UTF-8.
    Cut k ends the line at the k-th n-th of the rows' bytes, read at most
    ``csv.field_size_limit()`` bytes on, so a longer line is never read
    whole and the range it ends fails that limit."""
    empty = [(path, 0, [], 0, 0)] * n
    if not path.exists():
        return empty
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        header = handle.readline(limit + 1)
        if not header:
            return empty
        if b'"' in header or b"\r" in header or len(header) > limit:
            return [None] * n
        try:
            names = header.rstrip(b"\n").decode("utf-8").split(",")
        except UnicodeDecodeError:
            return [None] * n
        indices = _column_indices(path, names, columns)
        start, end = len(header), os.fstat(handle.fileno()).st_size
        cuts = [start]
        for k in range(1, n):
            handle.seek(max(cuts[-1], start + (end - start) * k // n))
            handle.readline(limit + 1)
            cuts.append(min(handle.tell(), end))
    cuts.append(end)
    return [(path, len(names), indices, cuts[k], cuts[k + 1]) for k in range(n)]


def _count_jobs(jobs: list[tuple]) -> list[list[Counter | None]]:
    """``_count_range`` of each span of each job (None for a span that is
    None), job k in process k of ``run_forked``."""
    return run_forked(len(jobs), lambda k: [span and _count_range(*span) for span in jobs[k]])


def _count_range(path: Path, width: int, indices: list[int], start: int, end: int) -> Counter | None:
    """The bytes-keyed ``_count_cells`` of the rows from ``start`` to ``end``
    of ``path``, or None where only ``csv.reader`` can tell their cells."""
    counts: Counter[tuple[bytes, ...]] = Counter()
    if start == end:
        return counts
    limit = csv.field_size_limit()
    carry = b""
    with open(path, "rb") as handle:
        handle.seek(start)
        for at in range(start, end, _CHUNK):
            text = carry + handle.read(min(_CHUNK, end - at))
            if len(text) > limit:
                return None
            cut = text.rfind(b"\n") + 1 if at + _CHUNK < end else len(text)
            carry = text[cut:]
            if not cut:
                continue
            lines = text[:cut].removesuffix(b"\n")
            if not lines.isascii():
                try:
                    lines.decode("utf-8")
                except UnicodeDecodeError:
                    return None
            layout = lines.translate(None, _NOT_LAYOUT) + b"\n"
            if layout != (b"," * (width - 1) + b"\n") * (len(layout) // width):
                return None
            cells = lines.replace(b"\n", b",").split(b",")
            counts.update(zip(*(cells[i::width] for i in indices)))
    return counts


def _count_rows(path: Path, columns: tuple[str, ...]) -> Counter[tuple[str, ...]]:
    """``_count_cells`` of one table through ``csv.reader``, which skips
    blank lines as ``csv.DictReader`` does. A row with too few cells, a row
    ``csv.reader`` rejects and text that is not UTF-8 are ValueErrors naming
    the file, and the physical line for the first two, the header being
    line 1."""
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
    except (KeyError, ValueError):
        raise ValueError(f"{path}: bad {column} cell {text!r}") from None


_LEVELS = dict(zip(LEVEL_ORDER, LEVEL_ORDER))
_BREAKING = {"true": True, "false": False}
# corpus run leaves ``broken`` empty for a client whose JAR it could not
# read, which no battery counts.
_BROKEN = {**_BREAKING, "": None}


def _whole_number(text: str) -> int:
    """A whole number of zero or more written in ASCII digits, as ``corpus run`` writes a count."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


# A battery's pairwise test takes two levels' data and gives the p-value, the
# effect-size cells of the CSV row and the report's note on the effect.


def _fisher(a: tuple[int, int], b: tuple[int, int]) -> tuple[float, list[str], str]:
    (a_broken, a_total), (b_broken, b_total) = a, b
    p = fisher_exact([[a_broken, a_total - a_broken], [b_broken, b_total - b_broken]]).p_value
    ratio = f"{odds_ratio(a_broken, a_total, b_broken, b_total):.2f}"  # "inf" when undefined
    return p, [ratio], f"odds ratio {ratio}"


def _mann_whitney(xs: Counter[int], ys: Counter[int]) -> tuple[float, list[str], str]:
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
# Data per level: how many broken clients have each detection count.
DETECTIONS = Battery(
    "## Detections per broken client", "Kruskal-Wallis across levels", "H",
    lambda levels: kruskal_wallis([counts for _, counts in levels]),
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
        upgrades, clients = _read_tables(Path(results_dir))
    else:
        summary = _read_summary(Path(summary_json))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    narrative = ["# Corpus analysis", ""]
    if summary_json is None:
        _write_tables(upgrades, clients, out, narrative)
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


def _read_tables(results: Path) -> tuple[Counter, Counter]:
    """The converted cell counts of ``upgrades.csv``, keyed (level, breaking,
    year), and of ``clients.csv``, keyed (level, broken, detections), where
    an unreadable client's ``broken`` is None and only a broken client's
    detections are read. A cell that does not convert is a ValueError that
    names the file, the column and the cell."""
    upgrades_csv, clients_csv = results / "upgrades.csv", results / "clients.csv"
    upgrades, clients = _count_cells([
        (upgrades_csv, ("level", "breaking", "year")),
        (clients_csv, ("level", "broken", "detections")),
    ])
    cells: Counter[tuple[str, bool, int]] = Counter()
    for (level, breaking, year), n in upgrades.items():
        cells[
            _cell(_LEVELS.__getitem__, level, upgrades_csv, "level"),
            _cell(_BREAKING.__getitem__, breaking, upgrades_csv, "breaking"),
            _cell(int, year, upgrades_csv, "year"),
        ] += n
    verdicts: Counter[tuple[str, bool | None, int | None]] = Counter()
    for (level, broken, detections), n in clients.items():
        level = _cell(_LEVELS.__getitem__, level, clients_csv, "level")
        broken = _cell(_BROKEN.__getitem__, broken, clients_csv, "broken")
        count = _cell(_whole_number, detections, clients_csv, "detections") if broken else None
        verdicts[level, broken, count] += n
    return cells, verdicts


def _write_tables(cells: Counter, clients: Counter, out: Path, narrative: list[str]) -> None:
    """The breaking ratios from the upgrade counts and both batteries from the client counts."""
    if cells:
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
        detections: dict[str, Counter[int]] = {}
        for (level, verdict, count), n in clients.items():
            if verdict is not None:
                sampled[level] += n
            if verdict:
                broken[level] += n
                detections.setdefault(level, Counter())[count] += n
        PROPORTIONS.run({level: (broken[level], n) for level, n in sampled.items()}, out, narrative)
        DETECTIONS.run(detections, out, narrative)
