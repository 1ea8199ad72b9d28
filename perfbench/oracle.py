"""Output checks that do not use jarcompat as the reference.

Corpus outputs are compared with the generator's planted oracle; analysis
outputs are recomputed with scipy and numpy from the generator's raw data.
Every check returns ``Verdict(attempted, failed, problems)``, counting rows:
a missing, extra or disagreeing row is one failure.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

from gen import LEVELS, CorpusOracle, ResultsOracle

# Relative tolerance on p-values written with 6 significant digits; the
# normal and chi-squared tails are approximations, the exact tests are not.
P_REL_TOL = 1e-4
# Values written with 3 significant digits (report.md) or 2-3 decimals.
P3_REL_TOL = 6e-3
STAT_ABS_TOL = 6e-3
CLIFFS_ABS_TOL = 6e-4
ODDS_ABS_TOL = 6e-3


# Rows checked per analysis: q1 per level, Fisher and Mann-Whitney per level
# pair, and the chi-squared and Kruskal-Wallis omnibus tests.
LEVEL_PAIRS = [(a, b) for i, a in enumerate(LEVELS) for b in LEVELS[i + 1:]]
ANALYSIS_ROWS = len(LEVELS) + 2 * len(LEVEL_PAIRS) + 2


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _compare_rows(verdict: Verdict, label: str, expected: dict, actual: dict) -> None:
    for key, want in expected.items():
        got = actual.get(key)
        if got is None:
            verdict.check(False, f"{label} {key}: missing")
            continue
        wrong = {col: (got.get(col), value) for col, value in want.items() if got.get(col) != value}
        verdict.check(not wrong, f"{label} {key}: got/want {wrong}")
    for key in sorted(set(actual) - set(expected)):
        verdict.check(False, f"{label} {key}: unexpected row")


def check_corpus(out: Path, oracle: CorpusOracle) -> Verdict:
    """``upgrades.csv`` and ``clients.csv`` against the planted oracle."""
    verdict = Verdict()
    try:
        upgrades = _read_csv(out / "upgrades.csv")
        clients = _read_csv(out / "clients.csv")
    except (OSError, csv.Error) as exc:
        return Verdict(oracle.rows, oracle.rows, [f"unreadable output: {exc}"])
    _compare_rows(
        verdict, "upgrade", oracle.upgrades,
        {(r["group"], r["artifact"], r["v1"], r["v2"]): r for r in upgrades},
    )
    _compare_rows(
        verdict, "client", oracle.clients,
        {(r["client"], r["library"], r["v1"], r["v2"]): r for r in clients},
    )
    return verdict


def snapshot(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` by relative path."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def check_identical(out: Path, reference: dict[str, bytes]) -> Verdict:
    """One row per file: present with the same bytes as ``reference``, and no extras."""
    verdict = Verdict()
    actual = snapshot(out)
    for name, data in reference.items():
        verdict.check(actual.get(name) == data, f"{name}: differs from the cold run")
    for name in sorted(set(actual) - set(reference)):
        verdict.check(False, f"{name}: not written by the cold run")
    return verdict


# --- analyze -----------------------------------------------------------------


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= max(abs_tol, rel * abs(want))


def _holm(ps: list[float]) -> list[float]:
    order = sorted(range(len(ps)), key=lambda i: ps[i])
    adjusted, running = [0.0] * len(ps), 0.0
    for rank, index in enumerate(order):
        running = max(running, (len(ps) - rank) * ps[index])
        adjusted[index] = min(1.0, running)
    return adjusted


def _cliffs(xs, ys) -> float:
    import numpy as np

    x = np.asarray(xs, dtype=float)
    y = np.sort(np.asarray(ys, dtype=float))
    greater = np.searchsorted(y, x, side="left").sum()
    less = (len(y) - np.searchsorted(y, x, side="right")).sum()
    return float(greater - less) / (len(x) * len(y))


def _report_line(report: str, prefix: str) -> tuple[float, float] | None:
    match = re.search(re.escape(prefix) + r"[^\d-]*(-?[\d.]+), p ([\d.eE+-]+)", report)
    return (float(match.group(1)), float(match.group(2))) if match else None


def check_analysis(out: Path, oracle: ResultsOracle) -> Verdict:
    """Reports of ``jarcompat analyze`` against scipy and numpy on the raw data."""
    from scipy import stats

    verdict = Verdict()
    try:
        q1 = {r["group"]: r for r in _read_csv(out / "q1_ratios.csv")}
        fisher = {r["pair"]: r for r in _read_csv(out / "q3_pairwise_fisher.csv")}
        mw = {r["pair"]: r for r in _read_csv(out / "q3_pairwise_mannwhitney.csv")}
        report = (out / "report.md").read_text(encoding="utf-8")
    except (OSError, csv.Error) as exc:
        return Verdict(ANALYSIS_ROWS, ANALYSIS_ROWS, [f"unreadable report: {exc}"])

    for level in LEVELS:
        flags = oracle.upgrades[level]
        row = q1.get(level, {})
        verdict.check(
            row.get("count") == str(len(flags)) and row.get("breaking") == str(sum(flags)),
            f"q1 {level}: {row}",
        )

    fisher_ps = []
    for a, b in LEVEL_PAIRS:
        table = [[oracle.broken[a], oracle.total[a] - oracle.broken[a]],
                 [oracle.broken[b], oracle.total[b] - oracle.broken[b]]]
        fisher_ps.append(stats.fisher_exact(table, alternative="two-sided").pvalue)
    for (a, b), p, p_adj in zip(LEVEL_PAIRS, fisher_ps, _holm(fisher_ps)):
        row = fisher.get(f"{a} vs {b}")
        odds = ((oracle.broken[b] / (oracle.total[b] - oracle.broken[b]))
                / (oracle.broken[a] / (oracle.total[a] - oracle.broken[a])))
        verdict.check(
            row is not None
            and _close(float(row["p"]), p, P_REL_TOL)
            and _close(float(row["p_adj"]), p_adj, P_REL_TOL)
            and _close(float(row["odds_ratio"]), odds, 0.0, ODDS_ABS_TOL),
            f"fisher {a} vs {b}: got {row}, want p={p:.6g} p_adj={p_adj:.6g} odds={odds:.4f}",
        )

    mw_ps = []
    for a, b in LEVEL_PAIRS:
        result = stats.mannwhitneyu(
            oracle.detections[a], oracle.detections[b],
            use_continuity=True, alternative="two-sided", method="asymptotic",
        )
        mw_ps.append(result.pvalue)
    for (a, b), p, p_adj in zip(LEVEL_PAIRS, mw_ps, _holm(mw_ps)):
        row = mw.get(f"{a} vs {b}")
        delta = _cliffs(oracle.detections[a], oracle.detections[b])
        verdict.check(
            row is not None
            and _close(float(row["p"]), p, P_REL_TOL)
            and _close(float(row["p_adj"]), p_adj, P_REL_TOL)
            and _close(float(row["cliffs_delta"]), delta, 0.0, CLIFFS_ABS_TOL),
            f"mann-whitney {a} vs {b}: got {row}, want p={p:.6g} p_adj={p_adj:.6g} delta={delta:.4f}",
        )

    chi2, chi2_p, _, _ = stats.chi2_contingency(
        [[oracle.broken[lv], oracle.total[lv] - oracle.broken[lv]] for lv in LEVELS],
        correction=False,
    )
    got = _report_line(report, "chi-squared across levels")
    verdict.check(
        got is not None and _close(got[0], chi2, 0.0, STAT_ABS_TOL) and _close(got[1], chi2_p, P3_REL_TOL),
        f"chi-squared: got {got}, want ({chi2:.4f}, {chi2_p:.4g})",
    )
    h, h_p = stats.kruskal(*(oracle.detections[lv] for lv in LEVELS))
    got = _report_line(report, "Kruskal-Wallis across levels")
    verdict.check(
        got is not None and _close(got[0], h, 0.0, STAT_ABS_TOL) and _close(got[1], h_p, P3_REL_TOL),
        f"kruskal-wallis: got {got}, want ({h:.4f}, {h_p:.4g})",
    )
    return verdict
