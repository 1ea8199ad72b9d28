"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
verdict lines directly).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from bench_cases import write_benchmark
from catalog_cases import CATALOG_CASES
from conftest import model_of
from corpus_fixture import build_fixture, write_graph_csvs
from jarcompat.bench import run_benchmark, score
from jarcompat.corpus import PipelineOptions, derive_upgrades, load_graph, run_pipeline
from jarcompat.delta import BcKind, compute_delta
from jarcompat.semver import SemverLevel
from jarcompat.stats import (
    chi_squared,
    cliffs_delta,
    cochran_sample,
    fisher_exact,
    holm_bonferroni,
    interpret_cliffs_delta,
    mann_whitney,
    odds_ratio,
)
from test_stats import fisher_oracle, mann_whitney_permutation_oracle

# Published sampling table: population -> sample size (MDG block then MDD).
SAMPLES = {
    "mdg": {
        "all": (293817, 15701, 1237, 7.9),
        "major": (29847, 10663, 1250, 11.7),
        "minor": (111830, 14445, 1130, 7.8),
        "patch": (123286, 14621, 735, 5.0),
        "dev": (28854, 10533, 1772, 16.8),
    },
    "mdd": {
        "all": (35539, 11310, 1076, 9.5),
        "major": (2861, 2440, 309, 12.7),
        "minor": (13444, 7426, 883, 11.9),
        "patch": (17425, 8498, 514, 6.0),
        "dev": (1809, 1631, 300, 18.4),
    },
}

# Published pairwise odds ratios over the MDG samples ("a vs b" orientation).
ODDS_RATIOS = {
    ("major", "minor"): 0.64,
    ("major", "patch"): 0.40,
    ("major", "dev"): 1.52,
    ("minor", "patch"): 0.62,
    ("minor", "dev"): 2.38,
    ("patch", "dev"): 3.82,
}


def _verdict(number: int, passed: bool, label: str) -> None:
    print(f"ACCEPTANCE {number:02d}: {'PASS' if passed else 'FAIL'} - {label}")
    assert passed, label


def test_criterion_01_cochran_sampling_replication():
    for corpus in SAMPLES.values():
        for population, expected, _, _ in corpus.values():
            got = cochran_sample(population, 0.99, 0.01, 0.5)
            assert abs(got - expected) <= 2, (population, got, expected)
    start = time.perf_counter()
    for corpus in SAMPLES.values():
        for population, _, _, _ in corpus.values():
            cochran_sample(population, 0.99, 0.01, 0.5)
    elapsed_ms = (time.perf_counter() - start) * 1000
    _verdict(
        1,
        elapsed_ms < 1.0,
        f"ten published sample sizes within +/-2, computed in {elapsed_ms:.3f} ms",
    )


def test_criterion_02_odds_ratio_replication():
    worst = 0.0
    for (a, b), expected in ODDS_RATIOS.items():
        _, a_sample, a_broken, _ = SAMPLES["mdg"][a]
        _, b_sample, b_broken, _ = SAMPLES["mdg"][b]
        got = odds_ratio(a_broken, a_sample, b_broken, b_sample)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 0.01, (a, b, got, expected)
    _verdict(2, True, f"six published odds ratios within +/-0.01 (worst {worst:.4f})")


def test_criterion_03_proportion_replication():
    worst = 0.0
    for corpus in SAMPLES.values():
        for _, sample, broken, expected_pct in corpus.values():
            got = 100.0 * broken / sample
            worst = max(worst, abs(got - expected_pct))
            assert abs(got - expected_pct) <= 0.1, (sample, broken, got, expected_pct)
    _verdict(3, True, f"ten published broken-client percentages within 0.1pp (worst {worst:.3f}pp)")


def test_criterion_04_significance_replication():
    rows = []
    for level in ("major", "minor", "patch", "dev"):
        _, sample, broken, _ = SAMPLES["mdg"][level]
        rows.append((broken, sample - broken))
    chi2 = chi_squared(rows)
    assert chi2.p_value < 1e-15

    raw_ps = []
    for a, b in ODDS_RATIOS:
        _, a_sample, a_broken, _ = SAMPLES["mdg"][a]
        _, b_sample, b_broken, _ = SAMPLES["mdg"][b]
        table = [[a_broken, a_sample - a_broken], [b_broken, b_sample - b_broken]]
        raw_ps.append(fisher_exact(table).p_value)
    adjusted = holm_bonferroni(raw_ps)
    assert all(p < 0.01 for p in adjusted), adjusted
    _verdict(
        4,
        True,
        f"chi-squared p={chi2.p_value:.3g} < 1e-15; all six Fisher pairs < 0.01 after Holm",
    )


def test_criterion_05_effect_size_labelling():
    expected = {0.16: "small", 0.20: "small", 0.12: "negligible", 0.04: "negligible", 0.08: "negligible"}
    for value, label in expected.items():
        assert interpret_cliffs_delta(value) == label, (value, label)
        assert interpret_cliffs_delta(-value) == label
    _verdict(5, True, "Cliff's delta interpretations match the published labels")


def test_criterion_06_benchmark_arithmetic():
    precision, recall = score(130, 5, 2)
    assert abs(precision * 100 - 96.3) <= 0.1
    assert abs(recall * 100 - 98.5) <= 0.1
    _verdict(6, True, f"score(130, 5, 2) = ({precision * 100:.1f}%, {recall * 100:.1f}%)")


def test_criterion_07_delta_oracle_suite():
    start = time.perf_counter()
    assert {case.kind for case in CATALOG_CASES} == {k.value for k in BcKind}
    for case in CATALOG_CASES:
        old = model_of(list(case.old), model_id="old")
        new = model_of(list(case.new), model_id="new")
        got = {(c.kind.value, c.element) for c in compute_delta(old, new).changes}
        assert case.expected - got == set(), f"{case.kind}: missing {case.expected - got}"
        spurious = got - case.expected - case.coupled
        assert spurious == set(), f"{case.kind}: spurious {spurious}"
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        elapsed < 10.0,
        f"all 31 catalog kinds exact (documented couplings only) in {elapsed:.2f} s",
    )


def test_criterion_08_detection_oracle_suite(tmp_path):
    report = run_benchmark(write_benchmark(tmp_path / "bench"))
    assert report.invalid_cases() == []

    fn_cases = [v for v in report.verdicts if v.valid and v.fn]
    assert {v.known_gap for v in fn_cases} == {"native", "strictfp"}
    tp = sum(v.tp for v in report.verdicts if v.valid and not v.known_gap)
    fn = sum(v.fn for v in report.verdicts if v.valid and not v.known_gap)
    recall = score(tp, 0, fn)[1]
    assert recall == 1.0

    assert report.unexplained_fps() == []

    fig_like = next(v for v in report.verdicts if v.case_id == "methodAddedToInterface")
    assert len(fig_like.detections) == 1
    assert fig_like.detections[0].bc_kind is BcKind.METHOD_ADDED_TO_INTERFACE
    assert fig_like.detections[0].use_kind.value == "implements"
    _verdict(
        8,
        True,
        "recall 100% outside the two documented gaps; every FP names its pessimistic rule; "
        "interface-evolution case yields exactly one implements detection",
    )


def test_criterion_09_semver_pipeline(tmp_path):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    graph = load_graph(artifacts, edges)
    upgrades, exclusions = derive_upgrades(graph, jar_root)
    emitted = {
        (u.v1.raw, u.v2.raw, u.level)
        for u in upgrades
        if u.rec1.artifact_id == "servlet-api"
    }
    assert emitted == {
        ("3.0.1", "3.1.0", SemverLevel.MINOR),
        ("3.1.0", "4.0.0", SemverLevel.MAJOR),
        ("4.0.0", "4.0.1", SemverLevel.PATCH),
    }
    assert len(upgrades) == 3
    skipped = {subject: reason for stage, subject, _, reason in exclusions if stage == "version"}
    assert skipped["javax.servlet:servlet-api:3.1-b01"] == "qualified"
    assert skipped["javax.servlet:servlet-api:4.0.0-b01"] == "qualified"

    rows = [
        ("g", "lib", "2.5.20110712", "2011-07-12", "jar", ""),
        ("g", "lib", "2.6.0", "2011-09-01", "jar", ""),
        ("x", "c", "1.0.0", "2011-08-01", "jar", ""),
    ]
    edge_rows = [
        ("NEXT", "", "g:lib:2.5.20110712", "g:lib:2.6.0"),
        ("DEPENDS", "compile", "x:c:1.0.0", "g:lib:2.5.20110712"),
    ]
    a2, e2 = write_graph_csvs(tmp_path / "datelike", artifact_rows=rows, edge_rows=edge_rows)
    _, date_exclusions = derive_upgrades(load_graph(a2, e2))
    assert date_exclusions == [["version", "g:lib:2.5.20110712", "", "date_like"]]
    _verdict(
        9,
        True,
        "seven-version fixture yields exactly minor/major/patch; qualified and "
        "date-like versions carry recorded exclusion reasons",
    )


def test_criterion_10_statistics_oracles():
    # Fisher versus brute-force enumeration: exhaustive grid, total <= 40.
    worst = 0.0
    tables = 0
    for n in range(0, 41):
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    d = n - a - b - c
                    got = fisher_exact([[a, b], [c, d]]).p_value
                    want = fisher_oracle(a, b, c, d)
                    worst = max(worst, abs(got - want))
                    tables += 1
    assert worst <= 1e-9, worst
    assert tables == 135751

    # Mann-Whitney exact path versus permutation enumeration for n+m <= 12.
    rng = random.Random(2024)
    checked = 0
    for total in range(2, 13):
        for n in range(1, total):
            m = total - n
            for _ in range(2):
                xs = [rng.randrange(0, 5) for _ in range(n)]
                ys = [rng.randrange(0, 5) for _ in range(m)]
                want = mann_whitney_permutation_oracle(xs, ys)
                got = mann_whitney(Counter(xs), Counter(ys)).p_value
                assert got == pytest.approx(want, abs=1e-12), (xs, ys)
                checked += 1

    # Cliff's delta versus O(n*m) pair counting.
    for _ in range(100):
        xs = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 12))]
        ys = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 12))]
        gt = sum(1 for x in xs for y in ys if x > y)
        lt = sum(1 for x in xs for y in ys if x < y)
        want = (gt - lt) / (len(xs) * len(ys))
        assert cliffs_delta(Counter(xs), Counter(ys))[0] == pytest.approx(want, abs=1e-12)
    _verdict(
        10,
        True,
        f"fisher exact matches enumeration on {tables} tables (worst {worst:.1e}); "
        f"mann-whitney exact path matches permutation on {checked} samples; "
        "cliff's delta matches pair counting",
    )


def test_criterion_11_pipeline_determinism_and_accounting(tmp_path):
    artifacts, edges, jar_root = build_fixture(tmp_path / "fixture")
    graph = load_graph(artifacts, edges)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    summary1 = run_pipeline(graph, jar_root, out1, PipelineOptions())
    summary2 = run_pipeline(graph, jar_root, out2, PipelineOptions())

    def snapshot(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    assert snapshot(out1) == snapshot(out2)
    assert summary1 == summary2
    assert summary1["candidates"] == summary1["emitted"] + summary1["excluded"]
    reason_total = sum(summary1["exclusionReasons"].values())
    assert reason_total == summary1["excluded"]
    _verdict(
        11,
        True,
        f"two pipeline runs byte-identical; {summary1['emitted']} emitted + "
        f"{summary1['excluded']} excluded = {summary1['candidates']} candidates",
    )
