"""Command-line interface.

Exit codes are stable: 0 success (or compliant under a gate flag),
1 breaking change / broken client detected in gate mode, 2 usage error,
3 unreadable or invalid input data. Logging goes to stderr so stdout stays
machine-parsable.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .apimodel import StabilityConfig, model_pair
from .bench import run_benchmark
from .classfile import ClassFormatError, NotAZip, open_jar
from .corpus import (
    UPGRADE_COLUMNS,
    PipelineOptions,
    SchemaError,
    derive_upgrades,
    load_graph,
    run_pipeline,
    usable_cpus,
    write_csv,
    write_exclusions,
)
from .delta import compute_delta, is_breaking
from .detect import classify_impact, compute_detections
from .semver import NotAnUpgrade, Unparseable, classify_upgrade, complies_with_semver, parse_version
from .usage import extract_usage
from .analyze import analyze_results

EXIT_OK = 0
EXIT_BREAKING = 1
EXIT_USAGE = 2
EXIT_DATA = 3

log = logging.getLogger("jarcompat")


class DataError(Exception):
    """Input that cannot be read or does not follow its schema."""


def _load_config(path: str | None) -> StabilityConfig:
    if path is None:
        return StabilityConfig()
    try:
        return StabilityConfig.load(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"stability config {path}: {exc}") from exc


def _build_models(old_jar: str, new_jar: str, config: StabilityConfig):
    try:
        return model_pair(old_jar, new_jar, config)
    except (NotAZip, ClassFormatError, OSError) as exc:
        raise DataError(str(exc)) from exc


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def cmd_delta(args: argparse.Namespace) -> int:
    config = _load_config(args.stability_config)
    old_model, new_model = _build_models(args.old_jar, args.new_jar, config)
    delta = compute_delta(old_model, new_model)
    breaking = is_breaking(delta, args.scope)

    if args.csv is not None:
        write_csv(
            args.csv,
            ["kind", "element", "stability", "detail"],
            [[change.kind.value, change.element, change.stability.status,
              ";".join(f"{k}={v}" for k, v in sorted(change.detail))]
             for change in delta.changes],
        )
    else:
        _emit(delta.to_json(), args.json)

    log.info("%d breaking changes (%s scope: breaking=%s)", len(delta.changes), args.scope, breaking)
    if args.fail_on_breaking and breaking:
        return EXIT_BREAKING
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    config = _load_config(args.stability_config)
    old_model, new_model = _build_models(args.old_jar, args.new_jar, config)
    try:
        client = open_jar(args.client_jar).require_intact()
    except (NotAZip, OSError) as exc:
        raise DataError(str(exc)) from exc

    delta = compute_delta(old_model, new_model)
    if args.scope == "stable":
        delta.changes = [c for c in delta.changes if c.stability.is_stable]
    usage = extract_usage(client, old_model)
    detections = compute_detections(delta, usage)
    summary = classify_impact(delta, usage, detections)

    payload = {
        "schemaVersion": 1,
        "old": old_model.id,
        "new": new_model.id,
        "client": str(args.client_jar),
        "detections": [d.to_dict() for d in detections],
        "impact": {
            "broken": summary.broken,
            "detectionCount": summary.detection_count,
            "unused": summary.count("unused"),
            "nonBreakingUse": summary.count("non_breaking_use"),
            "breakingUse": summary.count("breaking_use"),
        },
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.json)
    if args.fail_on_broken and summary.broken:
        return EXIT_BREAKING
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        v1 = parse_version(args.v1)
        v2 = parse_version(args.v2)
        level = classify_upgrade(v1, v2)
    except (Unparseable, NotAnUpgrade) as exc:
        sys.stdout.write(f"error: {exc}\n")
        return EXIT_USAGE
    hint = "may introduce breaking changes" if complies_with_semver(level, True) else (
        "must stay backwards compatible"
    )
    sys.stdout.write(f"{level.value}: {hint}\n")
    return EXIT_OK


def _parse_sample_spec(text: str) -> tuple[str, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"sample spec must be level:confidence:margin, got {text!r}")
    level, confidence, margin = parts
    if level not in ("all", "major", "minor", "patch", "dev"):
        raise DataError(f"unknown sample level {level!r}")
    try:
        confidence, margin = float(confidence), float(margin)
        if not (0.0 < confidence < 1.0 and 0.0 < margin < 1.0):  # NaN fails too
            raise ValueError("confidence and margin must be in (0, 1)")
    except ValueError as exc:
        raise DataError(f"bad sample spec {text!r}: {exc}") from exc
    return level, confidence, margin


def cmd_corpus(args: argparse.Namespace) -> int:
    try:
        graph = load_graph(args.artifacts, args.edges)
    except (SchemaError, OSError) as exc:
        raise DataError(str(exc)) from exc
    for diagnostic in graph.diagnostics:
        log.warning("%s", diagnostic)

    if args.corpus_command == "derive":
        upgrades, exclusion_rows = derive_upgrades(graph, args.jars)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "upgrades.csv",
            UPGRADE_COLUMNS[: UPGRADE_COLUMNS.index("level") + 1],
            # corpus run's order: by library, then by version
            [[u.rec1.group_id, u.rec1.artifact_id, u.v1.raw, u.v2.raw, u.level.value]
             for u in sorted(upgrades, key=lambda u: (u.rec1.library, u.v1.key(), u.v2.key()))],
        )
        write_exclusions(out / "exclusions.csv", exclusion_rows)
        log.info("derived %d upgrades, %d exclusion rows", len(upgrades), len(exclusion_rows))
        return EXIT_OK

    options = PipelineOptions(
        jobs=args.jobs if args.jobs is not None else usable_cpus(),
        seed=args.seed,
        samples=tuple(_parse_sample_spec(spec) for spec in args.sample or ()),
        stability_config=_load_config(args.stability_config),
    )
    summary = run_pipeline(graph, args.jars, args.out, options)
    log.info("pipeline: %s", json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        analyze_results(args.results_dir, args.out, args.summary)
    except (OSError, ValueError) as exc:
        raise DataError(f"analyze: {exc}") from exc
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        report = run_benchmark(args.manifest, _load_config(args.stability_config))
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc
    if args.json is not None:
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.json)
    else:
        sys.stdout.write(report.table() + "\n")
    return EXIT_OK


def _jobs(text: str) -> int:
    """argparse type of ``--jobs``: a whole number of processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jarcompat",
        description="Binary-compatibility analysis for Java libraries",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", help="breaking changes between two JARs")
    p_delta.add_argument("old_jar")
    p_delta.add_argument("new_jar")
    report = p_delta.add_mutually_exclusive_group()
    report.add_argument("--json", default=None, help="write JSON report here ('-' for stdout)")
    report.add_argument("--csv", default=None, help="write CSV report instead of JSON")
    p_delta.add_argument("--stability-config", default=None)
    p_delta.add_argument("--scope", choices=("stable", "all"), default="stable")
    p_delta.add_argument("--fail-on-breaking", action="store_true")
    p_delta.set_defaults(func=cmd_delta)

    p_detect = sub.add_parser("detect", help="client code impacted by an upgrade")
    p_detect.add_argument("old_jar")
    p_detect.add_argument("new_jar")
    p_detect.add_argument("client_jar")
    p_detect.add_argument("--json", default=None)
    p_detect.add_argument("--stability-config", default=None)
    p_detect.add_argument("--scope", choices=("stable", "all"), default="all")
    p_detect.add_argument("--fail-on-broken", action="store_true")
    p_detect.set_defaults(func=cmd_detect)

    p_classify = sub.add_parser("classify", help="semver level of an upgrade")
    p_classify.add_argument("v1")
    p_classify.add_argument("v2")
    p_classify.set_defaults(func=cmd_classify)

    p_corpus = sub.add_parser("corpus", help="derive datasets / run the pipeline")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_derive = corpus_sub.add_parser("derive")
    p_run = corpus_sub.add_parser("run")
    for p in (p_derive, p_run):
        p.add_argument("--artifacts", required=True)
        p.add_argument("--edges", required=True)
        p.add_argument("--jars", default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_corpus)
    p_run.add_argument(
        "--jobs", type=_jobs, default=None, metavar="N",
        help="processes, this one included, that share one queue of library tasks, never more "
        "than there are libraries; only one process runs off Linux (default: the CPUs this "
        "process may run on); outputs are byte-identical for every N",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--sample", action="append", metavar="LEVEL:CONF:MARGIN")
    p_run.add_argument("--stability-config", default=None)

    p_analyze = sub.add_parser("analyze", help="statistical reports over results")
    source = p_analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("results_dir", nargs="?", default=None, help="a corpus run output directory")
    source.add_argument("--summary", default=None, help="precomputed per-level counts JSON")
    p_analyze.add_argument("--out", required=True)
    p_analyze.set_defaults(func=cmd_analyze)

    p_bench = sub.add_parser("bench", help="accuracy benchmark against oracle records")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--json", default=None)
    p_bench.add_argument("--stability-config", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except DataError as exc:
        log.error("%s", exc)
        sys.stderr.write(f"jarcompat: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
