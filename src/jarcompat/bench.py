"""Accuracy benchmark: detections versus linker-error oracle records.

Each case is a (v1, v2, client) JAR triple whose entry point exercises a
single library declaration, plus an optional oracle record describing the
error the JVM linker raises when the client runs against v2. Oracle records
are plain data; no JVM is involved when running the benchmark.

Matching works on unique (client element, library element) pairs and
ignores BC-kind labels, since linker errors do not name change kinds. A
detection matches an oracle when both elements are equal, or when one
library element is the owner type of the other (linker messages name
whichever of the two resolution failed on).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .apimodel import StabilityConfig, model_pair
from .delta import compute_delta
from .detect import Detection, compute_detections, rule_note
from .usage import extract_usage
from .classfile import member_owner, open_jar


@dataclass(frozen=True)
class OracleRecord:
    error_class: str
    client_element: str
    library_element: str


@dataclass(frozen=True)
class BenchCase:
    case_id: str
    v1_jar: Path
    v2_jar: Path
    client_jar: Path
    entry: str  # qualified name of the entry-point client type
    oracle: OracleRecord | None = None
    known_gap: str | None = None  # names a documented detection gap


@dataclass
class CaseVerdict:
    case_id: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    detections: list[Detection] = field(default_factory=list)
    fp_detections: list[Detection] = field(default_factory=list)
    fp_rules: list[str] = field(default_factory=list)
    known_gap: str | None = None
    error: str | None = None

    @property
    def valid(self) -> bool:
        return self.error is None


@dataclass
class AccuracyReport:
    verdicts: list[CaseVerdict] = field(default_factory=list)

    @property
    def tp(self) -> int:
        return sum(v.tp for v in self.verdicts if v.valid)

    @property
    def fp(self) -> int:
        return sum(v.fp for v in self.verdicts if v.valid)

    @property
    def fn(self) -> int:
        return sum(v.fn for v in self.verdicts if v.valid)

    @property
    def precision(self) -> float:
        return score(self.tp, self.fp, self.fn)[0]

    @property
    def recall(self) -> float:
        return score(self.tp, self.fp, self.fn)[1]

    def unexplained_fps(self) -> list[tuple[str, Detection]]:
        """FP detections not produced by a pessimistic rule (always a bug)."""
        return [
            (verdict.case_id, detection)
            for verdict in self.verdicts
            if verdict.valid
            for detection in verdict.fp_detections
            if detection.confidence != "pessimistic"
        ]

    def invalid_cases(self) -> list[CaseVerdict]:
        return [v for v in self.verdicts if not v.valid]

    def to_dict(self) -> dict:
        return {
            "schemaVersion": 1,
            "cases": len(self.verdicts),
            "invalid": [v.case_id for v in self.invalid_cases()],
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "perCase": [
                {
                    "id": v.case_id,
                    "tp": v.tp,
                    "fp": v.fp,
                    "fn": v.fn,
                    "fpRules": v.fp_rules,
                    "knownGap": v.known_gap,
                    "error": v.error,
                }
                for v in self.verdicts
            ],
        }

    def table(self) -> str:
        lines = [f"{'case':40} {'tp':>3} {'fp':>3} {'fn':>3}  notes"]
        for v in self.verdicts:
            note = v.error or (f"gap:{v.known_gap}" if v.known_gap else "")
            if v.fp_rules:
                note = (note + " " if note else "") + "; ".join(v.fp_rules)
            lines.append(f"{v.case_id:40} {v.tp:>3} {v.fp:>3} {v.fn:>3}  {note}")
        lines.append(
            f"total: tp={self.tp} fp={self.fp} fn={self.fn} "
            f"precision={self.precision:.3f} recall={self.recall:.3f}"
        )
        return "\n".join(lines)


def score(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """(precision, recall); an empty confusion counts as perfect."""
    if min(tp, fp, fn) < 0:
        raise ValueError("confusion counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return precision, recall


def load_manifest(path: str | Path) -> list[BenchCase]:
    """Read the benchmark manifest JSON; relative JAR paths resolve against it."""
    path = Path(path)
    root = path.parent
    cases = []
    for entry in json.loads(path.read_text(encoding="utf-8")):
        oracle = None
        if entry.get("oracle"):
            oracle = OracleRecord(
                error_class=entry["oracle"]["errorClass"],
                client_element=entry["oracle"]["clientElement"],
                library_element=entry["oracle"]["libraryElement"],
            )
        cases.append(
            BenchCase(
                case_id=entry["id"],
                v1_jar=root / entry["v1"],
                v2_jar=root / entry["v2"],
                client_jar=root / entry["client"],
                entry=entry["entry"],
                oracle=oracle,
                known_gap=entry.get("knownGap"),
            )
        )
    return cases


def _belongs_to_entry(element: str, entry: str) -> bool:
    return element == entry or element.startswith(entry + ".")


def _matches_oracle(detection: Detection, oracle: OracleRecord) -> bool:
    if detection.client_element != oracle.client_element:
        return False
    library = oracle.library_element
    return (
        detection.library_element == library
        or member_owner(detection.library_element) == library
        or member_owner(library) == detection.library_element
    )


def run_case(case: BenchCase, config: StabilityConfig | None = None) -> CaseVerdict:
    verdict = CaseVerdict(case_id=case.case_id, known_gap=case.known_gap)
    try:
        old_model, new_model = model_pair(case.v1_jar, case.v2_jar, config)
        client = open_jar(case.client_jar).require_intact()
    except Exception as exc:  # noqa: BLE001 - per-case load failures are data
        verdict.error = f"{type(exc).__name__}: {exc}"
        return verdict

    delta = compute_delta(old_model, new_model)
    usage = extract_usage(client, old_model)
    detections = [
        d
        for d in compute_detections(delta, usage)
        if _belongs_to_entry(d.client_element, case.entry)
    ]

    # Score on unique (client, library) pairs.
    unique: dict[tuple[str, str], Detection] = {}
    for detection in detections:
        unique.setdefault((detection.client_element, detection.library_element), detection)
    verdict.detections = list(unique.values())

    # A case has at most one oracle: it is found (tp 1) or missed (fn 1).
    for detection in verdict.detections:
        if case.oracle is not None and _matches_oracle(detection, case.oracle):
            verdict.tp = 1
        else:
            verdict.fp += 1
            verdict.fp_detections.append(detection)
            verdict.fp_rules.append(rule_note(detection.bc_kind, detection.use_kind))
    if case.oracle is not None:
        verdict.fn = 1 - verdict.tp
    return verdict


def run_benchmark(manifest: str | Path, config: StabilityConfig | None = None) -> AccuracyReport:
    """Run every case in turn and aggregate the confusion; invalid cases are
    listed but excluded from the tallies."""
    return AccuracyReport(verdicts=[run_case(case, config) for case in load_manifest(manifest)])
