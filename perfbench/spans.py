"""Spans around calls into jarcompat's layers, recorded from outside.

Each traced function is replaced at the module attribute its caller looks
up (``corpus.open_jar``, ``analyze.mann_whitney`` ...), so the program
itself is unchanged. Spans are kept in memory and written once, when the
traced command ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Calls are synchronous, so direct children never overlap.
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    subjects: dict[str, set] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        on_result: Callable[["Tracer", tuple, dict, object], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), parent=parent and parent.id)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def note(self, key: str, subject) -> None:
        self.subjects.setdefault(key, set()).add(subject)

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, busy seconds and self seconds per span name."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += span.self_s
        return out

    def dump(self, path: Path) -> None:
        payload = {
            "spans": [
                {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
            "layers": self.layers(),
            "counts": self.counts,
            "distinct": {key: len(values) for key, values in self.subjects.items()},
        }
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _on_open_jar(tracer: Tracer, args, kwargs, content) -> None:
    tracer.note("classfile.jars", str(args[0]))
    tracer.count("classfile.classes_parsed", len(content.entries))


def _on_build_model(tracer: Tracer, args, kwargs, model) -> None:
    tracer.note("apimodel.artifacts", kwargs.get("model_id"))


def _on_compute_delta(tracer: Tracer, args, kwargs, delta) -> None:
    tracer.count("delta.changes", len(delta.changes))


def _on_compute_detections(tracer: Tracer, args, kwargs, detections) -> None:
    tracer.count("detect.detections", len(detections))


def _on_run_pipeline(tracer: Tracer, args, kwargs, summary) -> None:
    tracer.count("corpus.upgrades", summary["emitted"])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from jarcompat import analyze, cli, corpus

    cli_points = [
        ("load_graph", "corpus.load_graph", None),
        ("run_pipeline", "corpus.run_pipeline", _on_run_pipeline),
        ("analyze_results", "analyze.analyze_results", None),
    ]
    corpus_points = [
        ("derive_upgrades", "corpus.derive_upgrades", None),
        ("derive_clients", "corpus.derive_clients", None),
        ("open_jar", "classfile.open_jar", _on_open_jar),
        ("build_model", "apimodel.build_model", _on_build_model),
        ("compute_delta", "delta.compute_delta", _on_compute_delta),
        ("extract_usage", "usage.extract_usage", None),
        ("compute_detections", "detect.compute_detections", _on_compute_detections),
        ("classify_impact", "detect.classify_impact", None),
    ]
    analyze_points = [
        (attr, f"stats.{attr}", None)
        for attr in ("mann_whitney", "cliffs_delta", "kruskal_wallis", "fisher_exact", "chi_squared")
    ]
    for module, points in ((cli, cli_points), (corpus, corpus_points), (analyze, analyze_points)):
        for attr, name, hook in points:
            tracer.wrap(module, attr, name, hook)
