"""Speed benchmark for jarcompat's corpus pipeline and analysis.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 50 --trace 0

``--workload all`` runs every workload in turn and prefixes each metric in
the JSON line with the workload name.

Each workload's inputs are generated from ``--seed`` (see ``gen.py``). The
measured command then runs repeatedly, each repetition in a fresh process
that calls ``jarcompat.cli.main`` in-process (``child.py``), until
``--seconds`` have passed and at least ``MIN_REPS`` repetitions ran. Every
repetition's outputs are checked against an oracle that does not use
jarcompat (``oracle.py``), outside the timed interval.

With ``--trace 0`` the end-to-end metrics are reported as medians over the
repetitions. With ``--trace 1`` repetitions alternate between untraced and
traced runs of the same command, and the per-layer metrics come from the
traced ones (``spans.py``). The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where attempted
and failed count checked output rows over all repetitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPEC = BENCH.parent / "BENCHMARK.json"

# Pool size of the corpus workloads: two cores on the reference machine.
JOBS = 2
# Pool workers do not hand their spans back, so traced corpus runs are serial.
TRACE_JOBS = 1
MIN_REPS = 3
# Set-up runs this many times before the timed repetitions; setup_s is the median.
SETUPS = 5
# A repetition that runs longer than this is a hang, not a measurement.
REP_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "corpus" or "analyze"
    params: object  # gen.CorpusParams or gen.ResultsParams
    resume: bool = False


def workloads():
    from gen import CLIENTS_PER_UPGRADE, CorpusParams, ResultsParams

    # Library JARs with inheritance chains, so that parse, model and delta
    # dominate. Clients per upgrade are the paper's; the other sizes are
    # chosen to fit the run length.
    corpus = CorpusParams(libraries=8, versions=6, clients=CLIENTS_PER_UPGRADE,
                          classes=40, methods=8, depth=3)
    return {
        w.name: w
        for w in (
            Workload("corpus-cold", "corpus", corpus),
            Workload("corpus-resume", "corpus", corpus, resume=True),
            # Many one-class artifacts: graph derivation dominates, parsing is cheap.
            Workload("graph-wide", "corpus",
                     CorpusParams(libraries=24, versions=5, clients=CLIENTS_PER_UPGRADE,
                                  classes=1, methods=4, depth=1)),
            # The published MDG upgrades and per-level client samples.
            Workload("analyze-large", "analyze", ResultsParams(scale=1.0)),
        )
    }


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _layer_metrics(dump: dict) -> dict[str, float]:
    layers, counts, distinct = dump["layers"], dump["counts"], dump["distinct"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out = {}
    for name in ("classfile.open_jar", "apimodel.build_model", "delta.compute_delta",
                 "usage.extract_usage", "detect.compute_detections", "corpus.derive_clients"):
        out[f"{name}.calls"] = layer(name, "calls")
        out[f"{name}.s"] = layer(name, "s")
    for name in ("detect.classify_impact", "corpus.load_graph", "corpus.derive_upgrades",
                 "stats.mann_whitney", "stats.cliffs_delta", "stats.kruskal_wallis",
                 "stats.fisher_exact", "stats.chi_squared"):
        out[f"{name}.s"] = layer(name, "s")
    for name in ("corpus.run_pipeline", "analyze.analyze_results"):
        out[f"{name}.self_s"] = layer(name, "self_s")
    jars = distinct.get("classfile.jars", 0)
    out["classfile.open_jar.distinct_jars"] = jars
    out["classfile.opens_per_jar"] = ratio(layer("classfile.open_jar", "calls"), jars)
    out["classfile.classes_parsed"] = counts.get("classfile.classes_parsed", 0)
    out["apimodel.models_per_artifact"] = ratio(
        layer("apimodel.build_model", "calls"), distinct.get("apimodel.artifacts", 0)
    )
    out["delta.changes"] = counts.get("delta.changes", 0)
    out["detect.detections"] = counts.get("detect.detections", 0)
    upgrades = counts.get("corpus.upgrades", 0)
    out["corpus.delta_cache.hit_ratio"] = ratio(upgrades - layer("delta.compute_delta", "calls"), upgrades)
    return out


class Run:
    """One benchmark invocation: inputs, repetitions and the checks on them."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        import oracle

        self.workload = workload
        self.seed = seed
        self.work = work
        self.verdict = oracle.Verdict()
        self.input: Path | None = None
        self.expected = None
        self.reference: dict[str, bytes] | None = None
        self.reps = 0
        self.setups = 0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate the inputs afresh and return the seconds it took.

        For ``corpus-resume`` this includes the cold run that fills the output
        directory; that run is checked against the oracle and snapshotted.
        """
        from gen import write_corpus, write_results

        target = self.work / f"input{self.setups}"
        self.setups += 1
        start = time.perf_counter()
        if self.workload.kind == "analyze":
            self.expected = write_results(target, self.workload.params, self.seed)
        else:
            self.expected = write_corpus(target, self.workload.params, self.seed)
            if self.workload.resume:
                self.invoke(self.command(target, target / "out", JOBS), None)
        duration = time.perf_counter() - start
        if self.input is not None:
            shutil.rmtree(self.input)
        self.input = target
        if self.workload.resume:
            import oracle

            self.verdict.add(oracle.check_corpus(self.input / "out", self.expected))
            self.reference = oracle.snapshot(self.input / "out")
        return duration

    # -- repetitions --------------------------------------------------------

    def command(self, source: Path, out: Path, jobs: int) -> list[str]:
        if self.workload.kind == "analyze":
            return ["analyze", str(source), "--out", str(out)]
        return [
            "corpus", "run",
            "--artifacts", str(source / "artifacts.csv"),
            "--edges", str(source / "edges.csv"),
            "--jars", str(source / "jars"),
            "--out", str(out),
            "--jobs", str(jobs),
        ]

    def invoke(self, command: list[str], spans: Path | None) -> dict:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        if spans is not None:
            spans.unlink(missing_ok=True)
        # Every process draws its own hash seed, so the cold fill and each
        # resumed run hash differently and the byte-identity check also
        # catches output that depends on set or dict order.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="random")
        # A session of its own, so that a hung repetition is killed together
        # with its pool workers.
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(result_path),
             str(spans) if spans else "-", *command],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            error = f"timed out after {REP_TIMEOUT_S} s"
        else:
            if proc.returncode == 0 and result_path.exists():
                return json.loads(result_path.read_text(encoding="utf-8"))
            error = stderr[-2000:]
        return {"code": None, "error": error, "wall_s": None, "peak_rss_mb": None}

    def repeat(self, jobs: int, spans: Path | None = None) -> dict:
        """One timed repetition, then its correctness check."""
        out = self.input / "out" if self.workload.resume else self.work / "out"
        result = self.invoke(self.command(self.input, out, jobs), spans)
        self.reps += 1
        self._check(result, out, self.reference)
        if not self.workload.resume:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def warm_up(self) -> None:
        """One untimed, checked repetition before the timed ones.

        On a cold corpus workload a resumed run over the warm-up's output
        follows. It must match the oracle and write the same bytes as the
        cold run did, under another hash seed.
        """
        if self.workload.kind == "analyze" or self.workload.resume:
            self.repeat(JOBS)
            return
        import oracle

        out = self.work / "warm"
        command = self.command(self.input, out, JOBS)
        self._check(self.invoke(command, None), out, None)
        reference = oracle.snapshot(out)
        self._check(self.invoke(command, None), out, reference)
        shutil.rmtree(out, ignore_errors=True)

    def _check(self, result: dict, out: Path, reference: dict[str, bytes] | None) -> None:
        import oracle

        if self.workload.kind == "analyze":
            rows = oracle.ANALYSIS_ROWS
        else:
            rows = self.expected.rows + (len(reference) if reference else 0)
        if result["code"] != 0:
            self.verdict.add(oracle.Verdict(rows, rows, [f"command failed: {result['error']}"]))
        elif self.workload.kind == "analyze":
            self.verdict.add(oracle.check_analysis(out, self.expected))
        else:
            self.verdict.add(oracle.check_corpus(out, self.expected))
            if reference is not None:
                self.verdict.add(oracle.check_identical(out, reference))

    def throughput_rows(self) -> tuple[int, int]:
        """(client rows, upgrade rows) one repetition produces or analyses."""
        if self.workload.kind == "analyze":
            return self.expected.client_rows, self.expected.upgrade_rows
        return len(self.expected.clients), len(self.expected.upgrades)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(run: Run, seconds: float) -> dict[str, dict]:
    """End-to-end metrics, untraced, with the corpus pool at ``JOBS``.

    Set-up runs ``SETUPS`` times and the warm-up follows, both before the
    ``seconds`` of repetitions start.
    """
    setups = [run.setup() for _ in range(SETUPS)]
    run.warm_up()
    run.reps = 0  # counts the timed repetitions only
    walls, rss = [], []
    deadline = time.perf_counter() + seconds
    while run.reps < MIN_REPS or time.perf_counter() < deadline:
        result = run.repeat(JOBS)
        if result["wall_s"] is not None:
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
    for name, samples in (("setup_s", setups), ("wall_s", walls)):
        print(f"# {name} samples: " + " ".join(f"{v:.4f}" for v in samples))
    clients, upgrades = run.throughput_rows()
    return {
        "setup_s": {"value": _median(setups), "unit": "s", "n": len(setups)},
        "wall_s": {"value": _median(walls), "unit": "s", "n": len(walls)},
        "client_rows_per_s": {"value": _median([clients / w for w in walls]), "unit": "1/s",
                              "n": len(walls)},
        "upgrades_per_s": {"value": _median([upgrades / w for w in walls]), "unit": "1/s",
                           "n": len(walls)},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB", "n": len(rss)},
    }


def measure_traced(run: Run, seconds: float) -> dict[str, dict]:
    """Per-layer metrics from traced repetitions, alternated with untraced ones."""
    plain, traced, dumps = [], [], []
    spans = run.work / "spans.json"
    deadline = time.perf_counter() + seconds
    run.setup()
    # Bounded by attempts, not successes: a traced repetition that fails is
    # counted in the failed rows and does not keep the loop going.
    while run.reps < 2 * MIN_REPS or time.perf_counter() < deadline:
        for walls, path in ((plain, None), (traced, spans)):
            result = run.repeat(TRACE_JOBS, path)
            if result["wall_s"] is not None:
                walls.append(result["wall_s"])
                if path is not None:
                    dumps.append(json.loads(spans.read_text(encoding="utf-8")))
    samples: dict[str, list[float]] = {}
    for dump in dumps:
        for name, value in _layer_metrics(dump).items():
            samples.setdefault(name, []).append(value)
    metrics = {
        name: {"value": _median(samples.get(name, [])), "unit": unit, "n": len(dumps)}
        for name, unit in per_layer_units().items()
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = {
        "value": _median(traced) - _median(plain), "unit": "s", "n": min(len(traced), len(plain)),
    }
    if spans.exists():
        keep = BENCH / "traces"
        keep.mkdir(exist_ok=True)
        shutil.copyfile(spans, keep / f"{run.workload.name}-seed{run.seed}.json")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    """Run one workload and return the result object (metrics carry their sample count ``n``)."""
    work = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        metrics = measure_traced(run, seconds) if trace else measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    return {
        "correct": run.verdict.failed == 0 and run.verdict.attempted > 0,
        "attempted": run.verdict.attempted,
        "failed": run.verdict.failed,
        "metrics": metrics,
        "problems": run.verdict.problems,
        "reps": run.reps,
    }


def report(workload: Workload, seed: int, trace: bool, result: dict) -> None:
    jobs = TRACE_JOBS if trace and workload.kind == "corpus" else JOBS
    mode = "alternately traced and untraced" if trace else "untraced"
    print(f"# {workload.name} seed {seed}: {result['reps']} {mode} repetitions"
          + (f", corpus run --jobs {jobs}" if workload.kind == "corpus" else ""))
    if trace and workload.kind == "corpus":
        print("# traced with --jobs 1: pool workers do not hand their spans back")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']:6s} n={metric['n']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_ratio':34s} {failed / attempted if attempted else 1.0:14.6g} "
          f"{'ratio':6s} n={attempted} ({failed} of {attempted} checked rows)")
    for problem in result["problems"][:20]:
        print(f"# FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jarcompat" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no jarcompat sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads()
    names = list(table) if args.workload == "all" else [args.workload]
    if any(name not in table for name in names):
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {sorted(table)} or 'all'\n")
        return 2

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(table[name], args.seed, args.seconds, bool(args.trace), BENCH / ".work")
        report(table[name], args.seed, bool(args.trace), result)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, m in result["metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
