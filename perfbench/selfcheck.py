"""Toy-size self-check of the benchmark.

Usage (from the repository root): python3 perfbench/selfcheck.py

Runs all four workloads at toy size, untraced and traced, and requires
every output row to pass its check. Then it shows that each check can fail:
one planted change dropped from the corpus expectations, one broken client
miscounted in the analysis data, and one byte changed in the cold-run
snapshot must each be reported. Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys

import run

TOY = {
    "corpus-cold": dict(libraries=3, versions=4, clients=2, classes=6, methods=3, depth=2),
    "corpus-resume": dict(libraries=3, versions=4, clients=2, classes=6, methods=3, depth=2),
    "graph-wide": dict(libraries=4, versions=3, clients=2, classes=1, methods=3, depth=1),
    "analyze-large": dict(scale=0.01),
}


def _toy(workload: run.Workload) -> run.Workload:
    return dataclasses.replace(
        workload, params=dataclasses.replace(workload.params, **TOY[workload.name])
    )


def _mutations(table: dict, seed: int, work) -> list[tuple[str, int]]:
    """(check name, failures found) with one expectation or reference corrupted."""
    import oracle

    found = []
    resume = run.Run(_toy(table["corpus-resume"]), seed, work / "mutate-corpus")
    resume.work.mkdir(parents=True)
    resume.setup()
    expected = copy.deepcopy(resume.expected)
    key, row = next((k, r) for k, r in expected.upgrades.items() if r["bc_count"] != "0")
    bc_count = int(row["bc_count"]) - 1
    expected.upgrades[key] = dict(row, bc_count=str(bc_count), breaking=str(bc_count > 0).lower())
    found.append(("planted change dropped", oracle.check_corpus(resume.input / "out", expected).failed))

    reference = dict(resume.reference)
    name = next(n for n in reference if n.endswith(".csv"))
    reference[name] = reference[name] + b"\n"
    found.append(("cold-run snapshot changed", oracle.check_identical(resume.input / "out", reference).failed))

    stats = run.Run(_toy(table["analyze-large"]), seed, work / "mutate-analyze")
    stats.work.mkdir(parents=True)
    stats.setup()
    out = stats.work / "out"
    result = stats.invoke(stats.command(stats.input, out, run.JOBS), None)
    if result["code"] != 0:
        raise RuntimeError(f"analyze failed: {result['error']}")
    expected = copy.deepcopy(stats.expected)
    expected.broken["patch"] += 1
    found.append(("broken client miscounted", oracle.check_analysis(out, expected).failed))
    return found


def main() -> int:
    if not (run.SRC / "jarcompat" / "cli.py").is_file():
        sys.stderr.write(f"selfcheck: no jarcompat sources under {run.SRC}\n")
        return 2
    sys.path.insert(0, str(run.SRC))
    table = run.workloads()
    work = run.BENCH / ".work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    try:
        for name, workload in table.items():
            for trace in (False, True):
                result = run.run_workload(_toy(workload), 7, 0, trace, work)
                passed = result["correct"] and result["attempted"] > 0
                ok &= passed
                print(f"{'ok  ' if passed else 'FAIL'} {name} trace={int(trace)}: "
                      f"{result['failed']} of {result['attempted']} rows failed")
                for problem in result["problems"][:5]:
                    print(f"     {problem}")
        for label, failures in _mutations(table, 7, work):
            caught = failures > 0
            ok &= caught
            print(f"{'ok  ' if caught else 'FAIL'} {label}: {failures} rows failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
