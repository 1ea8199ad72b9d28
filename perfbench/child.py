"""One benchmark repetition in a fresh process.

Usage: python3 child.py RESULT_JSON SPANS_JSON|- JARCOMPAT_ARG...

Calls ``jarcompat.cli.main`` in-process and times only that call. With a
spans path, every layer boundary in ``spans.install`` records spans, which
are written there when the command ends. The result file holds the exit
code, wall seconds, peak RSS over this process and its reaped children
(the corpus pool workers), and the traceback if the command raised.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, install


def peak_rss_kb() -> int:
    """Peak RSS of this process since it started, or of its largest reaped child.

    Linux carries the launching process's peak into this process's
    ``ru_maxrss`` across exec, so this process's own peak is read from
    ``VmHWM``, which counts only its own address space.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass  # no procfs: fall back to ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> None:
    result_path, spans_path, command = Path(argv[0]), argv[1], argv[2:]
    from jarcompat import cli

    tracer = Tracer() if spans_path != "-" else None
    error = None
    start = time.perf_counter()
    try:
        if tracer is not None:
            # Inside the try: a hook point that no longer exists fails this
            # repetition with its traceback instead of killing the process.
            install(tracer)
        code = cli.main(command)
    except Exception:  # reported to the parent, which counts the rows as failed
        code, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start
    peak_kb = peak_rss_kb()
    if tracer is not None:
        tracer.dump(Path(spans_path))
    result_path.write_text(
        json.dumps({"code": code, "error": error, "wall_s": wall_s, "peak_rss_mb": peak_kb / 1024}),
        encoding="utf-8",
    )


if __name__ == "__main__":
    main(sys.argv[1:])
