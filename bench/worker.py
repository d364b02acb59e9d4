"""Measured loop of one benchmark run, in a fresh process.

Usage: python3 worker.py PLAN.json RESULT.json

The plan lists operations as satmigrate argument vectors. The worker runs
them in the plan's number of passes through ``satmigrate.cli.main`` in
this one process, with stdout and stderr captured; it starts no further
pass once ``time_cap`` seconds have gone by. An operation that fails
(timeout or unexpected exit code) is not repeated in later passes.
Before each pass and after the last, the worker times ``setup_probes``
imports of ``satmigrate.cli`` in fresh interpreters, so that the set-up
samples are spread over the run.
Without ``trace``, a ``SpeedProbe`` samples the machine's speed all
through each pass, also while an operation runs. With ``trace`` set, each
execution runs once untraced and once under the tracer, so that the two
can be compared.

The result holds every execution's wall time, exit code and output (and,
untraced, the speed samples around it), the import times, and the
process's peak resident set size.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layout import ROOT, SRC, use_source_tree

use_source_tree()

from satmigrate import cli  # noqa: E402

PROBE_STEPS = 150
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW_S = 0.1
IMPORT_PROBE = ("import time; t = time.perf_counter(); import satmigrate.cli; "
                "print(time.perf_counter() - t)")


def probe_imports(count: int) -> list[float]:
    """Import time of satmigrate.cli in ``count`` fresh interpreters. This
    process has imported it already, so the bytecode cache is warm."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                                 env=env, capture_output=True, text=True,
                                 timeout=60, check=True).stdout)
            for _ in range(count)]


def probe_work() -> None:
    """A fixed piece of pure-Python work: dict, tuple and list churn, the
    kind of work satmigrate does. It shares no code with satmigrate."""
    x, counts, acc = 7, {}, 0
    for i in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 200_000, i & 63)
        counts[key] = counts.get(key, 0) + 1
        acc += len([v for v in (key[0], key[1], i) if v & 1])


class SpeedProbe:
    """Samples the machine's speed while the operations run.

    The shared VM the benchmark was made on switches between a fast and a
    slow phase, about 1.7x apart, within seconds and for whole minutes,
    also in the middle of an operation. So every PROBE_INTERVAL_S of wall
    time a SIGALRM handler, which runs between the operation's bytecodes,
    times ``probe_work``; the collector is off meanwhile, so the program's
    heap does not weigh on the sample. An execution's speed is the mean
    sample within PROBE_WINDOW_S of it, so a phase change in the middle of
    a long operation is weighed by the time spent in each phase.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((end, end - start))

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def annotate(self, record: dict) -> None:
        """Add the probe's time inside the execution (it is part of the
        wall time) and the mean sample around it."""
        start, end = record["start"], record["start"] + record["wall"]
        record["probe_inside"] = sum(d for t, d in self.samples if start < t <= end)
        around = [d for t, d in self.samples
                  if start - PROBE_WINDOW_S < t <= end + PROBE_WINDOW_S]
        if not around:  # the handler waits for a long call into C to return
            middle = (start + end) / 2
            around = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        record["probe"] = statistics.mean(around)


def execute(argv: list[str], out_file: str | None, tracer=None) -> dict:
    """Run one command; with a tracer, under its spans."""
    # every real command starts in a fresh process; collecting the previous
    # operation's garbage first keeps its heap from being timed here
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
        root = tracer.begin_op(argv[0])
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is an answer the check rejects
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(root)
            tracer.uninstall()
    record = {"start": start, "wall": wall, "code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue()[-300:]}
    if out_file is not None and Path(out_file).exists():
        record["file_sha"] = hashlib.sha256(Path(out_file).read_bytes()).hexdigest()
    return record


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    ops = plan["ops"]
    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
    runs: list[dict] = []
    setup: list[float] = []
    failed: set[int] = set()
    passes = 0
    start = time.perf_counter()
    for number in range(plan["passes"]):
        if time.perf_counter() - start > plan["time_cap"] or len(failed) == len(ops):
            break
        setup += probe_imports(plan["setup_probes"])
        probe = SpeedProbe() if tracer is None else None
        records = []
        with probe or contextlib.nullcontext():
            for i, op in enumerate(ops):
                if i in failed:
                    continue
                if tracer is None:
                    record = execute(op["argv"], op.get("out_file"))
                else:
                    # alternate which run goes first, so a drift in machine
                    # speed does not land on the tracing overhead
                    plain_first = (number + i) % 2 == 0
                    first = execute(op["argv"], op.get("out_file"),
                                    None if plain_first else tracer)
                    second = execute(op["argv"], op.get("out_file"),
                                     tracer if plain_first else None)
                    record, traced = (first, second) if plain_first else (second, first)
                    record["traced"] = traced
                record.update(op=i, pass_=number)
                if record["code"] != 0:
                    failed.add(i)
                records.append(record)
        if probe is not None:
            for record in records:
                probe.annotate(record)
        runs += records
        passes = number + 1
    setup += probe_imports(plan["setup_probes"])
    result = {"runs": runs, "passes": passes, "setup": setup,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["bounds"] = tracer.bound_trajectories()[:5]
        tracer.write(plan["span_file"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
