"""satmigrate benchmark runner.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (their reasons are in BENCHMARK.json): migrate-batch,
archive-scale, explain-blocked.
Each workload has fixed archives (gen.py; migrate-batch has a catalog of
40). The seed sets the order of the stanzas in every Packages file and the
order of the operations, so one seed always gives the same inputs while
the work stays comparable across seeds. The runner writes the files,
measures the import time of ``satmigrate.cli`` in fresh interpreters, and
hands the operations to worker.py, a fresh process that calls
``satmigrate.cli.main`` for each of them in a number of passes fixed from
``--seconds`` (see NOMINAL_PASS_S), sampling the machine's speed all the
while so that the operations' times can be scaled to one machine speed
(see ``calibrated``). It then checks every
answer (checks.py), prints a readable report and, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
each execution also runs under the tracer of spans.py, and the metrics
are per-layer times and counts plus the tracing overhead.

An operation fails when it times out (exit 3), exits with another code
than 0, or fails its answer check; only the last two make ``correct``
false. A failed operation is not repeated in later passes, so a timeout
enters the timing samples once. See ``timing`` for the p50 and the tail.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layout import BENCH, ROOT, WORK, use_source_tree

import checks
import gen

CATALOG = [(i, 20 + (i * 37) % 81) for i in range(40)]
MIGRATE_DEADLINE = "3"
EXPLAIN_DEADLINE = "20"
EXPLAIN_NAMES = 100
EXPLAIN_BLOCKED = 4
EXPLAIN_MIGRATING = 3
SCALE_NAMES = 1500
# Import probes before each pass and after the last; setup_s is their best.
SETUP_PROBES = 2
# Seconds one pass over a workload's operations takes on a 2-vCPU VM. Runs
# do int(--seconds / this) passes (half as many when traced), so every run
# measures the same work.
NOMINAL_PASS_S = {"migrate-batch": 6.0, "archive-scale": 5.0, "explain-blocked": 4.5}
RUN_LIMIT_S = 170.0
# worker.probe_work's time, in seconds, on the 2-vCPU VM (Python 3.11.7)
# the benchmark was made on, in that VM's fast phase. Operation times in
# the metrics are scaled to this speed (see calibrated).
REFERENCE_PROBE_S = 0.00015
REFERENCE_FILE = BENCH / "reference_optima.json"


class Op:
    def __init__(self, label, argv, check, out_file=None):
        self.label = label
        self.argv = argv
        self.check = check
        self.out_file = out_file


def catalog_archive(index: int, names: int) -> gen.Archive:
    return gen.generate("migrate-batch", index, names)


def build_migrate_batch(seed: int, work: Path):
    references = json.loads(REFERENCE_FILE.read_text())
    ops, stats = [], []
    for index, names in CATALOG:
        archive = catalog_archive(index, names)
        model = archive.model()
        directory = work / archive.label
        directory.mkdir()
        testing, unstable = gen.write_pair(archive, directory, seed)
        reference = references[archive.label]["optimum"]

        def check(code, text, _path, archive=archive, model=model, reference=reference):
            return checks.check_migrate(code, text, archive, model, reference)

        ops.append(Op(archive.label, ["migrate", "--testing", testing, "--unstable",
                                      unstable, "--mode", "max", "--timeout",
                                      MIGRATE_DEADLINE], check))
        stats.append(gen.input_stats(archive))
    random.Random(f"order:{seed}").shuffle(ops)
    unknown = sum(1 for v in references.values() if v["optimum"] is None)
    summary = {
        "archives": len(stats),
        "packages": sum(s["packages"] for s in stats),
        "names_min": min(s["names"] for s in stats),
        "names_max": max(s["names"] for s in stats),
        "closure_median": statistics.median(s["closure_median"] for s in stats),
        "closure_max": max(s["closure_max"] for s in stats),
        "conflict_pairs": sum(s["conflict_pairs"] for s in stats),
        "easy_share": round(statistics.mean(s["easy_share"] for s in stats), 4),
        "updated_share": round(statistics.mean(s["updated_share"] for s in stats), 4),
        "planted_broken": sum(s["planted_broken"] for s in stats),
        "reference_optimum_unknown": unknown,
    }
    return ops, summary


def build_archive_scale(seed: int, work: Path):
    archive = gen.generate("archive-scale", 0, SCALE_NAMES, broken=4, blocked=4)
    model = archive.model()
    testing, unstable = gen.write_pair(archive, work, seed)
    out = work / "instance.wcnf"
    common = ["--testing", testing, "--unstable", unstable]
    ops = [
        Op("check", ["check", *common],
           lambda code, text, _path: checks.check_check(code, text)),
        Op("emit", ["emit", *common, str(out)],
           lambda code, text, path: checks.check_emit(code, text, Path(path),
                                                      archive, model),
           out_file=str(out)),
    ]
    return ops, gen.input_stats(archive)


def build_explain_blocked(seed: int, work: Path):
    archive = gen.generate("explain-blocked", 0, EXPLAIN_NAMES, broken=3,
                           blocked=EXPLAIN_BLOCKED)
    model = archive.model()
    testing, unstable = gen.write_pair(archive, work, seed)
    common = ["explain", "--testing", testing, "--unstable", unstable,
              "--timeout", EXPLAIN_DEADLINE]
    ops = []
    for candidate in sorted(archive.blocked):
        ops.append(Op(f"blocked {candidate[0]}",
                      [*common, checks.pkg_text(archive, candidate)],
                      lambda code, text, _path, c=candidate:
                      checks.check_explain_blocked(code, text, archive, c)))
    planted = set(archive.broken) | set(archive.blocked)
    incoming = [p for p in model.unstable if p not in set(model.testing)
                and p not in planted]
    for candidate in incoming:
        if len(ops) == len(archive.blocked) + EXPLAIN_MIGRATING:
            break
        witness = checks.migration_witness(model, candidate)
        if witness is None:
            continue
        ops.append(Op(f"migrates {candidate[0]}",
                      [*common, checks.pkg_text(archive, candidate)],
                      lambda code, text, _path, c=candidate, w=witness:
                      checks.check_explain_migrates(code, text, archive, model, c, w)))
    random.Random(f"order:{seed}").shuffle(ops)
    stats = gen.input_stats(archive)
    stats["explained_blocked"] = len(archive.blocked)
    stats["explained_migrating"] = len(ops) - len(archive.blocked)
    return ops, stats


BUILDERS = {
    "migrate-batch": build_migrate_batch,
    "archive-scale": build_archive_scale,
    "explain-blocked": build_explain_blocked,
}


def calibrated(record: dict) -> float:
    """An execution's wall time at the machine speed where the speed probe
    takes REFERENCE_PROBE_S: its wall time, less the probe's own time in
    it, divided by the mean probe sample around it (worker.SpeedProbe)."""
    return (record["wall"] - record["probe_inside"]) * REFERENCE_PROBE_S / record["probe"]


def timing(runs: list[dict], sample) -> tuple[float, float, str]:
    """(p50, tail, how the tail was taken) over the operations, where
    ``sample`` turns one operation's executions into its time.

    p50 is the median of the operations' times. The tail is the highest
    percentile with at least ten operations beyond it, by nearest rank;
    with fewer than 20 operations, where that would not be above the
    median, it is the largest time."""
    per_op: dict[int, list[dict]] = {}
    for r in runs:
        per_op.setdefault(r["op"], []).append(r)
    times = sorted(sample(v) for v in per_op.values())
    n = len(times)
    if n >= 20:
        return statistics.median(times), times[n - 11], f"p{100 * (n - 10) // n} of {n}"
    return statistics.median(times), times[-1], f"largest of {n}"


def median_calibrated(records: list[dict]) -> float:
    """An operation's time in the metrics: the median of its executions'
    calibrated times. The shared 2-vCPU VM the benchmark was made on
    changes speed by up to 2x, both within seconds and over minutes, so a
    run can spend all its passes in a slow phase, and no best-of-passes
    rule removes that. The speed probe, sampled all through every
    execution, slows down about as much as the operations do."""
    return statistics.median(calibrated(r) for r in records)


def best_wall(records: list[dict]) -> float:
    """An operation's best wall time over the passes, for the report."""
    return min(r["wall"] for r in records)


def judge(ops: list[Op], runs: list[dict], trace: bool):
    """Check every execution. Returns (failed executions, failed op indices,
    wrong answers as (label, reason)). A timeout fails an execution; an
    unexpected exit code, a rejected answer or, in the traced run, a replay
    whose answer differs from the untraced one also makes it wrong."""
    failed_runs = 0
    failed_ops: set[int] = set()
    wrong: list[tuple[str, str]] = []
    seen: dict[tuple, str] = {}
    for record in runs:
        op = ops[record["op"]]
        executions = [record] + ([record["traced"]] if trace else [])
        reasons = []
        for ex in executions:
            if ex["code"] == checks.EXIT_TIMEOUT:
                continue
            key = (record["op"], ex["code"], ex["stdout"], ex.get("file_sha"))
            if key not in seen:
                seen[key] = (op.check(ex["code"], ex["stdout"], op.out_file)
                             if ex["code"] == checks.EXIT_OK
                             else f"exit code {ex['code']}: {ex['stderr'][-120:]}")
            if seen[key]:
                reasons.append(seen[key])
        if trace:
            a, b = record, record["traced"]
            if a["code"] == b["code"] == checks.EXIT_OK and (
                    a["stdout"] != b["stdout"] or a.get("file_sha") != b.get("file_sha")):
                reasons.append("traced replay differs from the untraced run")
        wrong += [(op.label, reason) for reason in reasons]
        if reasons or any(ex["code"] != checks.EXIT_OK for ex in executions):
            failed_runs += 1
            failed_ops.add(record["op"])
    return failed_runs, failed_ops, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    use_source_tree()

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, inputs = BUILDERS[args.workload](args.seed, work)
    nominal = NOMINAL_PASS_S[args.workload] * (2 if args.trace else 1)
    plan = {"passes": max(1, int(args.seconds / nominal)),
            "time_cap": 2 * args.seconds, "trace": bool(args.trace),
            "setup_probes": 0 if args.trace else SETUP_PROBES,
            "span_file": str(work / "spans.jsonl"),
            "ops": [{"argv": op.argv, "out_file": op.out_file} for op in ops]}
    (work / "plan.json").write_text(json.dumps(plan))
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "plan.json"),
                        str(work / "result.json")], check=True, timeout=budget)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())
    runs = result["runs"]
    failed_runs, failed_ops, wrong = judge(ops, runs, bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, "
          f"{result['passes']} passes, {len(runs)} executions")
    why = {w["name"]: w["why"] for w in
           json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"why: {why[args.workload]}")
    print("inputs (synthetic; no real archive can be downloaded here): "
          + json.dumps(inputs, sort_keys=True))
    for label, reason in wrong[:10]:
        print(f"WRONG {label}: {reason}")
    timeouts = sorted({ops[r['op']].label for r in runs
                       if r["code"] == checks.EXIT_TIMEOUT})
    if timeouts:
        print(f"timed out: {' '.join(timeouts)}")
    ok_ratio = 1 - len(failed_ops) / len(ops)

    if args.trace:
        metrics = dict(result["per_layer"])
        # the worker runs each traced execution right next to its untraced
        # twin, alternating which goes first; the median over these pairs
        # leaves out the pairs that straddle a change in the VM's speed
        both = [r for r in runs if r["code"] == r["traced"]["code"] == checks.EXIT_OK]
        if both:
            metrics["trace.overhead_s"] = statistics.median(
                r["traced"]["wall"] - r["wall"] for r in both)
            metrics["trace.overhead_ratio"] = statistics.median(
                r["traced"]["wall"] / r["wall"] - 1 for r in both)
        else:
            metrics["trace.overhead_s"] = metrics["trace.overhead_ratio"] = 0.0
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per execution "
              f"({100 * metrics['trace.overhead_ratio']:.1f} %), the median over "
              f"{len(both)} pairs of a traced and an untraced execution")
        if metrics["cli.op_s"]:
            print(f"satcore.pmax_s is {100 * metrics['satcore.pmax_s'] / metrics['cli.op_s']:.1f}"
                  f" % of the traced operation time cli.op_s {metrics['cli.op_s']:.4f} s")
        for bounds in result["bounds"]:
            print(f"bound trajectory (required soft units per DPLL call): {bounds}")
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        for k in ("closure.easy_share", "satcore.pmax_first_ratio",
                  "trace.overhead_ratio"):
            units[k] = "ratio"
    else:
        p50, tail_value, tail_note = timing(runs, median_calibrated)
        raw_p50, raw_tail, _ = timing(runs, best_wall)
        metrics = {
            "setup_s": min(result["setup"]),
            "op_p50_s": p50,
            "op_tail_s": tail_value,
            "ok_ratio": ok_ratio,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        units = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                 "ok_ratio": "ratio", "peak_rss_mb": "MB"}
        name = {"migrate-batch": "migrate", "explain-blocked": "explain",
                "archive-scale": "check|emit"}[args.workload]
        print(f"setup_s {metrics['setup_s']:.4f} s (best of {len(result['setup'])} "
              f"imports spread over the run; their median is "
              f"{statistics.median(result['setup']):.4f} s)")
        print(f"speed probe {1000 * statistics.median(r['probe'] for r in runs):.4f} ms "
              f"(median over the executions; operation times are scaled to "
              f"{1000 * REFERENCE_PROBE_S} ms)")
        print(f"{name}_p50_s {p50:.4f} s (median of {len(ops)} operations' calibrated "
              f"times; on the wall clock, best of passes: {raw_p50:.4f} s)")
        print(f"{name}_tail_s {tail_value:.4f} s ({tail_note}; on the wall clock, "
              f"best of passes: {raw_tail:.4f} s)")
        if args.workload == "archive-scale":
            for i, kind in enumerate(("check", "emit")):
                records = [r for r in runs if r["op"] == i]
                print(f"{kind}_s {median_calibrated(records):.4f} s (calibrated, median "
                      f"of {len(records)}; wall clock best {best_wall(records):.4f} s)")
        print(f"failed_ratio {len(failed_ops) / len(ops):.4f} "
              f"({len(failed_ops)} of {len(ops)} operations; {failed_runs} of "
              f"{len(runs)} executions)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(runs),
        "failed": failed_runs,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
