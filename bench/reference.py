"""Reference optima of the migrate-batch catalog.

Usage: python3 bench/reference.py

Solves every catalog archive in max mode with the p4 and the p5-pruned
encoding, each under a deadline of DEADLINE_S seconds, and writes
reference_optima.json.
The paper claims the encodings have the same solutions, so an optimum is
recorded only when both finish and agree; a disagreement stops the script.
An archive where either times out gets optimum null, and the benchmark
checks its answers for admissibility only.
"""

from __future__ import annotations

import json
import sys
import time

from layout import use_source_tree

import run

DEADLINE_S = 60.0


def main() -> int:
    use_source_tree()
    from satmigrate import controlfile, engine, repo

    out = {}
    for index, names in run.CATALOG:
        archive = run.catalog_archive(index, names)
        text_t = run.gen.render(archive.testing, archive.seeds)
        text_u = run.gen.render(archive.unstable, archive.seeds)
        universe = repo.build_universe(controlfile.parse_packages_stream(text_t),
                                       controlfile.parse_packages_stream(text_u))
        entry = {}
        for encoding in ("p4", "p5-pruned"):
            request = engine.MigrationRequest(
                mode="max", encoding=encoding,
                budgets=engine.Budgets(pmax_timeout=DEADLINE_S))
            start = time.perf_counter()
            try:
                entry[encoding] = engine.solve_migration(request, universe).optimum
            except engine.SolveTimedOut:
                entry[encoding] = None
            entry[f"{encoding}_s"] = round(time.perf_counter() - start, 3)
        if None not in (entry["p4"], entry["p5-pruned"]) and \
                entry["p4"] != entry["p5-pruned"]:
            print(f"{archive.label}: p4 and p5-pruned disagree: {entry}",
                  file=sys.stderr)
            return 1
        entry["optimum"] = entry["p5-pruned"] if entry["p4"] is not None else None
        out[archive.label] = entry
        print(archive.label, entry, flush=True)
    (run.BENCH / "reference_optima.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
