"""Command-line front end.

Subcommands: migrate, explain, check, stats, emit. Inputs are local
Packages files for the testing and unstable repositories; all diagnostics
go to stderr and exit codes are fixed for scripting:

0 success, 1 usage/parse/IO error, 2 unsolvable, 3 timeout,
4 check found violations. A command returns 0 or 4 and raises on any
failure; ``main`` maps each failure to its exit code and message, and
argparse's usage errors exit 1 too, not 2, which means unsolvable.

Every search of a command reads one deadline, ``--timeout`` seconds from
``main``'s start; running past it exits 3.

``main`` may be called many times in one process; the parser is built
by the first call. Start-up imports only what every command uses: a
module that one path alone needs is imported on that path.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path

from . import controlfile, encoder, engine, repo, satcore
from .closure import ClosureIndex
from .engine import MigrationRequest
from .repo import Package, PolicyRules, Universe

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2
EXIT_TIMEOUT = 3
EXIT_VIOLATIONS = 4

DEFAULT_TIMEOUT = 300.0

# Failures that every command reports as "error: ..." with exit 1;
# main catches engine.Unsolvable and satcore.SolveTimedOut first.
ERRORS = (OSError, ValueError, controlfile.ControlFileError, repo.RepoError,
          encoder.EncoderError, engine.EngineError, satcore.SatCoreError)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _load_universe(args) -> Universe:
    # one parse cache for both files: unstable repeats many testing blocks
    cache: dict = {}
    repos = []
    for path in (args.testing, args.unstable):
        repos.append(controlfile.parse_packages_stream(
            Path(path).read_bytes(), cache))
    return repo.build_universe(repos[0], repos[1])


def _request_from_args(args, mode: str, target: Package | None = None) -> MigrationRequest:
    policy = None
    if args.policy:
        policy = PolicyRules.parse(Path(args.policy).read_text())
    solver = None
    if args.solver:
        import shlex
        solver = shlex.split(args.solver)
    return MigrationRequest(mode=mode, target=target, encoding=args.encoding,
                            policy=policy, solver_command=solver,
                            deadline=args.deadline)


def _modeful_request(args) -> MigrationRequest:
    """The request of migrate and emit, from --mode and --target."""
    target = Package.parse(args.target) if args.target else None
    if args.mode == "target" and target is None:
        raise ValueError("--mode target needs --target NAME/VER")
    if args.mode != "target" and target is not None:
        raise ValueError("--target needs --mode target")
    mode = {"max": "max", "min": "min-nontrivial", "target": "target"}[args.mode]
    return _request_from_args(args, mode, target)


def _print_structured(document: dict):
    sys.stdout.write(engine.dump_structured(document))


def cmd_migrate(args) -> int:
    if args.all_deltas < 0:
        raise ValueError(f"--all-deltas must not be negative, got {args.all_deltas}")
    universe = _load_universe(args)
    request = _modeful_request(args)
    if args.all_deltas:
        results = engine.alternative_optima(request, universe, args.all_deltas)
    else:
        results = [engine.solve_migration(request, universe)]
    if args.format == "structured":
        documents = [engine.structured_report(r) for r in results]
        _print_structured(documents[0] if len(documents) == 1
                          else {"alternatives": documents})
    else:
        for i, result in enumerate(results):
            if i:
                print(f"--- alternative {i} ---")
            sys.stdout.write(engine.render_report(result))
            hints = engine.render_hints(result)
            print("hints:")
            sys.stdout.write(hints)
    return EXIT_OK


def cmd_explain(args) -> int:
    universe = _load_universe(args)
    target = Package.parse(args.package)
    if repo.package_id(universe.order, target) is None:
        import difflib
        close = difflib.get_close_matches(
            target.name, {p.name for p in universe.order}, n=3)
        hint = f"; did you mean: {', '.join(close)}" if close else ""
        raise ValueError(f"unknown package {target}{hint}")
    answer = engine.explain_target(
        _request_from_args(args, "target", target), universe)
    if isinstance(answer, engine.Explanation):
        if args.format == "structured":
            _print_structured({"package": str(target), "migrates": False,
                               "explanation": list(answer.facts)})
        else:
            sys.stdout.write(answer.render())
    elif args.format == "structured":
        _print_structured({"package": str(target), "migrates": True,
                           "delta": answer.delta,
                           "report": engine.structured_report(answer)})
    else:
        print(f"{target} migrates with delta {answer.delta}")
        sys.stdout.write(engine.render_report(answer))
    return EXIT_OK


def cmd_check(args) -> int:
    entries = []
    universe = _load_universe(args)
    packages, testing = universe.order, universe.testing_ids
    for violation in repo.check_testing(universe, args.deadline):
        target = violation.subjects[0]
        entry = {"kind": violation.kind, "detail": violation.detail,
                 "packages": [str(packages[i]) for i in violation.subjects],
                 "explanation": None}
        if violation.kind == "trimmedness":
            clauses, info, ids = repo.installation_query(target, testing,
                                                         universe)
            mus = satcore.extract_mus(clauses, num_vars=len(ids),
                                      deadline=args.deadline)
            entry["explanation"] = [engine.describe_clause(info[i], packages)
                                    for i in mus.core]
        entries.append(entry)
    if args.format == "structured":
        _print_structured({"clean": not entries, "violations": entries})
    elif not entries:
        print("testing is trimmed and unique")
    else:
        for entry in entries:
            print(f"{entry['kind']}: {entry['detail']}")
            for fact in entry["explanation"] or ():
                print(f"  - {fact}")
    return EXIT_OK if not entries else EXIT_VIOLATIONS


def _stats_rows(universe: Universe, idx: ClosureIndex) -> list[dict]:
    rows = []
    names = (["p1"] if not universe.conflict_pairs else []) + \
        ["p3", "p4", "p5-strict", "p5-pruned"]
    for name in names:
        problem = encoder.build_encoding(universe, idx, name)
        stats = encoder.instance_stats(problem)
        rows.append({
            "encoding": stats.encoding_id,
            "atoms": stats.atoms_total,
            "package_atoms": stats.package_atoms,
            "inst_atoms": stats.inst_atoms,
            "clauses": stats.hard_clauses,
            "by_family": stats.by_family,
        })
    return rows


def cmd_stats(args) -> int:
    universe = _load_universe(args)
    idx = ClosureIndex(universe)
    rows = _stats_rows(universe, idx)

    def _distribution(values):
        ordered = sorted(values) or [0]
        n = len(ordered)
        # the median: the mean of the two middle values when n is even,
        # truncated to an int
        median = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
        return {"min": ordered[0], "median": int(median), "max": ordered[-1]}

    ids = range(len(idx.packages))
    sizes = [len(idx.closure(i)) for i in ids]
    closure_dist = _distribution(sizes)
    connecting_dist = _distribution([len(idx.connecting_ids(i)) for i in ids])
    top = [{"package": str(idx.packages[i]), "closure_size": sizes[i]}
           for i in sorted(ids, key=lambda i: -sizes[i])[:5]]
    if args.format == "structured":
        _print_structured({
            "packages": len(idx.packages),
            "easy": len(idx.easy_ids),
            "closure_size_distribution": closure_dist,
            "connecting_size_distribution": connecting_dist,
            "largest_closures": top,
            "encodings": rows,
        })
        return EXIT_OK
    print(f"packages: {len(idx.packages)}")
    print(f"easy packages: {len(idx.easy_ids)}")
    print("closure sizes: min {min} median {median} max {max}".format(**closure_dist))
    print("connecting sizes: min {min} median {median} max {max}".format(
        **connecting_dist))
    for entry in top:
        print(f"  top closure: {entry['package']} ({entry['closure_size']})")
    print(f"{'encoding':<10} {'atoms':>8} {'inst':>8} {'clauses':>8}")
    for row in rows:
        print(f"{row['encoding']:<10} {row['atoms']:>8} {row['inst_atoms']:>8} "
              f"{row['clauses']:>8}")
    return EXIT_OK


def cmd_emit(args) -> int:
    universe = _load_universe(args)
    request = _modeful_request(args)
    problem = encoder.build_encoding(universe, None, request.encoding,
                                     request.policy)
    engine.attach_objective(request, universe, problem)
    if args.kind == "cnf" and problem.soft:
        raise ValueError("cnf cannot carry the soft clauses of this objective")
    payload = satcore.emit_dimacs(problem.hard,
                                  problem.soft if args.kind == "wcnf" else None,
                                  num_vars=problem.num_vars, kind=args.kind)
    out = Path(args.out)
    out.write_bytes(payload)
    map_path = Path(str(out) + ".map")
    map_path.write_text(problem.atoms.render_map())
    if args.format == "structured":
        _print_structured({"instance": str(out), "atom_map": str(map_path),
                           "kind": args.kind,
                           "atoms": problem.num_vars,
                           "hard_clauses": len(problem.hard),
                           "soft_clauses": len(problem.soft)})
    else:
        print(f"wrote {out} and {map_path}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built by the first call and shared by
    every later one in the process: parsing keeps no state in it."""
    common = _ArgumentParser(add_help=False)
    common.add_argument("--testing", required=True, help="Packages file for testing")
    common.add_argument("--unstable", required=True, help="Packages file for unstable")
    common.add_argument("--encoding", default="p5",
                        choices=["p1", "p3", "p4", "p5", "p5-strict", "p2-oracle"])
    common.add_argument("--policy", help="policy rules file")
    common.add_argument("--solver", help="external solver command")
    common.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        help="seconds for the whole command (default 300)")
    common.add_argument("--format", default="text", choices=["text", "structured"])
    modeful = _ArgumentParser(add_help=False)
    modeful.add_argument("--mode", default="max", choices=["max", "min", "target"])
    modeful.add_argument("--target", help="candidate package as NAME/VER")

    parser = _ArgumentParser(
        prog="satmigrate",
        description="Decide which packages may migrate from unstable to "
                    "testing while keeping every package installable.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("migrate", parents=[common, modeful],
                       help="solve the migration and print report and hints")
    p.add_argument("--all-deltas", type=int, default=0, metavar="K",
                   help="also report up to K alternative optima")
    p.set_defaults(func=cmd_migrate)
    p = sub.add_parser("explain", parents=[common],
                       help="explain why a package does or does not migrate")
    p.add_argument("package", help="candidate package as NAME/VER")
    p.set_defaults(func=cmd_explain)
    p = sub.add_parser("check", parents=[common],
                       help="verify that testing is trimmed and unique")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("stats", parents=[common],
                       help="print per-encoding instance sizes")
    p.set_defaults(func=cmd_stats)
    p = sub.add_parser("emit", parents=[common, modeful],
                       help="write the instance as DIMACS plus an atom map")
    p.add_argument("out", help="output path for the DIMACS file")
    p.add_argument("--kind", default="wcnf", choices=["cnf", "wcnf"])
    p.set_defaults(func=cmd_emit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.timeout > 0:
        return _fail(f"--timeout must be positive, got {args.timeout}")
    args.deadline = time.monotonic() + args.timeout
    try:
        return args.func(args)
    except engine.Unsolvable as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE
    except satcore.SolveTimedOut as exc:  # past the deadline, in any search
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
