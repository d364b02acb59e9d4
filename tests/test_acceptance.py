"""Release acceptance suite.

One test per criterion; each prints a PASS/FAIL line (visible with -s or in
the captured output). The heavy criteria share one deterministic corpus of
random universes spanning the dependency/conflict density grid.
"""

from __future__ import annotations

import random
import time

import pytest

from satmigrate import repo
from satmigrate.closure import ClosureIndex
from satmigrate.controlfile import compare_versions
from satmigrate.encoder import build_encoding
from satmigrate.engine import (MigrationRequest, Unsolvable, solve_migration)
from satmigrate.cli import main as cli_main
from satmigrate.satcore import (SolveStatus, emit_dimacs,
                                extract_mus, normalize_clause,
                                solve_pmaxsat, solve_sat)

from . import oracle
from .generators import (brute_best_measure, projected_solutions,
                         random_instance, random_universe,
                         relevant_conflicts)
from .oracle import brute_force_solve, parse_dimacs

CORPUS_SEED = 20120330
DENSITY_GRID = [(dep, conf) for dep in (0.3, 0.6, 0.9)
                for conf in (0.0, 0.4, 0.9)]
PER_CELL = 112  # 9 cells * 112 = 1008 universes


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    universes = []
    for dep_density, conflict_density in DENSITY_GRID:
        for i in range(PER_CELL):
            universes.append(random_universe(
                rng, size=(i % 10) + 1, dep_density=dep_density,
                conflict_density=conflict_density))
    admissible = [oracle.admissible_masks(u) for u in universes]
    return universes, admissible


def _encodings(universe, idx):
    return [build_encoding(universe, idx, "p2"), build_encoding(universe, idx, "p3"),
            build_encoding(universe, idx, "p4"),
            build_encoding(universe, idx, "p5-strict"),
            build_encoding(universe, idx, "p5-pruned")]


def test_encoding_equivalence_suite(corpus):
    universes, admissible = corpus
    started = time.monotonic()
    mismatches = 0
    assert len(universes) >= 1000
    for universe, (_, masks) in zip(universes, admissible):
        idx = ClosureIndex(universe)
        expected = set(masks)
        for problem in _encodings(universe, idx):
            if projected_solutions(problem, universe) != expected:
                mismatches += 1
    elapsed = time.monotonic() - started
    _report("encoding-equivalence",
            mismatches == 0 and elapsed <= 600.0,
            f"{len(universes)} universes, {mismatches} mismatches, "
            f"{elapsed:.1f}s")


def test_conflict_free_collapse(corpus):
    universes, admissible = corpus
    mismatches = 0
    checked = 0
    for universe, (_, masks) in zip(universes, admissible):
        if universe.conflicts:
            continue
        checked += 1
        idx = ClosureIndex(universe)
        pruned = build_encoding(universe, idx, "p5-pruned")
        if pruned.atoms.num_inst_atoms != 0:
            mismatches += 1
            continue
        if projected_solutions(build_encoding(universe, idx, "p1"), universe) != set(masks):
            mismatches += 1
    _report("conflict-free-collapse", checked >= 200 and mismatches == 0,
            f"{checked} conflict-free universes, {mismatches} mismatches")


def test_optimality(corpus):
    universes, admissible = corpus
    failures = 0
    for universe, (pkgs, masks) in zip(universes, admissible):
        measures, incoming, _ = brute_best_measure(universe, masks, pkgs)
        result = solve_migration(MigrationRequest(mode="max"), universe)
        if result.optimum != max(measures.values()):
            failures += 1
        candidates = len(universe.unstable - universe.testing) + \
            len(universe.testing - universe.unstable)
        if candidates:
            nontrivial = [m for m in measures.values() if m >= 1]
            try:
                result = solve_migration(
                    MigrationRequest(mode="min-nontrivial"), universe)
                changed = candidates - result.optimum
                if not nontrivial or changed != min(nontrivial):
                    failures += 1
            except Unsolvable:
                if nontrivial:
                    failures += 1
        if incoming:
            target_bit = incoming[0]
            target = pkgs[target_bit]
            containing = [measures[m] for m in masks if m >> target_bit & 1]
            try:
                result = solve_migration(
                    MigrationRequest(mode="target", target=target), universe)
                changed = candidates - result.optimum
                if target not in result.t_prime or not containing or \
                        changed != min(containing):
                    failures += 1
            except Unsolvable:
                if containing:
                    failures += 1
    _report("optimality", failures == 0, f"{failures} failures")


def test_size_monotonicity(corpus):
    universes, _ = corpus
    violations = 0
    for universe in universes:
        idx = ClosureIndex(universe)
        p2, p3, p4, p5s, p5p = _encodings(universe, idx)
        chain = [p5p, p5s, p4, p3, p2]
        for smaller, larger in zip(chain, chain[1:]):
            if smaller.num_vars > larger.num_vars or \
                    len(smaller.hard) > len(larger.hard):
                violations += 1
    # strict-reduction sanity is stated at the generator's default densities
    rng = random.Random(CORPUS_SEED + 1)
    reachable_conflict = 0
    strictly_smaller = 0
    for i in range(400):
        universe = random_universe(rng, size=(i % 10) + 1)
        idx = ClosureIndex(universe)
        if not any(relevant_conflicts(idx, p) for p in idx.packages):
            continue
        reachable_conflict += 1
        p3 = build_encoding(universe, idx, "p3")
        p5s = build_encoding(universe, idx, "p5-strict")
        if p5s.num_vars < p3.num_vars and len(p5s.hard) < len(p3.hard):
            strictly_smaller += 1
    ratio = strictly_smaller / reachable_conflict if reachable_conflict else 1.0
    _report("size-monotonicity",
            violations == 0 and reachable_conflict >= 100 and ratio >= 0.5,
            f"{violations} chain violations; strict reduction in "
            f"{strictly_smaller}/{reachable_conflict} = {ratio:.2f}")


def test_p2_closed_form_counts():
    rng = random.Random(8128)
    failures = 0
    for n in range(9):
        for _ in range(3):
            universe = random_universe(rng, size=n, dep_density=0.7,
                                       conflict_density=0.5) if n else \
                repo.make_universe([], {}, [], [], [])
            problem = build_encoding(universe, None, "p2")
            if problem.num_vars != n + n * n:
                failures += 1
            d_clauses = sum(1 for info in problem.info if info[0] == "d")
            expected = n * sum(len(universe.dep[p]) for p in universe.packages)
            if d_clauses != expected:
                failures += 1
    _report("p2-closed-form-counts", failures == 0, f"{failures} failures")


def test_solver_cross_check():
    rng = random.Random(424242)
    failures = 0
    for _ in range(10000):
        num_vars, clauses = random_instance(rng, max_vars=16, max_clauses=60)
        reference = brute_force_solve(clauses, num_vars=num_vars)
        if solve_sat(clauses, num_vars=num_vars).status is not reference.status:
            failures += 1
        soft = [((v if rng.random() < 0.5 else -v),)
                for v in rng.sample(range(1, num_vars + 1),
                                    rng.randint(0, min(8, num_vars)))]
        optimum = solve_pmaxsat(clauses, soft, num_vars=num_vars)
        ref_opt = brute_force_solve(clauses, soft, num_vars=num_vars)
        if optimum.status is not ref_opt.status:
            failures += 1
        elif optimum.status is SolveStatus.OPTIMAL and \
                optimum.satisfied_soft != ref_opt.satisfied_soft:
            failures += 1
    _report("solver-cross-check", failures == 0, f"{failures} failures")


def test_mus_minimality_500():
    rng = random.Random(97)
    failures = 0
    found = 0
    while found < 500:
        num_vars = rng.randint(2, 8)
        clauses = []
        for _ in range(num_vars * 6):
            size = min(rng.randint(1, 3), num_vars)
            variables = rng.sample(range(1, num_vars + 1), size)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in variables))
        if solve_sat(clauses, num_vars=num_vars).status is not SolveStatus.UNSAT:
            continue
        found += 1
        core_idx = extract_mus(clauses, num_vars=num_vars).core
        core = [clauses[i] for i in core_idx]
        if solve_sat(core, num_vars=num_vars).status is not SolveStatus.UNSAT:
            failures += 1
            continue
        for i in range(len(core)):
            rest = core[:i] + core[i + 1:]
            if solve_sat(rest, num_vars=num_vars).status is not SolveStatus.SAT:
                failures += 1
                break
    _report("mus-minimality", failures == 0,
            f"{found} UNSAT instances, {failures} failures")


# 30 versions in strictly increasing order under the fixed comparison
# algorithm (worked out by hand from its rules: '~' lowest, letters before
# other characters, digit runs numeric, epoch dominant, revision last).
VERSION_TABLE = [
    "0~~", "0~~a", "0~", "0", "0a", "0+", "0.1", "0.2", "0.10",
    "1.0~rc1", "1.0~rc2", "1.0", "1.0-1", "1.0-1+b1", "1.0-2", "1.0.1",
    "1.1", "1.2", "1.10", "1.10a", "2.0", "10", "10abc", "10.0",
    "1:0.1", "1:0.10", "1:2", "2:0~", "2:0", "3:1.0-1",
]


def test_version_order_table():
    assert len(VERSION_TABLE) == 30
    failures = 0
    for i, earlier in enumerate(VERSION_TABLE):
        for later in VERSION_TABLE[i + 1:]:
            if not (compare_versions(earlier, later) < 0
                    and compare_versions(later, earlier) > 0):
                failures += 1
        if compare_versions(earlier, earlier) != 0:
            failures += 1
    _report("version-order-table", failures == 0, f"{failures} failures")


def test_dimacs_round_trip():
    rng = random.Random(1009)
    failures = 0
    for _ in range(500):
        num_vars, raw = random_instance(rng, max_vars=12, max_clauses=30)
        hard = [c for c in (normalize_clause(cl) for cl in raw)
                if c is not None]
        soft = [((v,) if rng.random() < 0.5 else (-v,))
                for v in range(1, rng.randint(1, num_vars) + 1)]
        cnf = emit_dimacs(hard, num_vars=num_vars, kind="cnf")
        if parse_dimacs(cnf) != ("cnf", num_vars, hard, []):
            failures += 1
        wcnf = emit_dimacs(hard, soft, num_vars=num_vars, kind="wcnf")
        kind, parsed_vars, parsed_hard, parsed_soft = parse_dimacs(wcnf)
        if (kind, parsed_vars, parsed_hard, parsed_soft) != \
                ("wcnf", num_vars, hard, soft):
            failures += 1
        top_line = wcnf.decode().splitlines()[0].split()
        if int(top_line[4]) != len(soft) + 1:
            failures += 1
    _report("dimacs-round-trip", failures == 0, f"{failures} failures")


def test_end_to_end_fixture(tmp_path, capsys):
    (tmp_path / "testing").write_text("Package: a\nVersion: 1\n\n")
    (tmp_path / "unstable").write_text("Package: a\nVersion: 2\n\n")
    started = time.monotonic()
    code = cli_main(["migrate",
                     "--testing", str(tmp_path / "testing"),
                     "--unstable", str(tmp_path / "unstable"),
                     "--mode", "max"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    ok = (code == 0 and "delta: 2" in out and "easy a/2" in out
          and "verified: yes" in out and elapsed < 1.0)
    with capsys.disabled():
        _report("end-to-end-fixture", ok,
                f"exit {code}, {elapsed * 1000:.0f}ms")
