from __future__ import annotations

import itertools
import math
import random
import stat
import sys
import time

import pytest

import satmigrate.satcore as satcore_mod
from satmigrate import encoder, engine
from satmigrate.satcore import (AssignmentInvalid, DpllSolver, NotUnsat,
                                SolveStatus, SolverCrashed, SolveTimedOut,
                                UnparsableOutput,
                                SatCoreError, count_satisfied, emit_dimacs,
                                extract_mus, model_autarky, normalize_clause,
                                pure_literal_autarky,
                                run_external, solve_pmaxsat, solve_sat,
                                verify_model)

from .generators import clustered_universe, random_instance
from .oracle import (TooLarge, brute_force_solve, clause_satisfied,
                     deletion_mus, parse_dimacs)


# -- plain SAT -------------------------------------------------------------------

def test_empty_instance_is_sat_with_empty_true_set():
    result = solve_sat([], num_vars=0)
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == frozenset()


def test_complementary_units_unsat():
    assert solve_sat([(1,), (-1,)], num_vars=1).status is SolveStatus.UNSAT


def test_three_clause_unsat():
    # enumerating the 4 assignments of {1,2} falsifies one clause each
    assert solve_sat([(1, 2), (-1,), (-2,)], num_vars=2).status is SolveStatus.UNSAT


def test_model_is_verified_and_deterministic():
    result = solve_sat([(1, 2)], num_vars=2)
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == {1, 2}  # both pure positive at the root
    assert solve_sat([(1, 2)], num_vars=2).true_atoms == result.true_atoms
    # with mixed polarities purity does not fire; branching is lowest-first
    mixed = solve_sat([(1, 2), (-1, 2), (1, -2)], num_vars=2)
    assert mixed.true_atoms == {1, 2}


def test_assumptions_restrict_models():
    result = DpllSolver(2, [(1, 2)]).solve(assumptions=[-1])
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == {2}
    assert DpllSolver(1, [(1,)]).solve(assumptions=[-1]).status \
        is SolveStatus.UNSAT


def test_solver_reusable_across_assumption_sets():
    solver = DpllSolver(3, [(1, 2), (-2, 3)])
    seen = []
    for mask in range(8):
        assumptions = [(v if mask >> (v - 1) & 1 else -v) for v in (1, 2, 3)]
        seen.append(solver.solve(assumptions=assumptions).status)
    expected = [SolveStatus.UNSAT, SolveStatus.SAT, SolveStatus.UNSAT,
                SolveStatus.UNSAT, SolveStatus.UNSAT, SolveStatus.SAT,
                SolveStatus.SAT, SolveStatus.SAT]
    # oracle: clause set {1∨2, ¬2∨3} checked by hand for each corner
    assert seen == expected


def _pigeonhole(pigeons: int, holes: int):
    def var(i, j):
        return i * holes + j + 1

    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    clauses += [(-var(i, j), -var(k, j)) for j in range(holes)
                for i in range(pigeons) for k in range(i + 1, pigeons)]
    return pigeons * holes, clauses


def test_solver_counters_are_deterministic():
    runs = []
    for _ in range(2):
        solver = DpllSolver(*_pigeonhole(6, 5))
        assert solver.solve().status is SolveStatus.UNSAT
        runs.append((solver.decisions, solver.propagations, solver.conflicts,
                     solver.learned, solver.restarts))
    assert runs[0] == runs[1]
    assert runs[0][4] > 0  # long enough to restart
    solver = DpllSolver(*_pigeonhole(3, 2))
    assert solver.solve().status is SolveStatus.UNSAT
    assert solver.conflicts > 0 and solver.learned > 0


def test_a_falling_bound_is_refused():
    # the only models are {2, 3} and {1, 2, 3}, so at most one of the soft
    # units -1, -2, -3 holds; refuting bound 2 learns the unit -2, which
    # holds in no model, so no later call may ask for less than bound 2
    clauses = [(-3, 1, 2), (1, 2, 3), (2, -3), (-2, 3), (-1, 3), (-1, 2, 3),
               (2, 3, -1), (2, 1)]
    solver = DpllSolver(3, clauses, soft_literals=[-2, -1, -3])
    assert solver.solve(required_soft=2).status is SolveStatus.UNSAT
    assert solver.learned > 0

    def counters():
        return (solver.decisions, solver.propagations, solver.conflicts,
                solver.learned, solver.restarts)

    before = counters()
    with pytest.raises(ValueError, match="required_soft 0 is below the"
                                         " earlier call's 2"):
        solver.solve()
    assert counters() == before
    assert solver.solve(required_soft=2).status is SolveStatus.UNSAT


def test_reused_solver_answers_like_a_fresh_one():
    rng = random.Random(59)
    for _ in range(500):
        num_vars, clauses = random_instance(rng, max_vars=10, max_clauses=20)
        soft = [(v if rng.random() < 0.5 else -v)
                for v in rng.sample(range(1, num_vars + 1),
                                    rng.randint(0, num_vars))]
        # one solver for the rising bounds of the PMAX-SAT search, another
        # for random assumption sets under random bounds, in rising order
        searched = [((), bound) for bound in range(len(soft) + 2)]
        assumed = []
        for _ in range(3):
            assumptions = tuple(v if rng.random() < 0.5 else -v
                                for v in rng.sample(range(1, num_vars + 1),
                                                    rng.randint(1, min(3, num_vars))))
            assumed.append((assumptions, rng.randint(0, len(soft))))
        assumed.sort(key=lambda call: call[1])
        for calls in (searched, assumed):
            solver = DpllSolver(num_vars, clauses, soft_literals=soft)
            for assumptions, bound in calls:
                result = solver.solve(assumptions=assumptions,
                                      required_soft=bound)
                fresh = DpllSolver(num_vars, clauses, soft_literals=soft).solve(
                    assumptions=assumptions, required_soft=bound)
                reference = brute_force_solve(
                    clauses + [(lit,) for lit in assumptions],
                    [(lit,) for lit in soft], num_vars=num_vars)
                feasible = reference.status is SolveStatus.OPTIMAL and \
                    reference.satisfied_soft >= bound
                expected = SolveStatus.SAT if feasible else SolveStatus.UNSAT
                assert result.status is fresh.status is expected, \
                    (clauses, soft, assumptions, bound)
                if feasible:
                    model = result.true_atoms
                    assert verify_model(
                        clauses + [(lit,) for lit in assumptions], model)
                    assert count_satisfied([(lit,) for lit in soft],
                                           model) >= bound


def test_tautologies_are_dropped():
    assert normalize_clause([1, -1, 2]) is None
    assert normalize_clause([2, 1, 2]) == (1, 2)
    result = solve_sat([(1, -1)], num_vars=1)
    assert result.status is SolveStatus.SAT


def _reference_normalize(literals):
    # the definition normalize_clause had before it sorted by abs alone
    seen = set(literals)
    if 0 in seen:
        raise ValueError("literal 0 is not allowed")
    for lit in seen:
        if -lit in seen:
            return None
    return tuple(sorted(seen, key=lambda l: (abs(l), l)))


def test_normalize_clause_matches_reference_definition():
    rng = random.Random(83)
    outcomes = {"clause": 0, "tautology": 0, "zero": 0}
    for _ in range(12000):
        width = rng.randint(0, 8)
        span = rng.choice((3, 6, 40))
        literals = [rng.randint(-span, span) for _ in range(width)]
        if literals and rng.random() < 0.3:
            literals.append(rng.choice(literals))  # a duplicate
        try:
            expected = _reference_normalize(literals)
        except ValueError:
            with pytest.raises(ValueError):
                normalize_clause(literals)
            outcomes["zero"] += 1
            continue
        assert normalize_clause(literals) == expected, literals
        outcomes["tautology" if expected is None else "clause"] += 1
    assert min(outcomes.values()) > 1000, outcomes


# -- PMAX-SAT --------------------------------------------------------------------

def test_complementary_soft_units_score_one():
    result = solve_pmaxsat([], [(1,), (-1,)], num_vars=1)
    assert result.status is SolveStatus.OPTIMAL
    assert result.satisfied_soft == 1


def test_hard_clause_limits_soft_satisfaction():
    result = solve_pmaxsat([(-1, -2)], [(1,), (2,)], num_vars=2)
    assert result.status is SolveStatus.OPTIMAL
    assert result.satisfied_soft == 1


def test_unsat_hard_clauses_win():
    assert solve_pmaxsat([(1,), (-1,)], [(1,)], num_vars=1).status \
        is SolveStatus.UNSAT


def test_soft_must_be_units():
    with pytest.raises(ValueError):
        solve_pmaxsat([], [(1, 2)], num_vars=2)


def test_soft_only_vars_are_still_optimized():
    result = solve_pmaxsat([], [(-3,), (-3,)], num_vars=3)
    assert result.satisfied_soft == 2


# -- brute force oracle ------------------------------------------------------------

def test_brute_force_mirrors_pmaxsat_examples():
    assert brute_force_solve([], [(1,), (-1,)], num_vars=1).satisfied_soft == 1
    assert brute_force_solve([(-1, -2)], [(1,), (2,)]).satisfied_soft == 1
    assert brute_force_solve([(1,), (-1,)], [(1,)]).status is SolveStatus.UNSAT


def test_brute_force_zero_vars():
    assert brute_force_solve([], num_vars=0).status is SolveStatus.SAT


def test_brute_force_bound():
    with pytest.raises(TooLarge):
        brute_force_solve([], num_vars=25)


def test_embedded_solvers_agree_with_brute_force_sample():
    rng = random.Random(41)
    for _ in range(300):
        num_vars, clauses = random_instance(rng, max_vars=10, max_clauses=30)
        reference = brute_force_solve(clauses, num_vars=num_vars)
        result = solve_sat(clauses, num_vars=num_vars)
        assert result.status is reference.status
        soft = [((v if rng.random() < 0.5 else -v),)
                for v in rng.sample(range(1, num_vars + 1),
                                    rng.randint(0, num_vars))]
        ref_opt = brute_force_solve(clauses, soft, num_vars=num_vars)
        opt = solve_pmaxsat(clauses, soft, num_vars=num_vars)
        assert opt.status is ref_opt.status
        if opt.status is SolveStatus.OPTIMAL:
            assert opt.satisfied_soft == ref_opt.satisfied_soft


def _noncanonical_instance(rng, max_vars, max_clauses):
    """A random instance whose clauses repeat literals, hold both signs of
    a variable and list their literals in no order."""
    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        clause = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                  for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            clause.append(rng.choice(clause))
        if rng.random() < 0.15:
            clause.append(-rng.choice(clause))
        rng.shuffle(clause)
        clauses.append(clause)
    return num_vars, clauses


def _shapes(clauses) -> set[str]:
    shapes = set()
    for clause in clauses:
        canonical = normalize_clause(clause)
        if canonical is None:
            shapes.add("tautology")
        elif len(canonical) < len(clause):
            shapes.add("duplicate")
        elif tuple(clause) != canonical:
            shapes.add("unsorted")
    return shapes


def test_solvers_read_noncanonical_clauses_as_given():
    rng = random.Random(97)
    seen = {"tautology": 0, "duplicate": 0, "unsorted": 0}
    for _ in range(400):
        num_vars, clauses = _noncanonical_instance(rng, 8, 30)
        for shape in _shapes(clauses):
            seen[shape] += 1
        reference = brute_force_solve(clauses, num_vars=num_vars)
        assert solve_sat(clauses, num_vars=num_vars).status is \
            reference.status, clauses
        soft = [(rng.choice((-1, 1)) * rng.randint(1, num_vars),)
                for _ in range(rng.randint(0, num_vars))]
        ref_opt = brute_force_solve(clauses, soft, num_vars=num_vars)
        opt = solve_pmaxsat(clauses, soft, num_vars=num_vars)
        assert opt.status is ref_opt.status, (clauses, soft)
        if opt.status is SolveStatus.OPTIMAL:
            assert opt.satisfied_soft == ref_opt.satisfied_soft, (clauses, soft)
            assert verify_model(clauses, opt.true_atoms)
    assert min(seen.values()) > 50, seen


def test_mus_of_noncanonical_clauses_equals_one_by_one_deletion():
    rng = random.Random(101)
    found = 0
    while found < 150:
        num_vars, clauses = _noncanonical_instance(rng, 6, 40)
        if solve_sat(clauses, num_vars=num_vars).status is not SolveStatus.UNSAT:
            continue
        found += 1
        assert extract_mus(clauses, num_vars=num_vars).core == \
            deletion_mus(clauses, num_vars=num_vars), clauses


def test_solver_refuses_literal_zero_and_literals_beyond_num_vars():
    with pytest.raises(ValueError, match="literal 0 names no variable in 1..2"):
        DpllSolver(2, [(1, 0, 2)])
    with pytest.raises(ValueError, match="literal -3 names no variable in 1..2"):
        DpllSolver(2, [(1, -3)])
    with pytest.raises(ValueError, match="literal 3 names no variable in 1..2"):
        DpllSolver(2, [(3,)])


def test_soft_literals_are_checked_like_hard_ones():
    with pytest.raises(ValueError, match="literal 0 names no variable in 1..1"):
        solve_pmaxsat([(1,)], [(0,)], num_vars=1)
    with pytest.raises(ValueError, match="literal 0 names no variable in 1..1"):
        DpllSolver(1, [(1,)], soft_literals=[0]).solve(required_soft=1)
    with pytest.raises(ValueError, match="literal -2 names no variable in 1..1"):
        solve_pmaxsat([(1,)], [(-2,)], num_vars=1)


@pytest.mark.parametrize("lit", [5, 0, 9, -4])
def test_assumptions_are_checked_like_hard_literals(lit):
    # 5 would index the value slot of -3, 0 would be ignored, 9 overrun
    solver = DpllSolver(3, [(1, 2), (3,)])
    with pytest.raises(ValueError,
                       match=f"literal {lit} names no variable in 1..3"):
        solver.solve(assumptions=[lit])
    # the refused call leaves the solver as it was
    assert solver.solve(assumptions=[-1]).true_atoms == {2, 3}


# -- MUS extraction -----------------------------------------------------------------

def test_mus_drops_irrelevant_clause():
    result = extract_mus([(1,), (-1,), (2,)], num_vars=2)
    assert result.core == (0, 1)


def test_mus_of_single_empty_clause():
    assert extract_mus([()], num_vars=0).core == (0,)


def test_mus_requires_unsat():
    with pytest.raises(NotUnsat):
        extract_mus([(1,)], num_vars=1)


def test_mus_minimality_on_random_unsat_instances():
    rng = random.Random(43)
    found = 0
    while found < 40:
        num_vars = rng.randint(2, 8)
        clauses = []
        for _ in range(rng.randint(6, 28)):
            size = rng.randint(1, 3)
            variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in variables))
        if solve_sat(clauses, num_vars=num_vars).status is not SolveStatus.UNSAT:
            continue
        found += 1
        core_idx = extract_mus(clauses, num_vars=num_vars).core
        core = [clauses[i] for i in core_idx]
        assert solve_sat(core, num_vars=num_vars).status is SolveStatus.UNSAT
        for i in range(len(core)):
            rest = core[:i] + core[i + 1:]
            assert solve_sat(rest, num_vars=num_vars).status is SolveStatus.SAT


def test_mus_equals_one_by_one_deletion_on_random_instances():
    rng = random.Random(53)
    found = 0
    while found < 1000:
        num_vars, clauses = random_instance(rng, max_vars=10, max_clauses=60)
        if solve_sat(clauses, num_vars=num_vars).status is not SolveStatus.UNSAT:
            continue
        found += 1
        assert extract_mus(clauses, num_vars=num_vars).core == \
            deletion_mus(clauses, num_vars=num_vars), clauses


def _sparse_core_instance():
    # 512 clauses; the only core is (1,) at index 100 and (-1,) at index 400,
    # every other clause is a satisfiable pair of positive literals
    clauses = [(2 + i % 50, 2 + (i * 7 + 3) % 50) for i in range(512)]
    clauses[100] = (1,)
    clauses[400] = (-1,)
    return clauses


def test_mus_sparse_core_takes_few_sat_calls(monkeypatch):
    calls = []
    original = satcore_mod.solve_sat

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(satcore_mod, "solve_sat", counting)
    assert extract_mus(_sparse_core_instance(), num_vars=51).core == (100, 400)
    assert len(calls) <= 64


def test_mus_on_a_ring_prunes_with_model_autarkies(monkeypatch):
    # a satisfiable ring x1 <- x2 <- ... <- x200 <- x1, in which no literal
    # is pure, with (1,) at index 50 and (-1,) at index 150; one-by-one
    # chunked deletion alone needs 44 SAT calls
    ring = [(i, -(i % 200 + 1)) for i in range(1, 201)]
    clauses = ring[:50] + [(1,)] + ring[50:149] + [(-1,)] + ring[149:]
    assert not pure_literal_autarky(clauses)
    calls = []
    original = satcore_mod.solve_sat

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(satcore_mod, "solve_sat", counting)
    assert extract_mus(clauses, num_vars=200).core == (50, 150)
    assert len(calls) <= 30


def test_mus_trials_are_solved_over_their_own_variables(monkeypatch):
    # a satisfiable ring over 12 variables spread up to 200,000, in which no
    # literal is pure, and a 2-clause core on one more such variable
    rng = random.Random(71)
    ids = rng.sample(range(1, 200_001), 13)
    ring = [(ids[k], -ids[(k + 1) % 12]) for k in range(12)]
    clauses = ring[:4] + [(ids[12],)] + ring[4:9] + [(-ids[12],)] + ring[9:]
    calls = []
    original = satcore_mod.solve_sat

    def recording(hard, num_vars, **kwargs):
        calls.append((list(hard), num_vars))
        return original(hard, num_vars=num_vars, **kwargs)

    monkeypatch.setattr(satcore_mod, "solve_sat", recording)
    core = extract_mus(clauses, num_vars=200_000).core
    monkeypatch.undo()
    assert core == (4, 10) == deletion_mus(clauses, num_vars=200_000)
    assert calls
    for hard, num_vars in calls:
        assert num_vars <= len({abs(lit) for clause in hard for lit in clause})


def test_mus_over_a_wide_variable_range_equals_one_by_one_deletion():
    # random instances with duplicate literals, tautologies and unsorted
    # clauses, their variables scattered over 1..3000 in no order, and now
    # and then an empty clause
    rng = random.Random(73)
    found = 0
    while found < 80:
        num_vars, clauses = _noncanonical_instance(rng, 8, 30)
        ids = rng.sample(range(1, 3001), num_vars)
        clauses = [[ids[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in clause]
                   for clause in clauses]
        if rng.random() < 0.1:
            clauses.insert(rng.randint(0, len(clauses)), [])
        if solve_sat(clauses, num_vars=3000).status is not SolveStatus.UNSAT:
            continue
        found += 1
        assert extract_mus(clauses, num_vars=3000).core == \
            deletion_mus(clauses, num_vars=3000), clauses


def test_mus_checks_every_literal_and_refuses_satisfiable_instances():
    # (2, 0) and (3,) would go with pure-literal elimination before any
    # solver call; their literals are still refused
    with pytest.raises(ValueError, match="literal 0 names no variable in 1..2"):
        extract_mus([(1,), (-1,), (2, 0)], num_vars=2)
    with pytest.raises(ValueError, match="literal 3 names no variable in 1..2"):
        extract_mus([(1,), (-1,), (3,)], num_vars=2)
    with pytest.raises(ValueError, match="literal -3 names no variable in 1..2"):
        extract_mus([(1,), (2, -3), (-1,)], num_vars=2)
    with pytest.raises(ValueError, match="literal 0 names no variable in 1..1"):
        extract_mus([(1,), (-1, 0)], num_vars=1)
    with pytest.raises(NotUnsat):
        extract_mus([(1, 2), (-1, 2)], num_vars=200_000)
    with pytest.raises(NotUnsat):
        extract_mus([(1, -2), (2, -1)], num_vars=5)


def _touched(clauses, assignment) -> set[int]:
    return {pos for pos, clause in enumerate(clauses)
            if any(abs(lit) in assignment for lit in clause)}


def _is_autarky(clauses, assignment) -> bool:
    return all(any(assignment.get(abs(lit)) == (lit > 0) for lit in clauses[pos])
               for pos in _touched(clauses, assignment))


def test_pure_literal_autarky_matches_its_definition():
    # every dropped clause is touched by some partial assignment that
    # satisfies every clause it touches (found here by enumerating them
    # all), and no dropped clause is in the reference core
    rng = random.Random(61)
    checked = 0
    for _ in range(400):
        num_vars, clauses = random_instance(rng, max_vars=6, max_clauses=14)
        clauses = [tuple(c) for c in clauses]
        dropped = pure_literal_autarky(clauses)
        prunable = set()
        for values in itertools.product((None, True, False), repeat=num_vars):
            assignment = {v: b for v, b in enumerate(values, 1) if b is not None}
            if _is_autarky(clauses, assignment):
                prunable |= _touched(clauses, assignment)
        assert dropped <= prunable, clauses
        if dropped and solve_sat(clauses, num_vars=num_vars).status \
                is SolveStatus.UNSAT:
            checked += 1
            assert not dropped & set(deletion_mus(clauses, num_vars=num_vars))
    assert checked >= 10


def test_model_autarky_matches_its_definition():
    # the largest autarky inside an assignment touches exactly the clauses
    # that some autarky inside it touches (every restriction of it to a
    # subset of the variables is tried), and none of them is in the
    # reference core
    rng = random.Random(67)
    checked = 0
    for _ in range(600):
        num_vars, clauses = random_instance(rng, max_vars=8, max_clauses=30)
        clauses = [tuple(c) for c in clauses]
        true_atoms = {v for v in range(1, num_vars + 1) if rng.random() < 0.5}
        dropped = model_autarky(clauses, true_atoms)
        prunable = set()
        for mask in range(1 << num_vars):
            assignment = {v: v in true_atoms for v in range(1, num_vars + 1)
                          if mask >> (v - 1) & 1}
            if _is_autarky(clauses, assignment):
                prunable |= _touched(clauses, assignment)
        assert dropped == prunable, (clauses, true_atoms)
        if dropped and solve_sat(clauses, num_vars=num_vars).status \
                is SolveStatus.UNSAT:
            checked += 1
            assert not dropped & set(deletion_mus(clauses, num_vars=num_vars))
    assert checked >= 10


def test_autarky_on_a_kept_clause_is_an_internal_error(monkeypatch):
    # (1,) and (-1,) are each in every core, so a helper that claims to
    # prune a kept clause is caught instead of silently shrinking the core
    monkeypatch.setattr(satcore_mod, "model_autarky",
                        lambda clauses, true_atoms: set(range(len(clauses))))
    with pytest.raises(SatCoreError, match="touched a kept core clause"):
        extract_mus([(1,), (2, 3), (-1,)], num_vars=3)


def test_mus_timeout_is_one_deadline_for_the_extraction(monkeypatch):
    deadlines = []
    original = satcore_mod.solve_sat

    def recording(*args, deadline, **kwargs):
        deadlines.append(deadline)
        return original(*args, deadline=deadline, **kwargs)

    monkeypatch.setattr(satcore_mod, "solve_sat", recording)
    deadline = time.monotonic() + 30.0
    extract_mus(_sparse_core_instance(), num_vars=51, deadline=deadline)
    # each trial reads the one deadline, not a fresh 30 s
    assert len(deadlines) > 2 and set(deadlines) == {deadline}


def test_mus_with_exhausted_budget_raises_timeout():
    with pytest.raises(SolveTimedOut,
                       match="^timeout during core minimization$"):
        extract_mus([(1,), (-1,)], num_vars=1, deadline=time.monotonic())


def test_a_solve_that_starts_after_its_deadline_does_no_search():
    # without a clock read before the first step, these small instances
    # were solved whatever the deadline
    past = time.monotonic() - 5.0
    assert solve_pmaxsat([(1, 2)], [(1,), (2,)], num_vars=2,
                         deadline=past).status is SolveStatus.TIMEOUT
    assert solve_sat([(1, 2)], num_vars=2,
                     deadline=time.monotonic()).status is SolveStatus.TIMEOUT
    solver = DpllSolver(2, [(1, 2)])
    assert solver.solve(deadline=past).status is SolveStatus.TIMEOUT
    assert (solver.decisions, solver.propagations) == (0, 0)
    assert solver.solve().status is SolveStatus.SAT
    assert solve_pmaxsat([(1, 2)], [(1,), (2,)], num_vars=2,
                         deadline=math.inf).status is SolveStatus.OPTIMAL


# -- DIMACS -----------------------------------------------------------------------

def test_cnf_bytes_exact():
    assert emit_dimacs([(1, -2)], num_vars=2) == b"p cnf 2 1\n1 -2 0\n"


def test_wcnf_bytes_exact():
    payload = emit_dimacs([(1,)], [(-1,)], num_vars=1, kind="wcnf")
    assert payload == b"p wcnf 1 2 2\n2 1 0\n1 -1 0\n"


def test_empty_cnf():
    assert emit_dimacs([], num_vars=0) == b"p cnf 0 0\n"


def _reference_dimacs(hard, soft, num_vars, kind):
    # the line formula emit_dimacs had before it preformatted the weights
    hard = [tuple(c) for c in hard]
    soft = [tuple(c) for c in soft]
    if kind == "cnf":
        lines = [f"p cnf {num_vars} {len(hard)}"]
        lines += [" ".join(map(str, c + (0,))) for c in hard]
    else:
        top = len(soft) + 1
        lines = [f"p wcnf {num_vars} {len(hard) + len(soft)} {top}"]
        lines += [" ".join(map(str, (top,) + c + (0,))) for c in hard]
        lines += [" ".join(map(str, (1,) + c + (0,))) for c in soft]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_emit_dimacs_matches_reference_formula():
    rng = random.Random(89)
    for _ in range(400):
        num_vars = rng.randint(0, 30)

        def clause():
            return [rng.choice((-1, 1)) * rng.randint(1, max(num_vars, 1))
                    for _ in range(rng.randint(0, 5))]

        hard = [clause() for _ in range(rng.randint(0, 12))]
        soft = [clause() for _ in range(rng.randint(0, 12))]
        assert emit_dimacs(hard, num_vars=num_vars) == \
            _reference_dimacs(hard, [], num_vars, "cnf")
        assert emit_dimacs(hard, soft, num_vars=num_vars, kind="wcnf") == \
            _reference_dimacs(hard, soft, num_vars, "wcnf")
        assert emit_dimacs(iter(hard), iter(soft), num_vars=num_vars,
                           kind="wcnf") == \
            _reference_dimacs(hard, soft, num_vars, "wcnf")


def _reference_map(atoms):
    # the line formula render_map had before it named each package once
    pkgs = atoms.packages
    lines = [f"{i} pkg {p}" for i, p in enumerate(pkgs, start=1)]
    lines += [f"{i} inst {pkgs[member]} @ {pkgs[context]}"
              for i, (context, member) in
              enumerate(atoms.inst_pairs, start=atoms.num_package_atoms + 1)]
    return "\n".join(lines) + ("\n" if lines else "")


def test_encoded_instances_match_reference_formulas():
    checked = 0
    for seed, size in ((3, 100), (17, 180), (29, 300)):
        u = clustered_universe(random.Random(seed), size, conflicts=size // 8)
        target = min(u.unstable - u.testing)
        for name in ("p3", "p4", "p5-strict", "p5-pruned"):
            for mode in engine.MODES:
                problem = encoder.build_encoding(u, None, name)
                request = engine.MigrationRequest(
                    mode=mode, target=target if mode == "target" else None)
                engine.attach_objective(request, u, problem)
                hard, soft, n = problem.hard, problem.soft, problem.num_vars
                assert soft and len(problem.atoms) > problem.atoms.num_package_atoms
                assert emit_dimacs(hard, soft, num_vars=n, kind="wcnf") == \
                    _reference_dimacs(hard, soft, n, "wcnf")
                assert emit_dimacs(hard, num_vars=n) == \
                    _reference_dimacs(hard, [], n, "cnf")
                assert problem.atoms.render_map() == _reference_map(problem.atoms)
                checked += 1
    assert checked == 3 * 4 * 3


def test_emit_dimacs_same_bytes_from_lists_tuples_and_iterators():
    rng = random.Random(211)
    for _ in range(200):
        num_vars = rng.randint(1, 40)
        hard = [[rng.choice((-1, 1)) * rng.randint(1, num_vars)
                 for _ in range(rng.randint(0, 7))]
                for _ in range(rng.randint(0, 15))]
        soft = [[rng.choice((-1, 1)) * rng.randint(1, num_vars)]
                for _ in range(rng.randint(0, 6))]
        expected = _reference_dimacs(hard, soft, num_vars, "wcnf")
        expected_cnf = _reference_dimacs(hard, [], num_vars, "cnf")
        views = [
            (hard, soft),
            ([tuple(c) for c in hard], [tuple(c) for c in soft]),
            (tuple(tuple(c) for c in hard), tuple(tuple(c) for c in soft)),
            (iter(hard), iter(soft)),
            ((tuple(c) for c in hard), (list(c) for c in soft)),
        ]
        for h, sf in views:
            assert emit_dimacs(h, sf, num_vars=num_vars, kind="wcnf") == expected
        for h, _ in views[:2] + [(iter(hard), None), (tuple(hard), None)]:
            assert emit_dimacs(h, num_vars=num_vars) == expected_cnf


def test_cnf_refuses_soft():
    with pytest.raises(ValueError):
        emit_dimacs([(1,)], [(1,)], num_vars=1, kind="cnf")


def test_dimacs_round_trip():
    rng = random.Random(47)
    for _ in range(50):
        num_vars, clauses = random_instance(rng, max_vars=8, max_clauses=12)
        hard = [normalize_clause(c) for c in clauses]
        hard = [c for c in hard if c is not None]
        soft = [((v,) if rng.random() < 0.5 else (-v,))
                for v in range(1, rng.randint(1, num_vars) + 1)]
        payload = emit_dimacs(hard, soft, num_vars=num_vars, kind="wcnf")
        kind, parsed_vars, parsed_hard, parsed_soft = parse_dimacs(payload)
        assert (kind, parsed_vars) == ("wcnf", num_vars)
        assert parsed_hard == hard and parsed_soft == soft
        assert emit_dimacs(parsed_hard, parsed_soft, num_vars=parsed_vars,
                           kind="wcnf") == payload
        cnf = emit_dimacs(hard, num_vars=num_vars)
        assert parse_dimacs(cnf) == ("cnf", num_vars, hard, [])


def test_wcnf_top_weight_rule():
    payload = emit_dimacs([(1,)], [(1,), (2,), (-1,)], num_vars=2, kind="wcnf")
    header = payload.decode().splitlines()[0]
    assert header == "p wcnf 2 4 4"  # top = soft count + 1


# -- external solver adapter ---------------------------------------------------------


def _fake_solver(tmp_path, name, body):
    script = tmp_path / name
    script.write_text(f"#!{sys.executable}\n{body}")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return [str(script)]


def test_external_solver_reads_exactly_the_emitted_instance(tmp_path):
    saved = tmp_path / "instance"
    cmd = _fake_solver(tmp_path, "saver.py",
                       "import shutil, sys\n"
                       f"shutil.copyfile(sys.argv[1], {str(saved)!r})\n"
                       "print('s UNKNOWN')\n")
    rng = random.Random(307)
    for kind in ("cnf", "wcnf", "wcnf"):
        num_vars = rng.randint(5, 30)
        hard = [tuple(rng.choice((-1, 1)) * rng.randint(1, num_vars - 3)
                      for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 25))]
        soft = [(rng.choice((-1, 1)) * rng.randint(1, num_vars),)
                for _ in range(rng.randint(1, 8))] if kind == "wcnf" else []
        expected = emit_dimacs(hard, soft, num_vars=num_vars, kind=kind)
        for h, sf in ((hard, soft), (iter(hard), iter(soft))):
            saved.unlink(missing_ok=True)
            result = run_external(cmd, h, sf, num_vars=num_vars, kind=kind)
            assert result.status is SolveStatus.TIMEOUT
            assert saved.read_bytes() == expected


def test_external_unsat(tmp_path):
    cmd = _fake_solver(tmp_path, "unsat.py", "print('s UNSATISFIABLE')\n")
    assert run_external(cmd, [(1,)], num_vars=1).status is SolveStatus.UNSAT


def test_external_invalid_model_rejected(tmp_path):
    cmd = _fake_solver(tmp_path, "liar.py",
                       "print('s SATISFIABLE')\nprint('v -1 0')\n")
    with pytest.raises(AssignmentInvalid):
        run_external(cmd, [(1,)], num_vars=1)


def test_external_optimum_recounted(tmp_path):
    body = ("print('o 1')\n"
            "print('s OPTIMUM FOUND')\n"
            "print('v 1 -2 0')\n")
    cmd = _fake_solver(tmp_path, "opt.py", body)
    result = run_external(cmd, [(1,)], [(1,), (2,)], num_vars=2, kind="wcnf")
    assert result.status is SolveStatus.OPTIMAL
    assert result.externally_claimed
    assert result.satisfied_soft == 1  # recomputed from the model
    assert result.claimed_cost == 1


def test_external_garbage_output(tmp_path):
    cmd = _fake_solver(tmp_path, "noise.py", "print('hello world')\n")
    with pytest.raises(UnparsableOutput):
        run_external(cmd, [(1,)], num_vars=1)


@pytest.mark.parametrize("values", ["1 x 0", "1 2.0 0", "1 3 0", "-3 0"])
def test_external_bad_value_line_is_unparsable(tmp_path, values):
    cmd = _fake_solver(tmp_path, "bad_value.py",
                       f"print('s SATISFIABLE')\nprint('v {values}')\n")
    with pytest.raises(UnparsableOutput, match="bad value line"):
        run_external(cmd, [(1,)], num_vars=2)


def test_external_missing_binary():
    with pytest.raises(SolverCrashed):
        run_external(["/nonexistent/solver"], [(1,)], num_vars=1)


def test_external_solver_is_not_started_after_its_deadline(tmp_path):
    started = tmp_path / "started"
    cmd = _fake_solver(tmp_path, "marker.py",
                       f"open({str(started)!r}, 'w').close()\n"
                       "print('s UNSATISFIABLE')\n")
    result = run_external(cmd, [(1,)], num_vars=1, deadline=time.monotonic())
    assert result.status is SolveStatus.TIMEOUT
    assert not started.exists()
    assert run_external(cmd, [(1,)], num_vars=1,
                        deadline=math.inf).status is SolveStatus.UNSAT
    assert started.exists()


def test_external_exit_code_ignored(tmp_path):
    body = "import sys\nprint('s SATISFIABLE')\nprint('v 1 0')\nsys.exit(10)\n"
    cmd = _fake_solver(tmp_path, "exit10.py", body)
    result = run_external(cmd, [(1,)], num_vars=1)
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == {1}


def test_count_and_verify_helpers():
    assert verify_model([(1, -2)], {1})
    assert not verify_model([(2,)], {1})
    assert count_satisfied([(1,), (-2,), (2,)], {1}) == 2


def test_verify_and_count_match_per_literal_definition():
    rng = random.Random(401)
    outcomes = set()
    for _ in range(2000):
        num_vars = rng.randint(1, 8)
        # the model may name atoms that no clause uses
        model = frozenset(v for v in range(1, num_vars + 3)
                          if rng.random() < 0.5)
        clauses = []
        for _ in range(rng.randint(0, 10)):
            # empty clauses, duplicate literals and both signs of a
            # variable all occur; most clauses get a literal the model makes
            # true, so that whole instances are satisfied now and then
            clause = [rng.choice((-1, 1)) * rng.randint(1, num_vars)
                      for _ in range(rng.choice((0, 1, 2, 3, 4, 6)))]
            if clause and rng.random() < 0.7:
                v = rng.randint(1, num_vars)
                clause.append(v if v in model else -v)
            clauses.append(clause)
        satisfied = sum(clause_satisfied(c, model) for c in clauses)
        valid = satisfied == len(clauses)
        outcomes.add(valid)
        for view in (clauses, [tuple(c) for c in clauses]):
            assert verify_model(view, model) is valid
            assert count_satisfied(view, model) == satisfied
        assert verify_model(iter(clauses), set(model)) is valid
        assert count_satisfied((tuple(c) for c in clauses), model) == satisfied
    assert outcomes == {True, False}
