from __future__ import annotations

import itertools
import random
import stat
import sys

import pytest

import satmigrate.satcore as satcore_mod
from satmigrate.oracle import TooLarge, brute_force_solve, deletion_mus
from satmigrate.satcore import (AssignmentInvalid, DpllSolver, MusTimedOut,
                                NotUnsat, SolveStatus, SolverCrashed,
                                UnparsableOutput,
                                SatCoreError, count_satisfied, emit_dimacs,
                                extract_mus, model_autarky, normalize_clause,
                                parse_dimacs, pure_literal_autarky,
                                run_external, solve_pmaxsat, solve_sat,
                                verify_model)

from .generators import random_instance


# -- plain SAT -------------------------------------------------------------------

def test_empty_instance_is_sat_with_empty_true_set():
    result = solve_sat([], num_vars=0)
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == frozenset()


def test_complementary_units_unsat():
    assert solve_sat([(1,), (-1,)]).status is SolveStatus.UNSAT


def test_three_clause_unsat():
    # enumerating the 4 assignments of {1,2} falsifies one clause each
    assert solve_sat([(1, 2), (-1,), (-2,)]).status is SolveStatus.UNSAT


def test_model_is_verified_and_deterministic():
    result = solve_sat([(1, 2)])
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == {1, 2}  # both pure positive at the root
    assert solve_sat([(1, 2)]).true_atoms == result.true_atoms
    # with mixed polarities purity does not fire; branching is lowest-first
    mixed = solve_sat([(1, 2), (-1, 2), (1, -2)])
    assert mixed.true_atoms == {1, 2}


def test_assumptions_restrict_models():
    result = solve_sat([(1, 2)], assumptions=[-1])
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == {2}
    assert solve_sat([(1,)], assumptions=[-1]).status is SolveStatus.UNSAT


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


def test_budget_learned_clauses_are_dropped_for_a_lower_bound():
    # the only models are {2, 3} and {1, 2, 3}, so at most one of the soft
    # units -1, -2, -3 holds; refuting bound 2 learns the unit -2, which
    # holds in no model and must not survive into the call without a bound
    clauses = [(-3, 1, 2), (1, 2, 3), (2, -3), (-2, 3), (-1, 3), (-1, 2, 3),
               (2, 3, -1), (2, 1)]
    solver = DpllSolver(3, clauses, soft_literals=[-2, -1, -3])
    assert solver.solve(required_soft=2).status is SolveStatus.UNSAT
    assert solver.learned > 0
    result = solver.solve()
    assert result.status is SolveStatus.SAT
    assert result.true_atoms == {2, 3}


def test_reused_solver_answers_like_a_fresh_one():
    rng = random.Random(59)
    for _ in range(500):
        num_vars, clauses = random_instance(rng, max_vars=10, max_clauses=20)
        soft = [(v if rng.random() < 0.5 else -v)
                for v in rng.sample(range(1, num_vars + 1),
                                    rng.randint(0, num_vars))]
        solver = DpllSolver(num_vars, clauses, soft_literals=soft)
        # rising bounds as in the PMAX-SAT search, then a lower bound, then
        # random assumption sets under random bounds
        calls = [((), bound) for bound in range(len(soft) + 2)]
        calls.append(((), rng.randint(0, len(soft))))
        for _ in range(3):
            assumptions = tuple(v if rng.random() < 0.5 else -v
                                for v in rng.sample(range(1, num_vars + 1),
                                                    rng.randint(1, min(3, num_vars))))
            calls.append((assumptions, rng.randint(0, len(soft))))
        for assumptions, bound in calls:
            result = solver.solve(assumptions=assumptions, required_soft=bound)
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
                assert verify_model(clauses + [(lit,) for lit in assumptions],
                                    model)
                assert count_satisfied([(lit,) for lit in soft], model) >= bound


def test_tautologies_are_dropped():
    assert normalize_clause([1, -1, 2]) is None
    assert normalize_clause([2, 1, 2]) == (1, 2)
    result = solve_sat([(1, -1)])
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
    result = solve_pmaxsat([(-1, -2)], [(1,), (2,)])
    assert result.status is SolveStatus.OPTIMAL
    assert result.satisfied_soft == 1


def test_unsat_hard_clauses_win():
    assert solve_pmaxsat([(1,), (-1,)], [(1,)]).status is SolveStatus.UNSAT


def test_soft_must_be_units():
    with pytest.raises(ValueError):
        solve_pmaxsat([], [(1, 2)])


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


# -- MUS extraction -----------------------------------------------------------------

def test_mus_drops_irrelevant_clause():
    result = extract_mus([(1,), (-1,), (2,)])
    assert result.core == (0, 1)


def test_mus_of_single_empty_clause():
    assert extract_mus([()]).core == (0,)


def test_mus_requires_unsat():
    with pytest.raises(NotUnsat):
        extract_mus([(1,)])


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
    assert extract_mus(_sparse_core_instance()).core == (100, 400)
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
    assert extract_mus(clauses).core == (50, 150)
    assert len(calls) <= 30


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
        extract_mus([(1,), (2, 3), (-1,)])


def test_mus_timeout_is_one_deadline_for_the_extraction(monkeypatch):
    budgets = []
    original = satcore_mod.solve_sat

    def recording(*args, timeout, **kwargs):
        budgets.append(timeout)
        return original(*args, timeout=timeout, **kwargs)

    monkeypatch.setattr(satcore_mod, "solve_sat", recording)
    extract_mus(_sparse_core_instance(), timeout=30.0)
    # each trial gets what is left of the one deadline, not a fresh 30 s
    assert len(budgets) > 2 and budgets[0] <= 30.0
    assert all(a > b for a, b in zip(budgets, budgets[1:]))


def test_mus_with_exhausted_budget_raises_timeout():
    with pytest.raises(MusTimedOut):
        extract_mus([(1,), (-1,)], timeout=0.0)


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


def test_cnf_refuses_soft():
    with pytest.raises(ValueError):
        emit_dimacs([(1,)], [(1,)], kind="cnf")


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


def test_external_missing_binary():
    with pytest.raises(SolverCrashed):
        run_external(["/nonexistent/solver"], [(1,)], num_vars=1)


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
