from __future__ import annotations

import random
import stat
import sys

import pytest

import satmigrate.satcore as satcore_mod
from satmigrate.closure import ClosureIndex
from satmigrate.encoder import PolicyRules, build_encoding, target_clause
from satmigrate.engine import (ActuallySolvable, Budgets,
                               MigrationRequest, OptimumMismatch,
                               RefuseUnverified, SolveTimedOut, Unsolvable,
                               alternative_optima, build_problem,
                               decode_solution,
                               dump_structured, explain_non_migration,
                               parse_structured_report, render_hints,
                               render_report, solve_migration,
                               structured_report)
from satmigrate.oracle import admissible_sets, deletion_mus
from satmigrate.repo import is_admissible

from .generators import P, clustered_universe, tiny_universe


def _upgrade_universe():
    return tiny_universe(["a/1", "a/2"], testing=["a/1"], unstable=["a/2"])


# -- solve_migration --------------------------------------------------------------

def test_simple_upgrade_max_mode():
    u = _upgrade_universe()
    # brute force over subsets: admissible are {}, {a/1}, {a/2}
    assert set(admissible_sets(u)) == {frozenset(), frozenset({P("a/1")}),
                                       frozenset({P("a/2")})}
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert result.t_prime == {P("a/2")}
    assert result.delta == 2
    assert result.optimum == 2
    assert result.verified


def test_encodings_agree_on_mid_scale_universes():
    # the embedded solver returns a result only for a proven optimum
    # (UNSAT and TIMEOUT raise), and each T' is re-checked admissible here
    rng = random.Random(83)
    for _ in range(12):
        size = rng.randint(100, 300)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 10))
        idx = ClosureIndex(u)
        optima = set()
        for encoding in ("p3", "p4", "p5-strict", "p5-pruned"):
            req = MigrationRequest(mode="max", encoding=encoding,
                                   budgets=Budgets(pmax_timeout=10.0))
            result = solve_migration(req, u, idx)
            assert result.verified and is_admissible(result.t_prime, u, None, idx)
            optima.add(result.optimum)
        assert len(optima) == 1, (size, optima)


def test_no_candidates_trivial_result():
    u = tiny_universe(["a/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert result.t_prime == u.testing
    assert result.delta == 0
    assert result.optimum == 0


def test_blocked_candidate_optimum_removes_outdated():
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    # a/2 cannot enter; the only soft gain is removing a/1
    assert result.t_prime == frozenset()
    assert result.optimum == 1
    assert result.delta == 1


def test_min_nontrivial_picks_smallest_change():
    u = tiny_universe(["a/1", "a/2", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "b/1"])
    result = solve_migration(MigrationRequest(mode="min-nontrivial"), u)
    assert result.t_prime == {P("b/1")}  # removing a/1 is a single change
    assert result.delta == 1


def test_target_mode_contains_target():
    u = tiny_universe(["a/1", "a/2", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "b/1"])
    result = solve_migration(
        MigrationRequest(mode="target", target=P("a/2")), u)
    assert P("a/2") in result.t_prime
    assert result.delta == 2  # a/2 in, a/1 out (uniqueness)


def test_every_encoding_agrees_on_the_fixture():
    u = tiny_universe(["a/1", "a/2", "b/1", "c/1"],
                      dep={"a/2": [["b/1", "c/1"]]},
                      conflicts=[("b/1", "c/1")],
                      testing=["a/1", "b/1"], unstable=["a/2", "b/1", "c/1"])
    deltas = {}
    for encoding in ("p2-oracle", "p3", "p4", "p5-strict", "p5-pruned"):
        result = solve_migration(MigrationRequest(mode="max",
                                                  encoding=encoding), u)
        deltas[encoding] = (result.optimum, result.delta)
    assert len(set(deltas.values())) == 1


def test_unsolvable_policy_raises():
    u = tiny_universe(["a/1", "broken/1"], dep={"broken/1": [[]]},
                      testing=["a/1"], unstable=["a/1", "broken/1"])
    policy = PolicyRules(extra_clauses=[[(1, P("broken/1"))]])
    with pytest.raises(Unsolvable):
        solve_migration(MigrationRequest(mode="max", policy=policy), u)


def test_broken_testing_reported_and_removed():
    u = tiny_universe(["a/1", "gone/1"], dep={"gone/1": [[]]},
                      testing=["a/1", "gone/1"], unstable=["a/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert any("gone/1" in w for w in result.warnings)
    assert P("gone/1") not in result.t_prime


def test_result_is_independently_verified():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert is_admissible(result.t_prime, u).ok


def test_solve_migration_builds_the_closure_index_once(monkeypatch):
    built = []
    original = ClosureIndex.__init__

    def counting(self, universe):
        built.append(universe)
        original(self, universe)

    monkeypatch.setattr(ClosureIndex, "__init__", counting)
    u = tiny_universe(["a/1", "a/2", "b/1", "c/1"],
                      dep={"a/2": [["b/1", "c/1"]]},
                      conflicts=[("b/1", "c/1")],
                      testing=["a/1", "b/1"], unstable=["a/2", "b/1", "c/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert P("a/2") in result.t_prime
    assert len(built) == 1


def test_alternative_optima_enumerates_ties():
    # two independent incoming packages that conflict pairwise in testing
    u = tiny_universe(["x/1", "y/1", "z/1"],
                      dep={"x/1": [["z/1"]], "y/1": [["z/1"]]},
                      conflicts=[("x/1", "y/1")],
                      testing=["z/1"], unstable=["x/1", "y/1", "z/1"])
    # both {x,z} and {y,z} are optima with one migration each... but x and y
    # only conflict as installations; both can sit in T'. The real optimum
    # takes both, so only one optimum exists.
    results = alternative_optima(MigrationRequest(mode="max"), u, 3)
    assert results[0].t_prime == {P("x/1"), P("y/1"), P("z/1")}
    assert len(results) == 1


def test_alternative_optima_reports_equal_count_alternatives():
    u = tiny_universe(["a/1", "a/2", "a/3"], testing=["a/1"],
                      unstable=["a/2", "a/3"])
    results = alternative_optima(MigrationRequest(mode="max"), u, 5)
    counts = {r.optimum for r in results}
    assert counts == {2}
    assert len(results) == 2  # a/2 or a/3 replaces a/1
    assert {frozenset(r.t_prime) for r in results} == {
        frozenset({P("a/2")}), frozenset({P("a/3")})}


def test_alternative_optima_builds_the_encoding_once(monkeypatch):
    from satmigrate import encoder

    built = []
    original = encoder.build_encoding

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(encoder, "build_encoding", counting)
    u = tiny_universe(["a/1", "a/2", "a/3", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "a/3", "b/1"])
    results = alternative_optima(MigrationRequest(mode="max"), u, 2)
    assert len(results) == 2
    assert len(built) == 1


# -- decode -----------------------------------------------------------------------

def test_decode_all_false():
    u = _upgrade_universe()
    problem = build_encoding(u, None, "p1")
    assert decode_solution(frozenset(), problem.atoms) == frozenset()


def test_decode_ignores_inst_atoms():
    u = tiny_universe(["a/1"])
    problem = build_encoding(u, None, "p2")
    a = problem.atoms.pkg(P("a/1"))
    aa = problem.atoms.inst(P("a/1"), P("a/1"))
    assert decode_solution(frozenset({a, aa}), problem.atoms) == {P("a/1")}
    assert decode_solution(frozenset({aa}), problem.atoms) == frozenset()


# -- explanations ------------------------------------------------------------------

def test_explanation_cites_empty_disjunction():
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    req = MigrationRequest(mode="target", target=P("a/2"))
    explanation = explain_non_migration(P("a/2"), u, ClosureIndex(u), req)
    assert any("a/2 requires one of [nothing]" in fact
               for fact in explanation.facts)
    assert any("migration of a/2 was requested" in fact
               for fact in explanation.facts)


def test_explanation_names_conflict_pair_and_context():
    # the incoming package needs two packages that conflict with each other,
    # so no installation for it exists; the deletion core was worked out by
    # hand: target unit, seed clause, both dependency clauses, the conflict
    u = tiny_universe(
        ["p/1", "p/2", "n/1", "k/1"],
        dep={"p/2": [["n/1"], ["k/1"]]},
        conflicts=[("n/1", "k/1")],
        testing=["p/1"], unstable=["p/2", "n/1", "k/1"])
    req = MigrationRequest(mode="target", target=P("p/2"))
    explanation = explain_non_migration(P("p/2"), u, ClosureIndex(u), req)
    assert any("k/1 conflicts with n/1 (installation for p/2)" in fact
               for fact in explanation.facts)
    assert any("migration of p/2 was requested" in fact
               for fact in explanation.facts)


def test_explanation_core_equals_one_by_one_deletion():
    u = tiny_universe(
        ["p/1", "p/2", "n/1", "k/1"],
        dep={"p/2": [["n/1"], ["k/1"]]},
        conflicts=[("n/1", "k/1")],
        testing=["p/1"], unstable=["p/2", "n/1", "k/1"])
    req = MigrationRequest(mode="target", target=P("p/2"))
    problem = build_problem(req, u)
    problem.hard.append(target_clause(P("p/2"), u, problem.atoms)[0])
    explanation = explain_non_migration(P("p/2"), u, ClosureIndex(u), req)
    assert explanation.core == deletion_mus(problem.hard,
                                            num_vars=problem.num_vars)
    assert explanation.facts == (
        "p/2 needs an installation containing itself",
        "p/2 requires one of [k/1] in the installation for p/2",
        "p/2 requires one of [n/1] in the installation for p/2",
        "k/1 conflicts with n/1 (installation for p/2)",
        "the migration of p/2 was requested")


def test_explanation_core_equals_one_by_one_deletion_mid_scale():
    # the installation sub-problems of these encodings, with their
    # dependency cycles, hold autarkies beyond pure literals, which the
    # random instances of test_satcore rarely do; the first blocked target
    # of each universe gives cores of 2 to 9 among 287 to 1246 clauses
    rng = random.Random(97)
    checked = 0
    for _ in range(6):
        size = rng.randint(50, 90)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 8))
        idx = ClosureIndex(u)
        for p in sorted(u.unstable - u.testing):
            for encoding in ("p5-strict", "p5-pruned"):
                req = MigrationRequest(mode="target", target=p,
                                       encoding=encoding)
                problem = build_problem(req, u, idx)
                problem.hard.append(target_clause(p, u, problem.atoms)[0])
                if satcore_mod.solve_sat(problem.hard).status \
                        is not satcore_mod.SolveStatus.UNSAT:
                    break
                assert satcore_mod.extract_mus(
                    problem.hard, num_vars=problem.num_vars).core == \
                    deletion_mus(problem.hard, num_vars=problem.num_vars), \
                    (size, p, encoding)
                checked += 1
            else:
                break
    assert checked >= 8


def test_explanation_core_timeout_is_a_solve_timeout(monkeypatch):
    def fake_mus(hard, num_vars=None, timeout=None):
        raise satcore_mod.MusTimedOut("timeout during core minimization")

    monkeypatch.setattr(satcore_mod, "extract_mus", fake_mus)
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    req = MigrationRequest(mode="target", target=P("a/2"))
    with pytest.raises(SolveTimedOut, match="core minimization"):
        explain_non_migration(P("a/2"), u, None, req)


def test_explaining_migratable_package_raises():
    u = _upgrade_universe()
    req = MigrationRequest(mode="target", target=P("a/2"))
    with pytest.raises(ActuallySolvable):
        explain_non_migration(P("a/2"), u, None, req)


# -- hints / reports ----------------------------------------------------------------

def test_hints_version_replacement_single_easy_line():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert render_hints(result) == "easy a/2\n"


def test_hints_bare_removal():
    u = tiny_universe(["b/1"], dep={"b/1": [[]]},
                      testing=["b/1"], unstable=[])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert render_hints(result) == "remove b/1\n"


def test_hints_empty_delta():
    u = tiny_universe(["a/1"])
    result = solve_migration(MigrationRequest(mode="max"), u)
    assert render_hints(result) == ""


def test_hints_refuse_unverified():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    object.__setattr__ if False else None
    result.verified = False
    with pytest.raises(RefuseUnverified):
        render_hints(result)


def test_structured_report_round_trip():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    document = structured_report(result)
    parsed = parse_structured_report(dump_structured(document))
    assert parsed == document
    assert parsed["delta"] == 2
    assert parsed["t_prime"] == ["a/2"]
    assert parsed["optimum"] == {"count": 2, "externally_claimed": False}


def test_render_report_mentions_core_fields():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    text = render_report(result)
    assert "delta: 2" in text
    assert "migrated-in: a/2" in text
    assert "verified: yes" in text


# -- external solver paths -------------------------------------------------------------


def _fake_solver(tmp_path, body):
    script = tmp_path / "solver.py"
    script.write_text(f"#!{sys.executable}\n{body}")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return [str(script)]


def test_external_optimum_accepted_and_flagged(tmp_path):
    u = _upgrade_universe()
    # atoms: a/1 -> 1, a/2 -> 2; optimum keeps a/2 only
    cmd = _fake_solver(tmp_path,
                       "print('o 0')\nprint('s OPTIMUM FOUND')\n"
                       "print('v -1 2 0')\n")
    result = solve_migration(
        MigrationRequest(mode="max", solver_command=cmd), u)
    assert result.t_prime == {P("a/2")}
    assert result.optimum == 2
    assert result.externally_claimed


def test_external_cost_mismatch_is_an_error(tmp_path):
    u = _upgrade_universe()
    cmd = _fake_solver(tmp_path,
                       "print('o 1')\nprint('s OPTIMUM FOUND')\n"
                       "print('v -1 2 0')\n")
    with pytest.raises(OptimumMismatch):
        solve_migration(MigrationRequest(mode="max", solver_command=cmd), u)


def test_external_plain_sat_is_accepted_with_warning(tmp_path):
    u = _upgrade_universe()
    cmd = _fake_solver(tmp_path,
                       "print('s SATISFIABLE')\nprint('v -1 -2 0')\n")
    result = solve_migration(
        MigrationRequest(mode="max", solver_command=cmd), u)
    assert result.t_prime == frozenset()
    assert any("optimality" in w for w in result.warnings)
    assert not result.externally_claimed
