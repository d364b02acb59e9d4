from __future__ import annotations

import json
import random
import stat
import sys

import pytest

import satmigrate.satcore as satcore_mod
from satmigrate import engine, repo
from satmigrate.closure import ClosureIndex
from satmigrate.encoder import PolicyRules, build_encoding, target_clause
from satmigrate.engine import (ActuallySolvable, Budgets,
                               MigrationRequest, OptimumMismatch,
                               RefuseUnverified, SolveTimedOut, Unsolvable,
                               alternative_optima, decode_solution,
                               dump_structured, explain_non_migration,
                               render_hints,
                               render_report, solve_migration,
                               structured_report)
from satmigrate.repo import Package, is_admissible

from . import oracle
from .generators import P, clustered_universe, random_universe, tiny_universe
from .oracle import admissible_sets, deletion_mus


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
            result = solve_migration(req, u)
            assert result.verified and is_admissible(result.t_prime, u, None, idx)
            optima.add(result.optimum)
        assert len(optima) == 1, (size, optima)


def test_restore_shared_on_ids_matches_the_package_level_loop():
    rng = random.Random(89)
    restored = policy_mattered = 0
    for _ in range(12):
        size = rng.randint(100, 300)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 10))
        idx = ClosureIndex(u)
        shared = sorted(u.testing & u.unstable)
        # the shared packages a solver dropped, and a few candidates moved
        t_prime = frozenset(p for p in u.packages
                            if rng.random() < (0.4 if p in shared else 0.7))
        a, b, c = rng.sample(shared, 3)
        policy = PolicyRules(groups=[[(1, a), (1, b)]],
                             extra_clauses=[[(-1, c)]])
        answers = []
        for rules in (None, policy):
            expected = oracle.restore_shared(t_prime, u, rules)
            assert engine._restore_shared(t_prime, u, rules, idx) == expected
            answers.append(expected)
        restored += len(answers[0] - t_prime)
        policy_mattered += answers[0] != answers[1]
    assert restored > 0 and policy_mattered > 0


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
    aa = problem.atoms.contexts[0][0]
    assert decode_solution(frozenset({a, aa}), problem.atoms) == {P("a/1")}
    assert decode_solution(frozenset({aa}), problem.atoms) == frozenset()


# -- explanations ------------------------------------------------------------------

TIMEOUT = Budgets().sat_timeout


def _blocked(u, p):
    """The encoding whose target-mode solve for p raised Unsolvable."""
    with pytest.raises(Unsolvable) as raised:
        solve_migration(MigrationRequest(mode="target", target=p), u)
    return raised.value.problem


def test_explanation_cites_empty_disjunction():
    u = tiny_universe(["a/1", "a/2"], dep={"a/2": [[]]},
                      testing=["a/1"], unstable=["a/2"])
    explanation = explain_non_migration(P("a/2"), _blocked(u, P("a/2")),
                                        TIMEOUT)
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
    explanation = explain_non_migration(P("p/2"), _blocked(u, P("p/2")),
                                        TIMEOUT)
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
    problem = _blocked(u, P("p/2"))
    explanation = explain_non_migration(P("p/2"), problem, TIMEOUT)
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
                problem = build_encoding(u, idx, encoding)
                problem.hard.append(target_clause(p, u, problem.atoms)[0])
                if satcore_mod.solve_sat(
                        problem.hard, num_vars=problem.num_vars).status \
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
    problem = _blocked(u, P("a/2"))
    with pytest.raises(SolveTimedOut, match="core minimization"):
        explain_non_migration(P("a/2"), problem, TIMEOUT)


def test_provenance_golden_text():
    # a/1 has id 0 and is the one tracked context of p5-pruned; y/1 stays
    # untracked, so its disjunction (written e/1 | d/1) is a
    # repository-level d clause whose options come in package order
    u = tiny_universe(
        ["a/1", "a/2", "b/1", "c/1", "d/1", "e/1", "y/1"],
        dep={"a/1": [["b/1"], ["c/1"]], "y/1": [["e/1", "d/1"]]},
        conflicts=[("b/1", "c/1")],
        testing=["a/1", "b/1", "c/1", "d/1", "e/1", "y/1"],
        unstable=["a/2", "b/1", "c/1", "d/1", "e/1", "y/1"])
    req = MigrationRequest(mode="min-nontrivial", policy=PolicyRules(
        groups=[[(1, P("e/1")), (-1, P("d/1"))]]))
    problem = build_encoding(u, None, req.encoding, req.policy)
    engine.attach_objective(req, u, problem)
    assert [engine.describe_clause(info, problem.atoms.packages)
            for info in problem.info] == [
        "only one version of 'a' may be present: a/1 vs a/2",
        "a/1 can only join the installation for a/1 if it is in the repository",
        "b/1 can only join the installation for a/1 if it is in the repository",
        "c/1 can only join the installation for a/1 if it is in the repository",
        "a/1 needs an installation containing itself",
        "a/1 requires one of [b/1] in the installation for a/1",
        "a/1 requires one of [c/1] in the installation for a/1",
        "y/1 requires one of [d/1, e/1] in the repository",
        "b/1 conflicts with c/1 (installation for a/1)",
        "policy group: +e/1 -d/1",
        "policy group: +e/1 -d/1",
        "at least one candidate package must change",
    ]


def _fields(info):
    for field in info:
        yield from field if isinstance(field, tuple) else (field,)


def test_no_provenance_field_is_a_package():
    rng = random.Random(61)
    checked = 0
    for _ in range(4):
        u = clustered_universe(rng, rng.randint(60, 120), conflicts=10)
        idx = ClosureIndex(u)
        pkgs = idx.packages
        policy = PolicyRules(groups=[[(1, pkgs[0]), (-1, pkgs[1])]],
                             extra_clauses=[[(1, pkgs[2])]])
        target = min(u.unstable - u.testing)
        infos = []
        for name in ("p3", "p4", "p5-strict", "p5-pruned"):
            problem = build_encoding(u, idx, name, policy)
            infos += problem.info
            infos.append(target_clause(target, u, problem.atoms)[1])
        testing = idx.id_set(u.testing)
        for i in range(len(pkgs)):
            if i in testing:
                infos += repo.installation_query(
                    i, testing.intersection(idx.closure(i)), idx)[1]
        for info in infos:
            assert not any(isinstance(f, Package) for f in _fields(info)), info
            checked += 1
    assert checked > 1000


def test_explaining_migratable_package_raises():
    u = _upgrade_universe()
    req = MigrationRequest(mode="target", target=P("a/2"))
    problem = build_encoding(u, None, req.encoding)
    engine.attach_objective(req, u, problem)
    with pytest.raises(ActuallySolvable):
        explain_non_migration(P("a/2"), problem, TIMEOUT)


# -- explanations from the target's closure -------------------------------------

def _target_instance(u, p, encoding):
    """p's target-mode hard clauses under the encoding, and whether they
    are unsatisfiable."""
    problem = build_encoding(u, None, encoding)
    problem.add(*target_clause(p, u, problem.atoms))
    status = satcore_mod.solve_sat(problem.hard,
                                   num_vars=problem.num_vars).status
    return problem, status is satcore_mod.SolveStatus.UNSAT


def _named_clauses(problem):
    """Each hard clause with its literals named by packages, as (sign,
    package) or (sign, context, member), and its provenance's text."""
    atoms = problem.atoms
    pkgs, n = atoms.packages, atoms.num_package_atoms

    def name(lit):
        var = abs(lit)
        named = (pkgs[var - 1],) if var <= n else tuple(
            pkgs[i] for i in atoms.inst_pairs[var - n - 1])
        return (lit > 0, *named)

    return [(tuple(map(name, clause)), engine.describe_clause(info, pkgs))
            for clause, info in zip(problem.hard, problem.info)]


def _check_closure_slice(u, p, encoding):
    """Check _explain_in_closure against the full target-mode instance:
    the slice is UNSAT exactly when the full one is and, except under p4,
    whose easy packages read conflicts that leave the closure, it is the
    full instance's clauses over closure(p), in order, and its core's
    facts are the full instance's. True when p is blocked."""
    full, blocked = _target_instance(u, p, encoding)
    req = MigrationRequest(mode="target", target=p, encoding=encoding)
    explanation = engine._explain_in_closure(req, u)
    assert (explanation is not None) == blocked, (p, encoding)
    if encoding != "p4":
        inside = oracle.reachable(p, u)
        sliced, _ = _target_instance(repo.closure_universe(u, p), p, encoding)
        assert _named_clauses(sliced) == [
            (clause, fact) for clause, fact in _named_clauses(full)
            if all(set(literal[1:]) <= inside for literal in clause)]
        if blocked:
            assert explanation.facts == \
                explain_non_migration(p, full, TIMEOUT).facts, (p, encoding)
    return blocked


def test_closure_slice_decides_like_the_full_instance_mid_scale():
    rng = random.Random(101)
    outcomes = {True: 0, False: 0}
    for _ in range(5):
        size = rng.randint(50, 100)
        u = clustered_universe(rng, size,
                               conflicts=rng.randint(size // 8, size // 3),
                               empty_dep_prob=0.05)
        for p in sorted(u.unstable - u.testing):
            for encoding in ("p3", "p4", "p5-strict", "p5-pruned"):
                outcomes[_check_closure_slice(u, p, encoding)] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_closure_slice_decides_like_the_exhaustive_oracle():
    rng = random.Random(103)
    outcomes = {True: 0, False: 0}
    for _ in range(30):
        u = random_universe(rng, size=rng.randint(2, 9), dep_density=0.6,
                            conflict_density=0.6)
        admissible = admissible_sets(u)
        encodings = ["p2-oracle", "p3", "p4", "p5-strict", "p5-pruned"]
        if not u.conflict_pairs:
            encodings.append("p1")
        for p in sorted(u.unstable - u.testing):
            migrates = any(p in t_prime for t_prime in admissible)
            for encoding in encodings:
                assert _check_closure_slice(u, p, encoding) != migrates
                req = MigrationRequest(mode="target", target=p,
                                       encoding=encoding)
                answer = engine.explain_target(req, u)
                assert isinstance(answer, engine.MigrationResult) == migrates
                outcomes[migrates] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_explain_target_under_a_policy_explains_the_full_instance():
    # a/2 alone migrates, but the policy ties it to b/2, which cannot
    # migrate and lies outside a/2's closure
    u = tiny_universe(["a/1", "a/2", "b/1", "b/2"], dep={"b/2": [[]]},
                      testing=["a/1", "b/1"], unstable=["a/2", "b/2"])
    policy = PolicyRules(groups=[[(1, P("a/2")), (1, P("b/2"))]])
    free = MigrationRequest(mode="target", target=P("a/2"))
    assert engine.explain_target(free, u).migrated_in == (P("a/2"),)
    tied = MigrationRequest(mode="target", target=P("a/2"), policy=policy)
    assert engine.explain_target(tied, u).facts == (
        "b/2 requires one of [nothing] in the repository",
        "policy group: +a/2 +b/2",
        "the migration of a/2 was requested")


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
    result.verified = False
    with pytest.raises(RefuseUnverified):
        render_hints(result)


def test_structured_report_round_trip():
    u = _upgrade_universe()
    result = solve_migration(MigrationRequest(mode="max"), u)
    document = structured_report(result)
    parsed = json.loads(dump_structured(document))
    assert isinstance(parsed, dict)
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


# An external MaxSAT solver for tiny WCNF instances: it enumerates every
# assignment, keeps the first of most soft weight that meets every hard
# clause, and prints it with its cost and an optimality claim.
_ENUMERATING_SOLVER = """\
import itertools, sys
hard, soft = [], []
for line in open(sys.argv[1]):
    tokens = line.split()
    if not tokens or tokens[0] == "c":
        continue
    if tokens[0] == "p":
        num_vars, top = int(tokens[2]), int(tokens[4])
        continue
    weight, clause = int(tokens[0]), [int(t) for t in tokens[1:-1]]
    (hard if weight == top else soft).append(clause)
best = None
for values in itertools.product((False, True), repeat=num_vars):
    def true(lit):
        return values[abs(lit) - 1] == (lit > 0)
    if all(any(true(l) for l in c) for c in hard):
        cost = sum(1 for c in soft if not any(true(l) for l in c))
        if best is None or cost < best[0]:
            best = (cost, values)
if best is None:
    print("s UNSATISFIABLE")
else:
    print(f"o {best[0]}")
    print("s OPTIMUM FOUND")
    print("v " + " ".join(str(v if x else -v)
                          for v, x in enumerate(best[1], start=1)) + " 0")
"""


def test_alternative_optima_with_an_external_solver(tmp_path):
    u = tiny_universe(["a/1", "a/2", "a/3"], testing=["a/1"],
                      unstable=["a/2", "a/3"])
    cmd = _fake_solver(tmp_path, _ENUMERATING_SOLVER)
    results = alternative_optima(
        MigrationRequest(mode="max", solver_command=cmd), u, 5)
    # a/3 or a/2 replaces a/1 (the enumeration meets a/3 first); blocking
    # both leaves optimum 1
    assert [r.t_prime for r in results] == [{P("a/3")}, {P("a/2")}]
    for result in results:
        assert result.optimum == 2
        assert result.verified and result.externally_claimed
        assert is_admissible(result.t_prime, u)
    embedded = alternative_optima(MigrationRequest(mode="max"), u, 5)
    assert {r.t_prime for r in results} == {r.t_prime for r in embedded}
