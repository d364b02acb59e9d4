from __future__ import annotations

import itertools
import math
import random

import pytest

from satmigrate import engine, repo, satcore
from satmigrate.closure import ClosureIndex
from satmigrate.controlfile import parse_packages_stream
from satmigrate.encoder import AtomTable
from satmigrate.repo import (DuplicateIdentity, PolicyRules, build_universe,
                             is_admissible, is_installable, package_id,
                             check_testing)

from . import oracle
from .generators import (P, clustered_universe, forbid_closures, id_set,
                         pkg_atom, random_universe, tiny_universe,
                         with_dead_ends)
from .oracle import ContextTooLarge, admissible_sets, is_healthy, unique_pairs


def _stanzas(text: str):
    return parse_packages_stream(text)


def _uninstallable(r, u):
    """The members of r, a set of Packages, that are not installable in r,
    sorted: the installability pass (``repo.installable_ids``) on r's ids."""
    members = id_set(u, r)
    found = repo.installable_ids(members, u, math.inf)
    return [u.order[i] for i in sorted(members - found)]


def _admissible(chosen, u, policy=None):
    """repo.is_admissible on a set of Packages, under the policy's rules
    resolved on u."""
    rules = () if policy is None else policy.literals(u.order)
    return is_admissible(id_set(u, chosen), u, rules)


# -- build_universe ------------------------------------------------------------

def test_expansion_filters_by_version_range():
    universe = build_universe(
        _stanzas("Package: b\nVersion: 1\n\n"),
        _stanzas("Package: b\nVersion: 2\n\nPackage: a\nVersion: 1\n"
                 "Depends: b (>= 2)\n\n"))
    # only b/2 satisfies the predicate among all of B
    assert universe.dep[P("a/1")] == (frozenset({P("b/2")}),)


def test_self_conflict_dropped():
    universe = build_universe(
        _stanzas("Package: a\nVersion: 1\nConflicts: a\n\n"), [])
    assert universe.conflicts == frozenset()


def test_unsatisfiable_dependency_becomes_empty_disjunction():
    universe = build_universe(
        [], _stanzas("Package: a\nVersion: 1\nDepends: nosuch\n\n"))
    assert universe.dep[P("a/1")] == (frozenset(),)


def test_bare_name_matches_providers_versioned_does_not():
    text = ("Package: real\nVersion: 1\n\n"
            "Package: prov\nVersion: 1\nProvides: real\n\n"
            "Package: bare\nVersion: 1\nDepends: real\n\n"
            "Package: versioned\nVersion: 1\nDepends: real (>= 1)\n\n")
    universe = build_universe(_stanzas(text), [])
    assert universe.dep[P("bare/1")] == (frozenset({P("real/1"), P("prov/1")}),)
    assert universe.dep[P("versioned/1")] == (frozenset({P("real/1")}),)


def test_conflict_through_provided_name_keeps_other_endpoint():
    # the provider conflicts with the name it provides: the pair with the
    # real package stays, the reflexive pair from provider expansion is gone
    text = ("Package: sysv\nVersion: 1\n\n"
            "Package: filerc\nVersion: 1\nProvides: sysv\nConflicts: sysv\n\n")
    universe = build_universe(_stanzas(text), [])
    assert universe.conflicts == frozenset({
        (P("filerc/1"), P("sysv/1")), (P("sysv/1"), P("filerc/1"))})


def test_declared_same_name_conflict_is_kept():
    text = ("Package: a\nVersion: 1\n\n"
            "Package: a\nVersion: 2\nConflicts: a (<< 2)\n\n")
    universe = build_universe(_stanzas(text), [])
    assert (P("a/2"), P("a/1")) in universe.conflicts


def test_duplicate_identity_with_equal_metadata_merges():
    testing = _stanzas("Package: a\nVersion: 1\nDepends: b\n\n"
                       "Package: b\nVersion: 1\n\n")
    unstable = _stanzas("Package: a\nVersion: 1\nDepends: b\n\n")
    universe = build_universe(testing, unstable)
    assert P("a/1") in universe.testing and P("a/1") in universe.unstable


def test_duplicate_identity_with_different_metadata_rejected():
    with pytest.raises(DuplicateIdentity):
        build_universe(_stanzas("Package: a\nVersion: 1\nDepends: b\n\n"
                                "Package: b\nVersion: 1\n\n"),
                       _stanzas("Package: a\nVersion: 1\n\n"))


# -- unique_pairs ---------------------------------------------------------------

def test_unique_pairs_two_versions():
    u = tiny_universe(["a/1", "a/2", "b/1"])
    assert unique_pairs(u) == frozenset({(P("a/1"), P("a/2")),
                                         (P("a/2"), P("a/1"))})


def test_unique_pairs_single_package():
    assert unique_pairs(tiny_universe(["a/1"])) == frozenset()


def test_unique_pairs_three_versions():
    u = tiny_universe(["a/1", "a/2", "a/3"])
    versions = [P("a/1"), P("a/2"), P("a/3")]
    expected = {(x, y) for x in versions for y in versions if x != y}
    assert unique_pairs(u) == frozenset(expected)  # all 6 ordered pairs


# -- installations ---------------------------------------------------------------

def test_healthy_vacuous():
    u = tiny_universe(["p/1"])
    assert is_healthy({P("p/1")}, u)


def test_healthy_rejects_direct_conflict():
    u = tiny_universe(["p/1", "q/1"], conflicts=[("p/1", "q/1")])
    assert not is_healthy({P("p/1"), P("q/1")}, u)


def test_healthy_rejects_unmet_dependency():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    assert not is_healthy({P("p/1")}, u)
    assert is_healthy({P("p/1"), P("q/1")}, u)


# -- installability ---------------------------------------------------------------

def test_empty_disjunction_is_uninstallable():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    assert not oracle.is_installable(P("p/1"), u.packages, u)
    assert not is_installable(P("p/1"), u.packages, u)


def test_conflicting_alternatives_block_installation():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"], ["r/1"]]},
                      conflicts=[("q/1", "r/1")])
    # oracle: all 2^3 subsets of {p,q,r} enumerated below by hand
    healthy_with_p = [s for k in range(4)
                      for s in itertools.combinations(u.packages, k)
                      if P("p/1") in s and is_healthy(s, u)]
    assert healthy_with_p == []
    assert not oracle.is_installable(P("p/1"), u.packages, u)
    assert not is_installable(P("p/1"), u.packages, u)


def test_isolated_package_is_installable():
    u = tiny_universe(["p/1"])
    assert oracle.is_installable(P("p/1"), u.packages, u)
    assert is_installable(P("p/1"), u.packages, u)


def test_oracle_refuses_large_contexts():
    pkgs = [f"p{i}/1" for i in range(6)]
    dep = {f"p{i}/1": [[f"p{i+1}/1"]] for i in range(5)}
    u = tiny_universe(pkgs, dep=dep)
    with pytest.raises(ContextTooLarge):
        oracle.is_installable(P("p0/1"), u.packages, u, bound=3)


def test_reachable_is_reflexive_transitive():
    u = tiny_universe(["a/1", "b/1", "c/1"],
                      dep={"a/1": [["b/1"]], "b/1": [["c/1"]]})
    assert oracle.reachable(P("a/1"), u) == {P("a/1"), P("b/1"), P("c/1")}
    assert oracle.reachable(P("c/1"), u) == {P("c/1")}


def test_closure_universe_is_the_universe_of_the_closure():
    # the same tables, in the same order, as a universe built from the
    # closure's packages and their relations alone
    rng = random.Random(29)
    for _ in range(40):
        u = random_universe(rng, size=rng.randint(1, 12), dep_density=0.6,
                            conflict_density=0.6)
        for p in sorted(u.packages):
            inside = oracle.reachable(p, u)
            assert repo.closure_universe(u, p) == repo.make_universe(
                inside, {q: u.dep[q] for q in inside},
                [(a, b) for a, b in u.conflicts if a in inside and b in inside],
                u.testing & inside, u.unstable & inside), (p, u)
    with pytest.raises(ValueError, match="unknown package nosuch/1"):
        repo.closure_universe(u, P("nosuch/1"))


def test_package_id_bisects_the_string_order():
    # a/10 sorts before a/9 as strings and after it as dpkg versions; the
    # order, and so the lookup, follows the strings
    u = tiny_universe(["a/1", "a/9", "a/10", "a/3", "b/2", "c/1"])
    order = u.order
    assert [str(p) for p in order] == ["a/1", "a/10", "a/3", "a/9", "b/2", "c/1"]
    assert [package_id(order, p) for p in order] == list(range(len(order)))
    assert package_id(order, P("a/1")) == 0
    assert package_id(order, P("c/1")) == len(order) - 1
    assert package_id(order, P("a/10")) == 1 and package_id(order, P("a/9")) == 3
    for unknown in ("0/1", "bb/2", "d/1",  # unknown names, first to last
                    "a/2",  # between a/10 and a/3, and between a/1 and a/3
                    "a/0", "c/2"):
        assert package_id(order, P(unknown)) is None, unknown
    assert package_id((), P("a/1")) is None
    # a Package is its plain (name, version) tuple: equal, ordered and
    # hashed as it, so a plain sorted() gives the order package_id bisects
    for p, q in zip(order, order[1:]):
        assert p == (p.name, p.version) and hash(p) == hash((p.name, p.version))
        assert p < q and (p.name, p.version) < q and p < (q.name, q.version)
    shuffled = list(order)
    random.Random(5).shuffle(shuffled)
    assert tuple(sorted(shuffled)) == order
    assert [package_id(sorted(shuffled), p) for p in shuffled] \
        == [order.index(p) for p in shuffled]


def test_an_unknown_package_has_no_atom_and_no_id():
    u = tiny_universe(["a/1", "b/1"])
    atoms = AtomTable(ClosureIndex(u))
    assert pkg_atom(atoms, P("b/1")) == 2 and id_set(u, [P("b/1")]) == {1}
    assert package_id(atoms.packages, P("a/2")) is None
    with pytest.raises(ValueError,
                       match="^repository references unknown package a/2$"):
        is_installable(P("a/1"), [P("a/1"), P("a/2")], u)
    with pytest.raises(ValueError, match="^need p ∈ r ⊆ packages$"):
        is_installable(P("b/1"), [P("a/1")], u)


def test_oracle_and_sat_paths_agree_on_random_universes():
    rng = random.Random(13)
    for round_no in range(40):
        u = random_universe(rng, size=rng.randint(1, 12), dep_density=0.6,
                            conflict_density=0.6)
        contexts = [u.packages]
        if round_no % 2:  # also check restricted repositories
            contexts.append(frozenset(p for p in u.packages
                                      if rng.random() < 0.6))
        for r in contexts:
            for p in sorted(r):
                reference = oracle.is_installable(p, r, u)
                assert reference == is_installable(p, r, u), (p, r, u)
                assert reference == oracle.sat_installable(p, r, u), (p, r, u)


# -- trimmedness / admissibility -------------------------------------------------

def test_empty_repository_is_trimmed():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    assert not _uninstallable([], u)


def test_broken_package_breaks_trimmedness():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    assert _uninstallable([P("p/1")], u)


def test_dependency_chain_is_trimmed():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    assert not _uninstallable([P("p/1"), P("q/1")], u)


def test_trivial_migration_is_admissible():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    assert is_admissible(u.testing_ids, u).ok


def test_is_admissible_refuses_ids_outside_the_universe():
    # a negative id must not wrap around to the last package
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    for outside in (-1, len(u.order)):
        for chosen in ({outside}, {0, 1, outside}):
            with pytest.raises(ValueError):
                is_admissible(chosen, u)


def test_duplicate_names_violate_uniqueness():
    u = tiny_universe(["a/1", "a/2"])
    verdict = _admissible({P("a/1"), P("a/2")}, u)
    assert not verdict.ok
    assert verdict.kind == "uniqueness"
    assert set(verdict.subjects) == id_set(u, {P("a/1"), P("a/2")})


def test_uninstallable_member_violates_trimmedness():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    verdict = _admissible({P("p/1")}, u)
    assert not verdict.ok
    assert verdict.kind == "trimmedness"
    assert verdict.subjects == (package_id(u.order, P("p/1")),)


def test_policy_group_and_clause_checked():
    u = tiny_universe(["a/1", "b/1"])
    policy = PolicyRules(groups=[[(1, P("a/1")), (1, P("b/1"))]])
    assert _admissible({P("a/1"), P("b/1")}, u, policy).ok
    assert _admissible(set(), u, policy).ok
    assert _admissible({P("a/1")}, u, policy).kind == "policy"
    clause_policy = PolicyRules(extra_clauses=[[(1, P("a/1"))]])
    assert _admissible(set(), u, clause_policy).kind == "policy"


def test_check_testing_lists_duplicates_and_broken():
    u = tiny_universe(["a/1", "a/2", "b/1"], dep={"b/1": [[]]})
    kinds = [v.kind for v in check_testing(u)]
    assert kinds == ["uniqueness", "trimmedness"]


def test_removing_unneeded_conflict_free_package_keeps_health():
    # sanity property behind the test generators
    rng = random.Random(19)
    checked = 0
    for _ in range(40):
        u = random_universe(rng, max_size=7)
        members = [p for p in list(u.order) if rng.random() < 0.5]
        if not is_healthy(members, u):
            continue
        conflict_ends = {p for pair in u.conflicts for p in pair}
        for q in members:
            if q in conflict_ends:
                continue
            rest = [p for p in members if p != q]
            if any(q in d for p in rest for d in u.dep.get(p, ())):
                continue
            assert is_healthy(rest, u)
            checked += 1
    assert checked > 10


# -- exhaustive enumeration oracle ----------------------------------------------

def test_admissible_sets_match_direct_checks():
    rng = random.Random(23)
    for _ in range(25):
        u = random_universe(rng, max_size=6, dep_density=0.6,
                            conflict_density=0.8)
        enumerated = set(admissible_sets(u))
        pkgs = list(u.order)
        direct = set()
        for k in range(len(pkgs) + 1):
            for combo in itertools.combinations(pkgs, k):
                if _admissible(combo, u).ok:
                    direct.add(frozenset(combo))
        assert enumerated == direct


def test_admissible_sets_respect_policy():
    u = tiny_universe(["a/1", "b/1"])
    policy = PolicyRules(groups=[[(1, P("a/1")), (1, P("b/1"))]])
    sets = set(admissible_sets(u, policy))
    assert sets == {frozenset(), frozenset({P("a/1"), P("b/1")})}


# -- the installability pass ------------------------------------------------------

def _per_package(r, u):
    return [p for p in sorted(r) if not oracle.sat_installable(p, r, u)]


def _recording_solve_sat(monkeypatch):
    """Wrap satcore.solve_sat; returns the list of (num_vars, status) of
    every call."""
    calls = []
    original = satcore.solve_sat

    def recording(hard, **kwargs):
        result = original(hard, **kwargs)
        calls.append((kwargs["num_vars"], result.status))
        return result

    monkeypatch.setattr(satcore, "solve_sat", recording)
    return calls


def test_pass_equals_per_package_queries_on_random_universes():
    rng = random.Random(29)
    for _ in range(1200):
        u = random_universe(rng, max_size=12, dep_density=0.6,
                            conflict_density=0.8)
        subset = frozenset(p for p in u.packages if rng.random() < 0.6)
        for r in (u.packages, subset):
            assert _uninstallable(r, u) == _per_package(r, u), (r, u)


def test_pass_equals_per_package_queries_on_mid_scale_universes(monkeypatch):
    calls = _recording_solve_sat(monkeypatch)
    rng = random.Random(71)
    seen = {"empty": 0, "cycle": 0, "conflict": 0, "broken": 0}
    for _ in range(50):
        size = rng.randint(100, 300)
        u = clustered_universe(rng, size, conflicts=rng.randint(1, size // 10))
        idx = ClosureIndex(u)
        subset = frozenset(p for p in u.packages if rng.random() < 0.8)
        for r in (u.packages, subset):
            found = _uninstallable(r, u)
            assert found == _per_package(r, u)
            seen["broken"] += len(found)
        seen["empty"] += sum(not d for ds in u.dep.values() for d in ds)
        seen["cycle"] += sum(
            any(i in idx.closure(q) for q in idx.closure(i) if q != i)
            for i in range(size))
        seen["conflict"] += len(u.conflict_pairs)
    assert min(seen.values()) > 0, seen
    statuses = {status for _, status in calls}
    assert {satcore.SolveStatus.SAT, satcore.SolveStatus.UNSAT} <= statuses


def _reference_verdict(chosen, u, policy):
    """Uniqueness, then per-package installability, then the policy's first
    broken rule (``oracle.broken_rules``): the kind, the detail and the
    subjects, as Packages."""
    seen = {}
    for p in sorted(chosen):
        if p.name in seen:
            return ("uniqueness",
                    f"name {p.name} occurs twice: {seen[p.name]} and {p}",
                    (seen[p.name], p))
        seen[p.name] = p
    broken = _per_package(chosen, u)
    if broken:
        return "trimmedness", f"{broken[0]} is not installable", tuple(broken)
    rules = oracle.broken_rules(chosen, policy)
    if rules:
        kind, rule = rules[0]
        what = {"group": "group not all-or-none",
                "clause": "clause unsatisfied"}[kind]
        return ("policy", f"{what}: {repo.policy_rule_text(rule)}",
                tuple(p for _, p in rule))
    return None


def test_is_admissible_matches_per_package_reference():
    # policies of groups and clauses of one to three literals of both signs
    rng = random.Random(31)
    kinds = set()
    for _ in range(600):
        u = random_universe(rng, max_size=10, dep_density=0.6,
                            conflict_density=0.8)
        pkgs = list(u.order)
        chosen = frozenset(p for p in pkgs if rng.random() < 0.6)
        policy = None
        if pkgs and rng.random() < 0.3:
            def rule():
                return [(rng.choice((1, -1)), rng.choice(pkgs))
                        for _ in range(rng.randint(1, 3))]

            policy = PolicyRules(
                groups=[rule() for _ in range(rng.randint(0, 2))],
                extra_clauses=[rule() for _ in range(rng.randint(0, 2))])
        verdict = _admissible(chosen, u, policy)
        expected = _reference_verdict(chosen, u, policy)
        if expected is None:
            assert verdict.ok
            continue
        kinds.add(expected[1].split(":")[0] if expected[0] == "policy"
                  else expected[0])
        assert (verdict.ok, verdict.kind, verdict.detail) == (False,
                                                              *expected[:2])
        assert tuple(u.order[i] for i in verdict.subjects) == expected[2]
    assert kinds == {"uniqueness", "trimmedness", "group not all-or-none",
                     "clause unsatisfied"}


def test_is_admissible_refuses_a_policy_naming_an_unknown_package():
    # the check reads resolved rules, and resolving refuses the unknown
    # package. a/1 alone is admissible, so the check would reach the
    # policy, and the unknown package would otherwise read as absent,
    # keeping both rules
    u = tiny_universe(["a/1"])
    for policy in (PolicyRules(groups=[[(1, P("a/1")), (-1, P("ghost/1"))]]),
                   PolicyRules(extra_clauses=[[(-1, P("ghost/1"))]])):
        with pytest.raises(repo.UnknownPackage,
                           match="^policy references unknown package ghost/1$"):
            is_admissible({0}, u, policy.literals(u.order))
    # {a/1, a/2} fails uniqueness, which is checked first; the policy's
    # unknown package is refused all the same, as a ValueError
    u = tiny_universe(["a/1", "a/2"])
    policy = PolicyRules(extra_clauses=[[(1, P("ghost/1"))]])
    with pytest.raises(ValueError,
                       match="^policy references unknown package ghost/1$"):
        is_admissible({0, 1}, u, policy.literals(u.order))


# p needs q or r, which conflict: the closure holds a conflict, and the
# greedy installation {p, q} decides p without SAT
CONFLICTED_CHOICE = dict(pkgs=["p/1", "q/1", "r/1"],
                         dep={"p/1": [["q/1", "r/1"]]},
                         conflicts=[("q/1", "r/1")])
# p needs s, then q or r; s needs t, which conflicts with q. The greedy walk
# takes s, then the lowest choice q, and finds t banned: a dead end, which
# SAT resolves with {p, r, s, t}
GREEDY_DEAD_END = dict(pkgs=["p/1", "q/1", "r/1", "s/1", "t/1"],
                       dep={"p/1": [["s/1"], ["q/1", "r/1"]],
                            "s/1": [["t/1"]]},
                       conflicts=[("q/1", "t/1")])


def test_conflicted_choice_is_decided_without_sat(monkeypatch):
    u = tiny_universe(**CONFLICTED_CHOICE)
    calls = _recording_solve_sat(monkeypatch)
    assert _uninstallable(u.packages, u) == []
    assert check_testing(u) == []
    assert calls == []


def test_greedy_dead_end_is_proved_installable_by_sat(monkeypatch):
    u = tiny_universe(**GREEDY_DEAD_END)
    p = package_id(u.order, P("p/1"))
    assert repo._greedy_installation(p, id_set(u, u.packages), u) == set()
    live = repo._live(id_set(u, u.packages), u)
    calls = _recording_solve_sat(monkeypatch)
    assert _uninstallable(u.packages, u) == []
    assert calls == [(len(repo.reach(p, live, u.deps)),
                      satcore.SolveStatus.SAT)]


def test_pass_rejects_a_greedy_set_that_misses_a_dependency(monkeypatch):
    # the forged walk returns {p} alone, which misses p's dependency
    u = tiny_universe(**CONFLICTED_CHOICE)
    monkeypatch.setattr(repo, "_greedy_installation",
                        lambda p, live, u: {p})
    with pytest.raises(satcore.SatCoreError):
        _uninstallable(u.packages, u)


def test_pass_rejects_a_model_that_misses_a_dependency(monkeypatch):
    # p is a greedy dead end, so it reaches the SAT step, where the fake
    # model installs p alone
    u = tiny_universe(**GREEDY_DEAD_END)

    def fake_solve_sat(hard, num_vars, deadline=None):
        return satcore.SolveResult(satcore.SolveStatus.SAT,
                                   true_atoms=frozenset({1}))

    monkeypatch.setattr(satcore, "solve_sat", fake_solve_sat)
    with pytest.raises(satcore.SatCoreError):
        _uninstallable(u.packages, u)


def test_pass_timeout_raises_installability_timeout(monkeypatch):
    u = tiny_universe(**GREEDY_DEAD_END)

    def timed_out(hard, num_vars, deadline=None):
        return satcore.SolveResult(satcore.SolveStatus.TIMEOUT)

    monkeypatch.setattr(satcore, "solve_sat", timed_out)
    with pytest.raises(satcore.SolveTimedOut, match="p/1"):
        check_testing(u)
    with pytest.raises(satcore.SolveTimedOut, match="p/1"):
        is_installable(P("p/1"), u.packages, u)
    # a caller that catches engine.SolveTimedOut, as bench/reference.py
    # does, also catches a verification whose installability query runs out
    assert engine.SolveTimedOut is satcore.SolveTimedOut
    with pytest.raises(engine.SolveTimedOut,
                       match="^installability query for p/1 timed out$"):
        engine.solve_migration(engine.MigrationRequest(mode="max"), u)


def test_check_testing_on_conflict_free_universe_makes_no_sat_call(monkeypatch):
    u = clustered_universe(random.Random(37), 240, conflicts=0)
    calls = _recording_solve_sat(monkeypatch)
    violations = check_testing(u)
    assert calls == []
    assert any(v.kind == "trimmedness" for v in violations)
    assert len(violations) < len(u.testing) // 2


def test_one_conflict_in_a_clustered_universe_needs_no_sat(monkeypatch):
    # no empty disjunctions: every package of the universe stays live
    u = clustered_universe(random.Random(41), 200, conflicts=1,
                           empty_dep_prob=0.0)
    idx = ClosureIndex(u)
    (a, b), = u.conflict_pairs
    assert sum(a in idx.closure(i) and b in idx.closure(i)
               for i in range(len(idx.packages))) > 1
    expected = _per_package(u.packages, u)
    calls = _recording_solve_sat(monkeypatch)
    assert _uninstallable(u.packages, u) == expected
    assert calls == []


def test_one_conflict_reaches_sat_only_where_closure_holds_both_ends(
        monkeypatch):
    # every package whose closure holds both ends of the one conflict is a
    # greedy dead end whose installation covers no other such package
    u = with_dead_ends(clustered_universe(random.Random(41), 200,
                                          conflicts=0, empty_dep_prob=0.0), 3)
    idx = ClosureIndex(u)
    (a, b), = u.conflict_pairs
    both = [i for i in range(len(idx.packages))
            if a in idx.closure(i) and b in idx.closure(i)]
    live = repo._live(id_set(u, u.packages), u)
    calls = _recording_solve_sat(monkeypatch)
    _uninstallable(u.packages, u)
    assert len(both) > 1
    assert [n for n, _ in calls] == \
        [len(repo.reach(i, live, u.deps)) for i in both]


def test_sat_step_matches_per_package_reference_mid_scale(monkeypatch):
    # planted greedy dead ends on clustered universes with conflicts of
    # their own: 5 tops per universe that SAT proves installable and 3 that
    # it proves uninstallable; r is every package, then a random subset of
    # u's packages with every planted one
    tops, blocked = 5, 3
    for seed in (43, 47, 53, 61):
        rng = random.Random(seed)
        size = rng.randint(150, 250)
        u = with_dead_ends(
            clustered_universe(rng, size, conflicts=size // 4), tops, blocked)
        planted = [p for p in list(u.order)
                   if p.name.startswith(("top", "blocked"))]
        subset = frozenset(p for p in u.packages if rng.random() < 0.7
                           or p.name in {"q", "r", "s", "t", "s2", "t2"}
                           or p in planted)
        for r in (u.packages, subset):
            expected = _per_package(r, u)
            assert [p for p in planted if p in expected] == \
                [P(f"blocked{k}/1") for k in range(blocked)]
            with monkeypatch.context() as patch:
                calls = _recording_solve_sat(patch)
                assert _uninstallable(r, u) == expected
            statuses = [status for _, status in calls]
            assert statuses.count(satcore.SolveStatus.SAT) >= tops
            assert statuses.count(satcore.SolveStatus.UNSAT) >= blocked
            sample = planted + rng.sample(sorted(r), 30)
            with monkeypatch.context() as patch:
                calls = _recording_solve_sat(patch)
                for p in sample:
                    assert is_installable(p, r, u) == \
                        (p not in expected), p
            assert len(calls) >= len(planted)


def test_pass_makes_fewer_sat_calls_than_conflicted_closures(monkeypatch):
    # one query per live package with a conflicted closure would be as many
    # calls as there are such packages
    conflicted = queries = 0
    for seed in range(6):
        rng = random.Random(seed)
        size = rng.randint(150, 300)
        u = clustered_universe(rng, size, conflicts=size // 3)
        expected = _per_package(u.packages, u)
        idx = ClosureIndex(u)
        live = repo._live(id_set(u, u.packages), u)
        conflicted += sum(
            repo._has_conflict(live.intersection(idx.closure(i)), u)
            for i in live)
        with monkeypatch.context() as patch:
            calls = _recording_solve_sat(patch)
            assert _uninstallable(u.packages, u) == expected
        queries += len(calls)
    assert conflicted > 0
    assert queries < conflicted


def _reach_by_levels(p, within, deps):
    """Reference for repo.reach: grow {p} by every member of within that
    is a target of a member, level by level, until nothing is added."""
    reached = {p}
    while True:
        grown = reached | {q for i in reached for targets in deps[i]
                           for q in targets if q in within}
        if grown == reached:
            return reached
        reached = grown


def test_reach_walks_only_through_its_repository():
    rng = random.Random(59)
    for _ in range(200):
        u = random_universe(rng, max_size=12, dep_density=0.7)
        idx = ClosureIndex(u)
        n = len(idx.packages)
        within = {i for i in range(n) if rng.random() < 0.6}
        for p in range(n):
            assert repo.reach(p, range(n), idx.deps) == set(idx.closure(p))
            assert repo.reach(p, within, idx.deps) == \
                _reach_by_levels(p, within, idx.deps)


# p needs q and needs r, and q conflicts with r: p has no installation,
# while q and r each have one
SPLIT_NEEDS = dict(pkgs=["p/1", "q/1", "r/1"],
                   dep={"p/1": [["q/1"], ["r/1"]]},
                   conflicts=[("q/1", "r/1")])


def test_pass_does_not_believe_forged_closure_ends():
    # closure_ends forged to claim that no closure holds a conflict end;
    # the pass takes the universe alone, so the forged index cannot reach it
    u = tiny_universe(**SPLIT_NEEDS)
    idx = ClosureIndex(u)
    idx.closure_ends = [frozenset()] * len(idx.packages)
    p, q, r = (package_id(u.order, P(s)) for s in SPLIT_NEEDS["pkgs"])
    assert repo.installable_ids({p, q, r}, u, math.inf) == {q, r}
    verdict = is_admissible({p, q, r}, u)
    assert (verdict.kind, verdict.subjects) == ("trimmedness", (p,))


def test_pass_reads_no_closure(monkeypatch):
    forbid_closures(monkeypatch)
    rng = random.Random(67)
    planted = with_dead_ends(clustered_universe(rng, 150, conflicts=30),
                             tops=3, blocked=2)
    # slices with their own ids: the blocked dead ends' closure, and the
    # largest closure of a clustered package
    largest = max(planted.order,
                  key=lambda p: len(oracle.reachable(p, planted)))
    slices = [repo.closure_universe(planted, p)
              for p in (P("blocked0/1"), largest)]
    for u in (tiny_universe(**SPLIT_NEEDS), planted, *slices):
        idx = ClosureIndex(u)
        with pytest.raises(AssertionError):
            idx.closure(0)
        names: dict = {}
        unique = frozenset(names.setdefault(p.name, p) for p in u.order)
        for r in (u.packages, unique):
            expected = _per_package(r, u)
            assert _uninstallable(r, u) == expected
            members = id_set(u, r)
            for p in sorted(r)[:40]:
                assert repo.installable_in(package_id(u.order, p),
                                           members, u, math.inf) == \
                    (p not in expected), p
            verdict = _admissible(r, u)
            reference = _reference_verdict(r, u, None)
            assert (verdict.kind, verdict.detail) == \
                ((None, "") if reference is None else reference[:2])
        trimmedness = [u.order[v.subjects[0]]
                       for v in check_testing(u)
                       if v.kind == "trimmedness"]
        assert trimmedness == _per_package(u.testing, u) != []


def test_migrate_reads_no_closure(monkeypatch):
    # p cannot migrate: the first round takes it, its check fails, and the
    # next round tracks p's context, read from the connecting lists
    u = tiny_universe(SPLIT_NEEDS["pkgs"] + ["s/1"], SPLIT_NEEDS["dep"],
                      SPLIT_NEEDS["conflicts"], testing=["q/1", "r/1"])
    forbid_closures(monkeypatch)
    result = engine.solve_migration(engine.MigrationRequest(mode="max"), u)
    assert _admissible(result.t_prime, u) and \
        result.encoding_id == "p5-pruned"
    assert result.t_prime == {P("q/1"), P("r/1"), P("s/1")}
    assert result.migrated_in == (P("s/1"),)


def test_duplicate_identity_fires_for_a_block_one_byte_off():
    cache: dict = {}
    testing = parse_packages_stream(
        "Package: a\nVersion: 1\nDepends: b (>= 2)\n\nPackage: b\nVersion: 2\n",
        cache)
    unstable = parse_packages_stream(
        "Package: a\nVersion: 1\nDepends: b (>= 3)\n\n", cache)
    with pytest.raises(DuplicateIdentity):
        build_universe(testing, unstable)


def _random_block(rng: random.Random, name: str, version: str,
                  names: list[str], virtuals: list[str]) -> str:
    """One stanza's text with random Depends, Pre-Depends, Conflicts,
    Breaks and Provides over the given names."""

    def constraint(target: str) -> str:
        if rng.random() < 0.5:
            return target
        relation = rng.choice(["<<", "<=", "=", ">=", ">>"])
        return f"{target} ({relation} {rng.choice(['1', '1.5', '2~rc1', '2', '1:0.9'])})"

    lines = [f"Package: {name}", f"Version: {version}"]
    provides = rng.sample(virtuals + names, rng.randint(0, 2))
    for field in ("Depends", "Pre-Depends"):
        if rng.random() < 0.6:
            groups = [" | ".join(constraint(rng.choice(names + virtuals))
                                 for _ in range(rng.randint(1, 3)))
                      for _ in range(rng.randint(1, 3))]
            lines.append(f"{field}: {', '.join(groups)}")
    for field in ("Conflicts", "Breaks"):
        if rng.random() < 0.4:
            # a name the stanza provides makes it conflict with itself
            targets = [constraint(rng.choice(names + virtuals + provides))
                       for _ in range(rng.randint(1, 2))]
            lines.append(f"{field}: {', '.join(targets)}")
    if provides:
        lines.append(f"Provides: {', '.join(provides)}")
    return "\n".join(lines) + "\n"


def _reference_tables(testing, unstable):
    """Universe.dep and .conflicts by brute force: every constraint is
    matched by VersionConstraint.matches against every package."""
    stanza_of = {}
    for stanza in [*testing, *unstable]:
        stanza_of.setdefault(P(f"{stanza.name}/{stanza.version}"), stanza)

    def expand(c):
        return frozenset(q for q, s in stanza_of.items()
                         if c.matches(q.name, q.version)
                         or (c.relation == "any" and c.name in s.provides))

    dep, conflicts = {}, set()
    for p, stanza in stanza_of.items():
        disjunctions = {frozenset().union(*map(expand, group))
                        for group in stanza.depends}
        dep[p] = tuple(sorted(disjunctions, key=lambda d: (len(d), sorted(d))))
        for c in stanza.conflicts:
            conflicts |= {pair for q in expand(c) if q != p
                          for pair in ((p, q), (q, p))}
    return dep, conflicts


def test_build_universe_tables_match_brute_force_expansion():
    seen = {"provider": 0, "self-conflict": 0, "shared": 0, "empty": 0}
    for seed in range(40):
        rng = random.Random(seed)
        names = [f"n{i}" for i in range(rng.randint(2, 7))]
        virtuals = [f"v{i}" for i in range(rng.randint(0, 3))]
        testing = {}
        for name in names:
            for version in rng.sample(["1", "1.5", "2~rc1"], rng.randint(1, 2)):
                testing[(name, version)] = _random_block(
                    rng, name, version, names, virtuals)
        unstable = {}
        for (name, version), block in testing.items():
            if rng.random() < 1 / 3:
                unstable[(name, version)] = block  # copied verbatim
            elif rng.random() < 0.5:
                unstable[(name, "2")] = _random_block(rng, name, "2", names,
                                                      virtuals)
        cache: dict = {}
        t_stanzas, u_stanzas = (
            parse_packages_stream("\n".join(rng.sample(blocks, len(blocks))),
                                  cache)
            for blocks in (list(testing.values()), list(unstable.values())))
        u = build_universe(t_stanzas, u_stanzas)
        dep, conflicts = _reference_tables(t_stanzas, u_stanzas)
        assert u.dep == dep and u.conflicts == conflicts
        assert u.testing == {P(f"{n}/{v}") for n, v in testing}
        assert u.unstable == {P(f"{n}/{v}") for n, v in unstable}
        idx = ClosureIndex(u)
        order = sorted(dep)
        assert list(idx.packages) == order == list(u.order)
        ids = {p: i for i, p in enumerate(order)}
        assert list(idx.deps) == [
            tuple(tuple(sorted(ids[q] for q in d)) for d in dep[p])
            for p in order]
        assert list(u.conflict_pairs) == sorted(
            (ids[a], ids[b]) for a, b in conflicts if ids[a] < ids[b])
        provided = {v for x in [*t_stanzas, *u_stanzas] for v in x.provides}
        first = {(x.name, x.version): x for x in t_stanzas}
        for x in u_stanzas:
            seen["shared"] += first.get((x.name, x.version)) is x
            seen["provider"] += any(c.relation == "any" and c.name in provided
                                    for group in x.depends for c in group)
            seen["self-conflict"] += bool(
                {c.name for c in x.conflicts} & set(x.provides))
        seen["empty"] += sum(not d for ds in dep.values() for d in ds)
    assert min(seen.values()) > 0, seen
