from __future__ import annotations

import itertools
import random

import pytest

from satmigrate import repo, satcore
from satmigrate.closure import ClosureIndex
from satmigrate.controlfile import parse_packages_stream
from satmigrate.encoder import PolicyRules
from satmigrate.repo import (DuplicateIdentity, InstallabilityTimedOut,
                             build_universe, is_admissible, is_installable,
                             make_universe, policy_satisfied, check_testing,
                             uninstallable)

from . import oracle
from .generators import P, clustered_universe, random_universe, tiny_universe
from .oracle import ContextTooLarge, admissible_sets, is_healthy, unique_pairs


def _stanzas(text: str):
    return parse_packages_stream(text)


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
    assert not uninstallable([], u)


def test_broken_package_breaks_trimmedness():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    assert uninstallable([P("p/1")], u)


def test_dependency_chain_is_trimmed():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    assert not uninstallable([P("p/1"), P("q/1")], u)


def test_trivial_migration_is_admissible():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    assert is_admissible(u.testing, u).ok


def test_duplicate_names_violate_uniqueness():
    u = tiny_universe(["a/1", "a/2"])
    verdict = is_admissible({P("a/1"), P("a/2")}, u)
    assert not verdict.ok
    assert verdict.kind == "uniqueness"
    assert set(verdict.subjects) == {P("a/1"), P("a/2")}


def test_uninstallable_member_violates_trimmedness():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    verdict = is_admissible({P("p/1")}, u)
    assert not verdict.ok
    assert verdict.kind == "trimmedness"
    assert verdict.subjects == (P("p/1"),)


def test_policy_group_and_clause_checked():
    u = tiny_universe(["a/1", "b/1"])
    policy = PolicyRules(groups=[[(1, P("a/1")), (1, P("b/1"))]])
    assert is_admissible({P("a/1"), P("b/1")}, u, policy).ok
    assert is_admissible(set(), u, policy).ok
    assert is_admissible({P("a/1")}, u, policy).kind == "policy"
    clause_policy = PolicyRules(extra_clauses=[[(1, P("a/1"))]])
    assert is_admissible(set(), u, clause_policy).kind == "policy"


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
        members = [p for p in u.sorted_packages() if rng.random() < 0.5]
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
        pkgs = u.sorted_packages()
        direct = set()
        for k in range(len(pkgs) + 1):
            for combo in itertools.combinations(pkgs, k):
                if is_admissible(combo, u).ok:
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
        idx = ClosureIndex(u)
        subset = frozenset(p for p in u.packages if rng.random() < 0.6)
        for r in (u.packages, subset):
            assert uninstallable(r, u, idx) == _per_package(r, u), (r, u)


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
            found = uninstallable(r, u, idx)
            assert found == _per_package(r, u)
            seen["broken"] += len(found)
        seen["empty"] += sum(not d for ds in u.dep.values() for d in ds)
        seen["cycle"] += sum(
            any(i in idx.closure(q) for q in idx.closure(i) if q != i)
            for i in range(size))
        seen["conflict"] += len(idx.conflict_pairs)
    assert min(seen.values()) > 0, seen
    statuses = {status for _, status in calls}
    assert {satcore.SolveStatus.SAT, satcore.SolveStatus.UNSAT} <= statuses


def _reference_verdict(chosen, u, policy):
    """Uniqueness, then per-package installability, then the policy."""
    seen = {}
    for p in sorted(chosen):
        if p.name in seen:
            return ("uniqueness",
                    f"name {p.name} occurs twice: {seen[p.name]} and {p}")
        seen[p.name] = p
    broken = _per_package(chosen, u)
    if broken:
        return "trimmedness", f"{broken[0]} is not installable"
    if not policy_satisfied(chosen, policy):
        return "policy", None
    return None


def test_is_admissible_matches_per_package_reference():
    rng = random.Random(31)
    kinds = set()
    for _ in range(600):
        u = random_universe(rng, max_size=10, dep_density=0.6,
                            conflict_density=0.8)
        pkgs = u.sorted_packages()
        chosen = frozenset(p for p in pkgs if rng.random() < 0.6)
        policy = None
        if pkgs and rng.random() < 0.3:
            policy = PolicyRules(extra_clauses=[[(1, rng.choice(pkgs))]])
        verdict = is_admissible(chosen, u, policy)
        expected = _reference_verdict(chosen, u, policy)
        if expected is None:
            assert verdict.ok
            continue
        kinds.add(expected[0])
        assert (verdict.ok, verdict.kind) == (False, expected[0])
        if expected[1] is not None:
            assert verdict.detail == expected[1]
    assert kinds == {"uniqueness", "trimmedness", "policy"}


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
    assert uninstallable(u.packages, u) == []
    assert check_testing(u) == []
    assert calls == []


def test_greedy_dead_end_is_proved_installable_by_sat(monkeypatch):
    u = tiny_universe(**GREEDY_DEAD_END)
    idx = ClosureIndex(u)
    p = idx.ids[P("p/1")]
    assert repo._greedy_installation(p, idx.id_set(u.packages), idx) == set()
    live = repo._live(idx.id_set(u.packages), idx)
    calls = _recording_solve_sat(monkeypatch)
    assert uninstallable(u.packages, u, idx) == []
    assert calls == [(len(live.intersection(idx.closure(p))),
                      satcore.SolveStatus.SAT)]


def test_pass_rejects_a_greedy_set_that_misses_a_dependency(monkeypatch):
    # the forged walk returns {p} alone, which misses p's dependency
    u = tiny_universe(**CONFLICTED_CHOICE)
    monkeypatch.setattr(repo, "_greedy_installation",
                        lambda p, live, idx: {p})
    with pytest.raises(satcore.SatCoreError):
        uninstallable(u.packages, u)


def test_pass_rejects_a_model_that_misses_a_dependency(monkeypatch):
    # p is a greedy dead end, so it reaches the SAT step, where the fake
    # model installs p alone
    u = tiny_universe(**GREEDY_DEAD_END)

    def fake_solve_sat(hard, num_vars, timeout=None):
        return satcore.SolveResult(satcore.SolveStatus.SAT,
                                   true_atoms=frozenset({1}))

    monkeypatch.setattr(satcore, "solve_sat", fake_solve_sat)
    with pytest.raises(satcore.SatCoreError):
        uninstallable(u.packages, u)


def test_pass_timeout_raises_installability_timeout(monkeypatch):
    u = tiny_universe(**GREEDY_DEAD_END)

    def timed_out(hard, num_vars, timeout=None):
        return satcore.SolveResult(satcore.SolveStatus.TIMEOUT)

    monkeypatch.setattr(satcore, "solve_sat", timed_out)
    with pytest.raises(InstallabilityTimedOut, match="p/1"):
        check_testing(u)
    with pytest.raises(InstallabilityTimedOut, match="p/1"):
        is_installable(P("p/1"), u.packages, u)


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
    (a, b), = idx.conflict_pairs
    assert sum(a in idx.closure(i) and b in idx.closure(i)
               for i in range(len(idx.packages))) > 1
    expected = _per_package(u.packages, u)
    calls = _recording_solve_sat(monkeypatch)
    assert uninstallable(u.packages, u, idx) == expected
    assert calls == []


def _with_dead_ends(u, tops: int, blocked: int = 0):
    """u plus GREEDY_DEAD_END's q, r, s and t, with its one conflict, and
    ``tops`` packages shaped like its p; none of u's packages reaches them.
    ``blocked`` more tops need s2, which needs t2, and q or r, both of
    which conflict with t2: greedy dead ends with no installation."""
    names = ["q/1", "r/1", "s/1", "t/1"] + [f"top{k}/1" for k in range(tops)]
    dep = {"s/1": [["t/1"]],
           **{f"top{k}/1": [["s/1"], ["q/1", "r/1"]] for k in range(tops)}}
    conflicts = [("q/1", "t/1")]
    if blocked:
        names += ["s2/1", "t2/1"] + [f"blocked{k}/1" for k in range(blocked)]
        dep.update({"s2/1": [["t2/1"]],
                    **{f"blocked{k}/1": [["s2/1"], ["q/1", "r/1"]]
                       for k in range(blocked)}})
        conflicts += [("q/1", "t2/1"), ("r/1", "t2/1")]
    planted = tiny_universe(names, dep=dep, conflicts=conflicts)
    return make_universe(u.packages | planted.packages,
                         {**u.dep, **planted.dep},
                         u.conflicts | planted.conflicts,
                         u.testing | planted.testing,
                         u.unstable | planted.unstable)


def test_one_conflict_reaches_sat_only_where_closure_holds_both_ends(
        monkeypatch):
    # every package whose closure holds both ends of the one conflict is a
    # greedy dead end whose installation covers no other such package
    u = _with_dead_ends(clustered_universe(random.Random(41), 200,
                                           conflicts=0, empty_dep_prob=0.0), 3)
    idx = ClosureIndex(u)
    (a, b), = idx.conflict_pairs
    both = [i for i in range(len(idx.packages))
            if a in idx.closure(i) and b in idx.closure(i)]
    live = repo._live(idx.id_set(u.packages), idx)
    calls = _recording_solve_sat(monkeypatch)
    uninstallable(u.packages, u, idx)
    assert len(both) > 1
    assert [n for n, _ in calls] == \
        [len(live.intersection(idx.closure(i))) for i in both]


def test_sat_step_matches_per_package_reference_mid_scale(monkeypatch):
    # planted greedy dead ends on clustered universes with conflicts of
    # their own: 5 tops per universe that SAT proves installable and 3 that
    # it proves uninstallable; r is every package, then a random subset of
    # u's packages with every planted one
    tops, blocked = 5, 3
    for seed in (43, 47, 53, 61):
        rng = random.Random(seed)
        size = rng.randint(150, 250)
        u = _with_dead_ends(
            clustered_universe(rng, size, conflicts=size // 4), tops, blocked)
        idx = ClosureIndex(u)
        planted = [p for p in u.sorted_packages()
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
                assert uninstallable(r, u, idx) == expected
            statuses = [status for _, status in calls]
            assert statuses.count(satcore.SolveStatus.SAT) >= tops
            assert statuses.count(satcore.SolveStatus.UNSAT) >= blocked
            sample = planted + rng.sample(sorted(r), 30)
            with monkeypatch.context() as patch:
                calls = _recording_solve_sat(patch)
                for p in sample:
                    assert is_installable(p, r, u, idx) == \
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
        live = repo._live(idx.id_set(u.packages), idx)
        conflicted += sum(
            repo._has_conflict(live.intersection(idx.closure(i)), idx)
            for i in live)
        with monkeypatch.context() as patch:
            calls = _recording_solve_sat(patch)
            assert uninstallable(u.packages, u, idx) == expected
        queries += len(calls)
    assert conflicted > 0
    assert queries < conflicted


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
        assert list(idx.packages) == order == u.sorted_packages()
        ids = {p: i for i, p in enumerate(order)}
        assert list(idx.deps) == [
            tuple(tuple(sorted(ids[q] for q in d)) for d in dep[p])
            for p in order]
        assert list(idx.conflict_pairs) == sorted(
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
