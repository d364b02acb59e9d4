from __future__ import annotations

import random
from pathlib import Path

import pytest

from satmigrate import closure as closure_mod
from satmigrate.cli import EXIT_OK, main
from satmigrate.closure import ClosureIndex
from satmigrate.controlfile import parse_packages_stream
from satmigrate.encoder import build_encoding
from satmigrate.repo import build_universe, make_universe, package_id

from . import oracle
from .generators import (P, closure, clustered_universe, hard_closure,
                         id_set, is_easy, may_dep, random_universe,
                         relevant_conflicts, tiny_universe)

BENCH = Path(__file__).resolve().parent.parent / "bench"


# -- may depend ----------------------------------------------------------------

def test_may_depend_is_union_of_disjunctions():
    u = tiny_universe(["p/1", "a/1", "b/1", "c/1"],
                      dep={"p/1": [["a/1", "b/1"], ["c/1"]]})
    assert may_dep(ClosureIndex(u), P("p/1")) == {P("a/1"), P("b/1"), P("c/1")}


def test_may_depend_empty_without_dependencies():
    u = tiny_universe(["p/1"])
    assert may_dep(ClosureIndex(u), P("p/1")) == frozenset()


def test_empty_disjunction_contributes_nothing():
    u = tiny_universe(["p/1"], dep={"p/1": [[]]})
    assert may_dep(ClosureIndex(u), P("p/1")) == frozenset()


# -- dependency closure -----------------------------------------------------------

def test_closure_of_chain():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"]], "q/1": [["r/1"]]})
    idx = ClosureIndex(u)
    assert closure(idx, P("p/1")) == {P("p/1"), P("q/1"), P("r/1")}
    assert closure(idx, P("q/1")) == {P("q/1"), P("r/1")}


def test_closure_of_cycle_is_whole_component():
    u = tiny_universe(["p/1", "q/1"],
                      dep={"p/1": [["q/1"]], "q/1": [["p/1"]]})
    idx = ClosureIndex(u)
    assert closure(idx, P("p/1")) == closure(idx, P("q/1")) == {P("p/1"), P("q/1")}


def test_closure_of_isolated_package_is_reflexive():
    u = tiny_universe(["p/1"])
    assert closure(ClosureIndex(u), P("p/1")) == {P("p/1")}


def test_closure_is_transitive_and_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        u = random_universe(rng, max_size=8, dep_density=0.7)
        idx = ClosureIndex(u)
        for p in idx.packages:
            members = closure(idx, p)
            assert p in members
            for q in members:
                assert closure(idx, q) <= members  # transitive, hence idempotent


def _with_self_dependencies(rng: random.Random, u):
    """u with about every fifth package also requiring itself."""
    pkgs = sorted(u.packages)
    dep = {p: [*u.dep[p], *([[p]] if rng.random() < 0.2 else [])]
           for p in pkgs}
    return make_universe(pkgs, dep, u.conflicts, u.testing, u.unstable)


def test_closures_match_an_independent_reference():
    # closure against oracle.reachable; easy, hard_closure and relevant_ends
    # against the universe's conflict pairs, on Packages
    rng = random.Random(67)
    universes = [random_universe(rng, max_size=10, dep_density=0.7,
                                 conflict_density=rng.random())
                 for _ in range(200)]
    universes += [clustered_universe(rng, rng.randint(100, 300),
                                     conflicts=rng.randint(1, 40))
                  for _ in range(8)]
    seen = {"cycle": 0, "self": 0, "easy": 0, "hard": 0, "relevant": 0}
    for u in universes:
        u = _with_self_dependencies(rng, u)
        idx = ClosureIndex(u)
        reach = {p: oracle.reachable(p, u) for p in u.packages}
        ends = {a for a, _ in u.conflicts}

        def ids(packages):
            return sorted(package_id(idx.packages, q) for q in packages)

        for p, members in reach.items():
            i = package_id(idx.packages, p)
            assert sorted(idx.closure(i)) == ids(members)
            easy = not members & ends
            assert (i in idx.easy_ids) == easy
            hard = {p} if easy else {q for q in members if reach[q] & ends}
            assert sorted(idx.hard_closure(i)) == ids(hard)
            relevant = {a for a, b in u.conflicts if {a, b} <= members}
            assert sorted(idx.relevant_ends(i)) == ids(relevant)
            seen["cycle"] += any(p in reach[q] for q in members if q != p)
            seen["self"] += any(p in d for d in u.dep[p])
            seen["easy" if easy else "hard"] += 1
            seen["relevant"] += bool(relevant)
    assert min(seen.values()) > 100, seen


def test_closures_are_built_on_first_read():
    # p5, p5-strict and p1 read the conflict ends alone; the closures are
    # built by the first closure() or hard_closure() call, and match the
    # reference then
    rng = random.Random(71)
    built = 0
    for _ in range(6):
        u = clustered_universe(rng, rng.randint(100, 300),
                               conflicts=rng.randint(1, 40))
        free = make_universe(sorted(u.packages),
                             {p: [list(d) for d in u.dep[p]] for p in u.packages},
                             [], u.testing, u.unstable)
        for universe, names in ((u, ("p5", "p5-strict")), (free, ("p1",))):
            idx = ClosureIndex(universe)
            for name in names:
                build_encoding(universe, idx, name)
            assert "_closures" not in vars(idx)
            reach = {p: oracle.reachable(p, universe) for p in universe.packages}
            ends = {a for a, _ in universe.conflicts}
            hard_ids = [i for i in range(len(idx.packages))
                        if i not in idx.easy_ids]
            if hard_ids:
                idx.hard_closure(rng.choice(hard_ids))
            else:
                idx.closure(0)
            assert "_closures" in vars(idx)
            for p, members in reach.items():
                i = package_id(idx.packages, p)
                hard = ({p} if not members & ends
                        else {q for q in members if reach[q] & ends})
                assert sorted(idx.closure(i)) == \
                    sorted(id_set(universe, members))
                assert sorted(idx.hard_closure(i)) == \
                    sorted(id_set(universe, hard))
                built += len(hard) > 1
    assert built > 100


def test_index_shares_partners_and_builds_the_rest_on_first_read(monkeypatch):
    # the universe's partners and dependents walk no component; the
    # index's first read of the conflict ends walks them once, and
    # easy_ids, the closures and the connecting lists reuse that walk
    walks = []
    components = closure_mod._components

    def counted(succ):
        walks.append(len(succ))
        return components(succ)

    monkeypatch.setattr(closure_mod, "_components", counted)
    rng = random.Random(79)
    for _ in range(4):
        u = _with_self_dependencies(rng, clustered_universe(
            rng, rng.randint(100, 300), conflicts=rng.randint(1, 40)))
        idx = ClosureIndex(u)
        assert set(vars(idx)) == {"packages", "deps", "partners",
                                  "_relevant"}
        assert idx.partners is u.partners
        n = len(idx.packages)
        for i in range(n):
            assert list(idx.partners[i]) == sorted(
                {b for a, b in u.conflict_pairs if a == i}
                | {a for a, b in u.conflict_pairs if b == i})
            assert u.dependents[i] == [v for v in range(n)
                                       if any(i in d for d in idx.deps[v])]
        assert walks == []
        idx.easy_ids
        idx.closure(0)
        idx.connecting_ids(0)
        assert walks == [n]
        walks.clear()


def test_encodings_over_closures_build_them():
    rng = random.Random(73)
    u = clustered_universe(rng, 150, conflicts=10)
    for name in ("p3", "p4"):
        idx = ClosureIndex(u)
        build_encoding(u, idx, name)
        assert "_closures" in vars(idx)


# a cycle between a and b, and c/2 conflicting with b; c/2 stays out
_CYCLE_TESTING = ("Package: a\nVersion: 1\nDepends: b\n\n"
                  "Package: b\nVersion: 1\nDepends: a\n\n"
                  "Package: c\nVersion: 1\n")
_CYCLE_UNSTABLE = ("Package: a\nVersion: 2\nDepends: b\n\n"
                   "Package: b\nVersion: 1\nDepends: a\n\n"
                   "Package: c\nVersion: 2\nDepends: a\nConflicts: b\n")


@pytest.mark.parametrize("command, expected", [
    (["check"], 0), (["migrate"], 1), (["emit", "out.wcnf"], 1)],
    ids=["check", "migrate", "emit"])
def test_each_command_walks_the_graph_once(command, expected, tmp_path,
                                           monkeypatch, capsys):
    # one index per command, built without its components; they are found
    # at the first read of the conflict ends and then serve the closures
    # too. check reads no conflict end; migrate tracks c/2's context, whose
    # closure holds the conflict with b, and emit encodes the full instance
    walks = []
    components = closure_mod._components

    def counted(succ):
        walks.append(len(succ))
        return components(succ)

    monkeypatch.setattr(closure_mod, "_components", counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "testing").write_text(_CYCLE_TESTING)
    (tmp_path / "unstable").write_text(_CYCLE_UNSTABLE)
    code = main([command[0], "--testing", "testing", "--unstable", "unstable",
                 *command[1:]])
    assert code == EXIT_OK, capsys.readouterr()
    assert len(walks) == expected


# -- easy packages -----------------------------------------------------------------

def test_everything_easy_without_conflicts():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    idx = ClosureIndex(u)
    assert idx.easy == u.packages


def test_conflict_in_closure_makes_packages_hard():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"]]},
                      conflicts=[("q/1", "r/1")])
    idx = ClosureIndex(u)
    # closure(p)={p,q} meets {q,r}; q and r are endpoints themselves
    assert idx.easy == frozenset()


def test_isolated_package_stays_easy_despite_remote_conflict():
    u = tiny_universe(["p/1", "q/1", "r/1"], conflicts=[("q/1", "r/1")])
    idx = ClosureIndex(u)
    assert P("p/1") in idx.easy


# -- hard closure -----------------------------------------------------------------

def test_hard_closure_reduces_to_seed_when_all_easy():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    idx = ClosureIndex(u)
    assert hard_closure(idx, P("p/1")) == {P("p/1")}
    assert hard_closure(idx, P("q/1")) == {P("q/1")}


def test_hard_closure_excludes_easy_successors():
    # p -> q (both hard through the conflict), q -> e with e easy
    u = tiny_universe(["p/1", "q/1", "e/1", "x/1"],
                      dep={"p/1": [["q/1"]], "q/1": [["e/1"]]},
                      conflicts=[("p/1", "q/1")])
    idx = ClosureIndex(u)
    assert P("e/1") in idx.easy
    assert hard_closure(idx, P("p/1")) == {P("p/1"), P("q/1")}


def test_hard_package_without_dependencies_closes_to_itself():
    u = tiny_universe(["p/1", "q/1"], conflicts=[("p/1", "q/1")])
    idx = ClosureIndex(u)
    assert hard_closure(idx, P("p/1")) == {P("p/1")}


def _hard_walk(idx: ClosureIndex, p) -> set:
    """What a walk from p reaches through hard successors; {p} for an easy p."""
    if is_easy(idx, p):
        return {p}
    seen = {p}
    todo = [p]
    while todo:
        for q in may_dep(idx, todo.pop()):
            if q not in seen and not is_easy(idx, q):
                seen.add(q)
                todo.append(q)
    return seen


def test_hard_closure_is_the_walk_through_hard_successors():
    rng = random.Random(43)
    universes = [random_universe(rng, max_size=10, dep_density=0.7,
                                 conflict_density=rng.random())
                 for _ in range(200)]
    universes += [clustered_universe(rng, rng.randint(100, 300),
                                     conflicts=rng.randint(1, 40))
                  for _ in range(8)]
    pruned = 0
    for u in universes:
        idx = ClosureIndex(u)
        for p in idx.packages:
            hard = hard_closure(idx, p)
            assert hard == _hard_walk(idx, p)
            assert sorted(idx.hard_closure(package_id(idx.packages, p))) == \
                sorted(id_set(u, hard))
            pruned += not is_easy(idx, p) and hard != closure(idx, p)
    assert pruned > 0


# -- relevant conflicts -------------------------------------------------------------

def test_conflict_with_endpoint_outside_closure_is_irrelevant():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"]]},
                      conflicts=[("q/1", "r/1")])
    idx = ClosureIndex(u)
    assert relevant_conflicts(idx, P("p/1")) == frozenset()


def test_conflict_inside_closure_is_relevant_both_ways():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"], ["r/1"]]},
                      conflicts=[("q/1", "r/1")])
    idx = ClosureIndex(u)
    assert relevant_conflicts(idx, P("p/1")) == {
        (P("q/1"), P("r/1")), (P("r/1"), P("q/1"))}


def test_no_conflicts_nothing_relevant():
    rng = random.Random(5)
    u = random_universe(rng, max_size=6, conflict_density=0.0)
    idx = ClosureIndex(u)
    assert all(relevant_conflicts(idx, p) == frozenset() for p in idx.packages)


# -- connecting dependencies ----------------------------------------------------------

def test_connecting_is_only_the_seed_without_relevant_conflicts():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    idx = ClosureIndex(u)
    assert idx.connecting(P("p/1")) == {P("p/1")}


def test_connecting_includes_both_conflict_sides():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"], ["r/1"]]},
                      conflicts=[("q/1", "r/1")])
    idx = ClosureIndex(u)
    assert idx.connecting(P("p/1")) == {
        P("p/1"), P("q/1"), P("r/1")}


def test_connecting_tracks_paths_to_conflict_endpoints():
    # p -> q -> s, conflict (s, t), t also in p's closure
    u = tiny_universe(["p/1", "q/1", "s/1", "t/1"],
                      dep={"p/1": [["q/1"], ["t/1"]], "q/1": [["s/1"]]},
                      conflicts=[("s/1", "t/1")])
    idx = ClosureIndex(u)
    assert P("q/1") in idx.connecting(P("p/1"))


def test_connecting_matches_its_definition_mid_scale():
    # closure members whose own closure holds a relevant conflict endpoint
    rng = random.Random(31)
    for _ in range(8):
        u = clustered_universe(rng, rng.randint(100, 300),
                               conflicts=rng.randint(5, 40))
        idx = ClosureIndex(u)
        tracked = 0
        for p in idx.packages:
            ends = {a for a, b in relevant_conflicts(idx, p)}
            expected = {q for q in closure(idx, p) if closure(idx, q) & ends}
            assert idx.connecting(p) == expected | {p}
            tracked += bool(ends)
        assert tracked > 0


def test_connecting_is_the_seed_alone_exactly_without_relevant_conflicts():
    # p5-pruned tracks a context when its connecting ids are more than the
    # context itself, and relies on this meaning relevant_ends(c) is not empty;
    # every fifth package or so also requires itself
    rng = random.Random(59)
    universes = [random_universe(rng, max_size=10, dep_density=0.7,
                                 conflict_density=rng.random())
                 for _ in range(200)]
    universes += [clustered_universe(rng, rng.randint(100, 300),
                                     conflicts=rng.randint(1, 40))
                  for _ in range(8)]
    seen = {True: 0, False: 0}
    for u in universes:
        idx = ClosureIndex(_with_self_dependencies(rng, u))
        for i in range(len(idx.packages)):
            conflicting = bool(idx.relevant_ends(i))
            assert conflicting == (idx.connecting_ids(i) != [i])
            seen[conflicting] += 1
    assert min(seen.values()) > 100, seen


def _connecting_walk(idx, i):
    """i's connecting ids by a walk from i alone."""
    relevant = idx.relevant_ends(i)
    seen = {i}
    todo = [i] if relevant else []
    while todo:
        for targets in idx.deps[todo.pop()]:
            for w in targets:
                if w not in seen and not relevant.isdisjoint(idx.closure_ends[w]):
                    seen.add(w)
                    todo.append(w)
    return sorted(seen)


def test_connecting_ids_match_a_walk_from_each_package(tmp_path, monkeypatch):
    # the index reuses a successor's list where a walk would repeat it;
    # clustered universes have dependency cycles, the benchmark's
    # archive-scale archive long chains
    monkeypatch.syspath_prepend(str(BENCH))
    import gen

    rng = random.Random(61)
    universes = [clustered_universe(rng, rng.randint(100, 300),
                                    conflicts=rng.randint(5, 60))
                 for _ in range(8)]
    archive = gen.generate("archive-scale", 0, 1500, broken=4, blocked=4)
    testing, unstable = gen.write_pair(archive, tmp_path, 0)
    cache: dict = {}
    universes.append(build_universe(*(
        parse_packages_stream(Path(path).read_bytes(), cache)
        for path in (testing, unstable))))
    for u in universes:
        idx = ClosureIndex(u)
        for i in range(len(idx.packages)):
            assert idx.connecting_ids(i) == _connecting_walk(idx, i), i


# -- cross-cutting invariants ----------------------------------------------------------

def test_containment_chain_and_easy_relevance():
    rng = random.Random(17)
    for _ in range(30):
        u = random_universe(rng, max_size=8, dep_density=0.7,
                            conflict_density=0.8)
        idx = ClosureIndex(u)
        for p in idx.packages:
            connecting = idx.connecting(p)
            hard = hard_closure(idx, p)
            assert p in connecting
            assert connecting <= hard <= closure(idx, p)
            if p in idx.easy:
                assert relevant_conflicts(idx, p) == frozenset()
                assert hard == {p}


def test_results_independent_of_insertion_order():
    rng = random.Random(29)
    for _ in range(10):
        u = random_universe(rng, max_size=8, conflict_density=0.7)
        pkgs = list(u.packages)
        rng.shuffle(pkgs)
        permuted = make_universe(pkgs,
                                 {p: [list(d) for d in u.dep[p]] for p in pkgs},
                                 sorted(u.conflicts), u.testing, u.unstable)
        a, b = ClosureIndex(u), ClosureIndex(permuted)
        assert a.easy == b.easy
        for p in a.packages:
            assert closure(a, p) == closure(b, p)
            assert hard_closure(a, p) == hard_closure(b, p)
            assert a.connecting(p) == b.connecting(p)
