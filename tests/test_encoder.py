from __future__ import annotations

import hashlib
import random

import pytest

from satmigrate import engine, satcore
from satmigrate.closure import ClosureIndex
from satmigrate.encoder import (AtomTable, ConflictsPresent,
                                NoChangeCandidates, NotAMigrationCandidate,
                                UniverseTooLarge, build_encoding, check_target,
                                instance_stats, soft_max, target_clause,
                                track_contexts)
from satmigrate.repo import (PolicyRules, UnknownPackage, make_universe,
                             package_id)
from satmigrate.satcore import SolveStatus

from .generators import (P, clustered_universe, is_easy, pkg_atom,
                         projected_solutions, random_universe, tiny_universe)
from .oracle import (admissible_masks, admissible_sets, brute_force_solve,
                     normalized_encoding)


def _clauses(problem, family):
    return [clause for clause, info in zip(problem.hard, problem.info)
            if info[0] == family]


# -- uniqueness ---------------------------------------------------------------

def test_uniqueness_clause_per_duplicate_pair():
    u = tiny_universe(["a/1", "a/2"])
    problem = build_encoding(u, None, "p1")
    a1, a2 = (pkg_atom(problem.atoms, P(s)) for s in ("a/1", "a/2"))
    assert _clauses(problem, "u") == [tuple(sorted((-a1, -a2),
                                                   key=lambda l: (abs(l), l)))]


def test_no_duplicates_no_uniqueness_clauses():
    u = tiny_universe(["a/1", "b/1"])
    assert _clauses(build_encoding(u, None, "p1"), "u") == []


def test_three_versions_three_clauses():
    u = tiny_universe(["a/1", "a/2", "a/3"])
    assert len(_clauses(build_encoding(u, None, "p1"), "u")) == 3  # C(3,2)


# -- policy ---------------------------------------------------------------------

def test_policy_group_becomes_biconditional():
    u = tiny_universe(["b1/2", "b2/2"])
    rules = PolicyRules(groups=[[(1, P("b1/2")), (1, P("b2/2"))]])
    problem = build_encoding(u, None, "p1", rules)
    i1, i2 = (pkg_atom(problem.atoms, P(s)) for s in ("b1/2", "b2/2"))
    assert set(_clauses(problem, "v")) == {
        satcore.normalize_clause((-i1, i2)),
        satcore.normalize_clause((-i2, i1))}


def test_empty_policy_no_clauses():
    u = tiny_universe(["a/1"])
    assert _clauses(build_encoding(u, None, "p1", PolicyRules()), "v") == []


def test_mixed_sign_group_two_implications():
    u = tiny_universe(["b/1", "b/2"])
    rules = PolicyRules(groups=[[(1, P("b/2")), (-1, P("b/1"))]])
    problem = build_encoding(u, None, "p1", rules)
    assert len(_clauses(problem, "v")) == 2


def test_policy_unknown_package_rejected():
    u = tiny_universe(["a/1"])
    with pytest.raises(UnknownPackage):
        build_encoding(u, None, "p1",
                       PolicyRules(extra_clauses=[[(1, P("ghost/1"))]]))


# -- p1 ----------------------------------------------------------------------------

def test_p1_isolated_package():
    u = tiny_universe(["a/1"])
    problem = build_encoding(u, None, "p1")
    assert problem.num_vars == 1
    assert _clauses(problem, "d") == []


def test_p1_dependency_is_implication():
    u = tiny_universe(["a/1", "b/1"], dep={"a/1": [["b/1"]]})
    problem = build_encoding(u, None, "p1")
    a, b = pkg_atom(problem.atoms, P("a/1")), pkg_atom(problem.atoms, P("b/1"))
    assert _clauses(problem, "d") == [satcore.normalize_clause((-a, b))]


def test_p1_empty_disjunction_forces_removal():
    u = tiny_universe(["a/1"], dep={"a/1": [[]]})
    problem = build_encoding(u, None, "p1")
    assert _clauses(problem, "d") == [(-pkg_atom(problem.atoms, P("a/1")),)]


def test_p1_rejects_conflicts():
    u = tiny_universe(["a/1", "b/1"], conflicts=[("a/1", "b/1")])
    with pytest.raises(ConflictsPresent):
        build_encoding(u, None, "p1")


# -- p2 ----------------------------------------------------------------------------

def test_p2_atom_count_is_n_plus_n_squared():
    for n in range(1, 6):
        u = tiny_universe([f"x{i}/1" for i in range(n)])
        assert build_encoding(u, None, "p2").num_vars == n + n * n


def test_p2_isolated_package_clauses():
    u = tiny_universe(["a/1"])
    problem = build_encoding(u, None, "p2")
    a = pkg_atom(problem.atoms, P("a/1"))
    aa = problem.atoms.contexts[0][0]
    assert _clauses(problem, "e") == [satcore.normalize_clause((-aa, a))]
    assert _clauses(problem, "i") == [satcore.normalize_clause((-a, aa))]


def test_p2_conflict_clause_per_context():
    u = tiny_universe(["p/1", "q/1"], conflicts=[("p/1", "q/1")])
    problem = build_encoding(u, None, "p2")
    contexts = problem.atoms.contexts  # p/1 is id 0, q/1 is id 1
    expected = {satcore.normalize_clause((-contexts[c][0], -contexts[c][1]))
                for c in (0, 1)}
    assert set(_clauses(problem, "c")) == expected


def test_p2_bound_enforced():
    u = tiny_universe([f"x{i}/1" for i in range(11)])
    with pytest.raises(UniverseTooLarge):
        build_encoding(u, None, "p2")


def test_p2_d_clause_count_matches_direct_summation():
    rng = random.Random(59)
    for _ in range(10):
        u = random_universe(rng, max_size=6, dep_density=0.8)
        problem = build_encoding(u, None, "p2")
        n = len(u.packages)
        expected = n * sum(len(u.dep[p]) for p in u.packages)
        assert len(_clauses(problem, "d")) == expected


# -- p3 ----------------------------------------------------------------------------

def test_p3_inst_atoms_follow_closure_sizes():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"]], "q/1": [["r/1"]]})
    problem = build_encoding(u, None, "p3")
    assert problem.atoms.num_inst_atoms == 3 + 2 + 1


def test_p3_isolated_package_single_inst_atom():
    u = tiny_universe(["p/1"])
    problem = build_encoding(u, None, "p3")
    assert problem.atoms.num_inst_atoms == 1


def test_p3_conflicts_restricted_to_closures():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"]]},
                      conflicts=[("q/1", "r/1")])
    problem = build_encoding(u, None, "p3")
    contexts = {info[1] for info in problem.info if info[0] == "c"}
    # only contexts whose closure holds both endpoints: q and r alone do not
    # reach each other; no closure contains both except none here
    assert contexts == set()


# -- p4 ----------------------------------------------------------------------------

def test_p4_all_easy_keeps_only_seed_atoms():
    u = tiny_universe(["p/1", "q/1"], dep={"p/1": [["q/1"]]})
    problem = build_encoding(u, None, "p4")
    assert problem.atoms.num_inst_atoms == 2  # p@p and q@q
    for clause, info in zip(problem.hard, problem.info):
        if info[0] == "d":
            # all positive references are package atoms
            assert all(abs(l) <= problem.atoms.num_package_atoms
                       for l in clause if l > 0)


def test_p4_easy_dependency_referenced_as_package_atom():
    u = tiny_universe(["p/1", "e/1", "x/1"],
                      dep={"p/1": [["e/1"]]},
                      conflicts=[("p/1", "x/1")])
    idx = ClosureIndex(u)
    assert is_easy(idx, P("e/1")) and not is_easy(idx, P("p/1"))
    problem = build_encoding(u, idx, "p4")
    atoms = problem.atoms
    p = package_id(idx.packages, P("p/1"))
    expected = satcore.normalize_clause(
        (-atoms.contexts[p][p], pkg_atom(atoms, P("e/1"))))
    assert expected in _clauses(problem, "d")


# -- p5 ----------------------------------------------------------------------------

def test_p5_pruned_collapses_to_p1_without_conflicts():
    u = tiny_universe(["a/1", "b/1", "a/2"], dep={"a/1": [["b/1"]]})
    pruned = build_encoding(u, None, "p5-pruned")
    p1 = build_encoding(u, None, "p1")
    assert pruned.atoms.num_inst_atoms == 0
    assert sorted(pruned.hard) == sorted(p1.hard)


def test_p5_strict_keeps_seed_atoms():
    u = tiny_universe(["a/1", "b/1"], dep={"a/1": [["b/1"]]})
    strict = build_encoding(u, None, "p5-strict")
    assert strict.atoms.num_inst_atoms == 2


def test_p5_tracks_conflicting_alternatives_and_blocks_package():
    u = tiny_universe(["p/1", "q/1", "r/1"],
                      dep={"p/1": [["q/1"], ["r/1"]]},
                      conflicts=[("q/1", "r/1")])
    problem = build_encoding(u, None, "p5-pruned")
    atoms = problem.atoms
    assert set(atoms.contexts[0]) == {0, 1, 2}  # p/1, q/1 and r/1 in p/1's
    # brute-force enumeration: no assignment makes PkgVar p true
    blocked = brute_force_solve(
        problem.hard + [(pkg_atom(atoms, P("p/1")),)],
        num_vars=problem.num_vars)
    assert blocked.status is SolveStatus.UNSAT


# -- objectives ---------------------------------------------------------------------

def test_soft_max_units():
    u = tiny_universe(["a/1", "a/2"], testing=["a/1"], unstable=["a/2"])
    problem = build_encoding(u, None, "p1")
    soft = soft_max(u)
    assert soft == [(pkg_atom(problem.atoms, P("a/2")),),
                    (-pkg_atom(problem.atoms, P("a/1")),)]


def test_soft_max_empty_when_repositories_equal():
    u = tiny_universe(["a/1"])
    problem = build_encoding(u, None, "p1")
    assert soft_max(u) == []


def test_soft_max_set_differences():
    u = tiny_universe(["a/1", "a/2", "b/1"], testing=["a/1", "b/1"],
                      unstable=["a/2", "b/1"])
    problem = build_encoding(u, None, "p1")
    soft = soft_max(u)
    assert soft == [(pkg_atom(problem.atoms, P("a/2")),),
                    (-pkg_atom(problem.atoms, P("a/1")),)]


def _min_nontrivial(u):
    """u's p1 encoding with the min-nontrivial objective attached."""
    problem = build_encoding(u, None, "p1")
    engine.attach_objective(engine.MigrationRequest(mode="min-nontrivial"),
                            u, problem)
    return problem


def test_soft_min_with_nontriviality():
    u = tiny_universe(["a/1", "a/2"], testing=["a/1"], unstable=["a/2"])
    problem = _min_nontrivial(u)
    a1, a2 = (pkg_atom(problem.atoms, P(s)) for s in ("a/1", "a/2"))
    assert problem.hard[-1] == satcore.normalize_clause((a2, -a1))
    assert problem.info[-1] == ("nt",)
    assert problem.soft == [(-a2,), (a1,)]


def test_soft_min_outgoing_only():
    u = tiny_universe(["a/1"], testing=[], unstable=["a/1"])
    problem = _min_nontrivial(u)
    assert problem.hard[-1] == (pkg_atom(problem.atoms, P("a/1")),)
    assert problem.soft == [(-pkg_atom(problem.atoms, P("a/1")),)]


def test_soft_min_three_candidates():
    u = tiny_universe(["a/1", "b/1", "c/1"], testing=["a/1"],
                      unstable=["b/1", "c/1"])
    problem = _min_nontrivial(u)
    assert len(problem.hard[-1]) == 3
    assert len(problem.soft) == 3


def test_soft_min_requires_candidates():
    u = tiny_universe(["a/1"])
    with pytest.raises(NoChangeCandidates,
                       match="testing and unstable offer no change"):
        _min_nontrivial(u)


def test_target_clause_unit():
    u = tiny_universe(["a/1", "a/2"], testing=["a/1"], unstable=["a/2"])
    problem = build_encoding(u, None, "p1")
    clause, info = target_clause(check_target(P("a/2"), u))
    assert clause == (pkg_atom(problem.atoms, P("a/2")),)
    assert info == ("target", 1)  # a/2's id


def test_target_must_be_candidate():
    u = tiny_universe(["a/1", "a/2"], testing=["a/1"], unstable=["a/2"])
    problem = build_encoding(u, None, "p1")
    with pytest.raises(NotAMigrationCandidate):
        check_target(P("a/1"), u)
    with pytest.raises(NotAMigrationCandidate):
        check_target(P("ghost/9"), u)


# -- stats / atom table ----------------------------------------------------------------

def test_clause_hygiene_dedup_and_empty_reporting():
    u = tiny_universe(["a/1"])
    problem = build_encoding(u, None, "p1")
    a = pkg_atom(problem.atoms, P("a/1"))
    before = len(problem.hard)
    problem.add((a, a, -a), ("d", None, 0, ()))
    assert len(problem.hard) == before  # tautology dropped
    problem.add((a, a), ("d", None, 0, ()))
    assert problem.hard[-1] == (a,)  # duplicate literal removed
    problem.add((), ("d", None, 0, ()))
    assert problem.hard[-1] == ()


def test_stats_zero_for_empty_universe():
    u = make_universe([], {}, [], [], [])
    stats = instance_stats(build_encoding(u, None, "p1"))
    assert (stats.atoms_total, stats.hard_clauses, stats.soft_clauses) == (0, 0, 0)


def test_stats_counts_by_family():
    u = tiny_universe(["a/1", "a/2", "b/1"], dep={"a/1": [["b/1"]]},
                      conflicts=[("a/2", "b/1")])
    problem = build_encoding(u, None, "p2")
    stats = instance_stats(problem)
    assert stats.package_atoms == 3
    assert stats.inst_atoms == 9
    by_family = stats.by_family
    assert by_family["u"] == 1
    assert by_family["e"] == 9
    assert by_family["i"] == 3
    assert by_family["c"] == 3  # one conflict pair, three contexts


def test_atom_numbering_packages_first_then_context_member():
    u = tiny_universe(["b/1", "a/1"], dep={"a/1": [["b/1"]]})
    problem = build_encoding(u, None, "p3")
    assert problem.atoms.render_map().splitlines() == [
        "1 pkg a/1", "2 pkg b/1", "3 inst a/1 @ a/1", "4 inst b/1 @ a/1",
        "5 inst b/1 @ b/1"]


def test_atom_table_orders_inst_by_context_then_member():
    # (context id, member id) over the index's sorted packages: a/1 is 0,
    # b/1 is 1
    idx = ClosureIndex(tiny_universe(["b/1", "a/1"]))
    table = AtomTable(idx, [(1, 0), (0, 0), (0, 1)])
    assert pkg_atom(table, P("b/1")) == 2
    assert table.contexts == {0: {0: 3, 1: 4}, 1: {0: 5}}
    assert table.render_map().splitlines() == [
        "1 pkg a/1", "2 pkg b/1", "3 inst a/1 @ a/1", "4 inst b/1 @ a/1",
        "5 inst a/1 @ b/1"]


# -- cross-encoding behaviour ------------------------------------------------------------


def _all_encodings(u, idx):
    names = ["p2", "p3", "p4", "p5-strict", "p5-pruned"]
    if not u.conflicts:
        names.append("p1")
    return [build_encoding(u, idx, name) for name in names]


def test_projection_equivalence_small_scale():
    rng = random.Random(61)
    for _ in range(25):
        u = random_universe(rng, max_size=6, dep_density=0.6,
                            conflict_density=0.7)
        idx = ClosureIndex(u)
        _, masks = admissible_masks(u)
        expected = set(masks)
        for problem in _all_encodings(u, idx):
            assert projected_solutions(problem, u) == expected, problem.encoding_id


def test_size_monotonicity_small_scale():
    rng = random.Random(67)
    for _ in range(25):
        u = random_universe(rng, max_size=7, dep_density=0.6,
                            conflict_density=0.7)
        idx = ClosureIndex(u)
        chain = [build_encoding(u, idx, name)
                 for name in ("p5-pruned", "p5-strict", "p4", "p3", "p2")]
        for smaller, larger in zip(chain, chain[1:]):
            assert smaller.num_vars <= larger.num_vars
            assert len(smaller.hard) <= len(larger.hard)


def test_trivial_migration_extends_for_every_encoding():
    rng = random.Random(71)
    found = 0
    for _ in range(40):
        u = random_universe(rng, max_size=6, conflict_density=0.5)
        from satmigrate.repo import is_admissible
        if not is_admissible(u.testing_ids, u).ok:
            continue
        found += 1
        pkgs = list(u.order)
        mask = sum(1 << i for i, p in enumerate(pkgs) if p in u.testing)
        for problem in _all_encodings(u, ClosureIndex(u)):
            assert mask in projected_solutions(problem, u)
    assert found > 10


def test_soft_max_count_equals_symmetric_difference():
    # quality of a solution is |T △ T'| whenever the solution keeps the
    # packages shared by both repositories (no soft covers those)
    rng = random.Random(79)
    checked = 0
    for _ in range(30):
        u = random_universe(rng, max_size=7, conflict_density=0.5)
        problem = build_encoding(u, None, "p2")
        soft = soft_max(u)
        shared = u.testing & u.unstable
        for t_prime in admissible_sets(u):
            if not shared <= t_prime:
                continue
            checked += 1
            true_atoms = {pkg_atom(problem.atoms, p) for p in t_prime}
            count = sum(1 for (lit,) in soft
                        if (lit > 0) == (abs(lit) in true_atoms))
            assert count == len(u.testing ^ t_prime)
    assert checked > 50


def test_identical_inputs_identical_dimacs():
    rng = random.Random(73)
    u = random_universe(rng, max_size=7, conflict_density=0.8)
    pkgs = list(u.packages)
    rng.shuffle(pkgs)
    permuted = make_universe(pkgs,
                             {p: [list(d) for d in u.dep[p]] for p in pkgs},
                             sorted(u.conflicts), u.testing, u.unstable)
    for name in ("p2", "p3", "p4", "p5-strict", "p5-pruned"):
        first = build_encoding(u, None, name)
        second = build_encoding(permuted, None, name)
        assert satcore.emit_dimacs(first.hard, num_vars=first.num_vars) == \
            satcore.emit_dimacs(second.hard, num_vars=second.num_vars)


# -- golden output ---------------------------------------------------------------------

# sha256 of the WCNF (max objective) plus the atom map of every encoding.
# The deletion-based MUS behind `explain` depends on the exact atom
# numbering and clause order, which these digests pin.
GOLDEN_UNIVERSES = {
    "conflict-free": lambda: tiny_universe(
        ["a/1", "a/2", "b/1", "c/1", "d/1"],
        dep={"a/1": [["b/1"]], "a/2": [["b/1", "c/1"], ["d/1"]],
             "b/1": [["c/1"]]},
        testing=["a/1", "b/1", "c/1"], unstable=["a/2", "b/1", "c/1", "d/1"]),
    # p: p | q with everything easy; p4 keeps -inst(p@p) v pkg(p) v pkg(q),
    # p5-strict drops the clause as a tautology
    "easy-self-dependency": lambda: tiny_universe(
        ["p/1", "q/1"], dep={"p/1": [["p/1", "q/1"]]},
        testing=["q/1"], unstable=["p/1", "q/1"]),
    "conflicts": lambda: random_universe(random.Random(5), size=9,
                                         dep_density=0.7, conflict_density=0.9),
    "conflicts-2": lambda: random_universe(random.Random(11), size=10,
                                           dep_density=0.8, conflict_density=1.5),
}
GOLDEN = {
    ("conflict-free", "p1"): "7624030b1631853deca14cd97c729924a1c77285add64cab87b683bc1204bce1",
    ("conflict-free", "p2"): "ae21d5533011948d57928e15109f755dceac97675ffabdc0bcfe789fbab7b423",
    ("conflict-free", "p3"): "5b5d9f5f2160617a6d1b3bbd68d783bfd0fc8015be76ade9d2ac6b2b5d9aed11",
    ("conflict-free", "p4"): "bbd988841fcb1968441eaefb74178b93d7963d9daa78f67308a73568430be71a",
    ("conflict-free", "p5-strict"): "bbd988841fcb1968441eaefb74178b93d7963d9daa78f67308a73568430be71a",
    ("conflict-free", "p5-pruned"): "7624030b1631853deca14cd97c729924a1c77285add64cab87b683bc1204bce1",
    ("easy-self-dependency", "p1"): "b2c134021baf2ead5f12a6b5a9620451f42f4761abf7cb1d70832a3142052edc",
    ("easy-self-dependency", "p2"): "01193e95e7930e45a30b4afc96628964f1c7bffe8e404aadb96c77d9d18c6ac8",
    ("easy-self-dependency", "p3"): "1837f4efdaafc012642fc91684a5135cfeb85d94c54b0b45474510d8b2ce16ed",
    ("easy-self-dependency", "p4"): "db989023452362f0921d45e301535f97b17f33552c31cbf38b8bfdba9967b01a",
    ("easy-self-dependency", "p5-strict"): "66a57f82f03e7bc13794c6c2fc2639163f23aed847bd9766e695486064b60c21",
    ("easy-self-dependency", "p5-pruned"): "b2c134021baf2ead5f12a6b5a9620451f42f4761abf7cb1d70832a3142052edc",
    ("conflicts", "p2"): "268b582fb8f99d645d6c66cafa3ac066c2c8061acdfb9abcd4d7efba162f6da9",
    ("conflicts", "p3"): "c5a35aa8d8c8cc3b24396d88eaa6a3884ce0a7a5b9576e8e389d1d6f037742ce",
    ("conflicts", "p4"): "c5a35aa8d8c8cc3b24396d88eaa6a3884ce0a7a5b9576e8e389d1d6f037742ce",
    ("conflicts", "p5-strict"): "ba5921da9aee8d9f8fd99bc2c9fdbb845e0980802397b90075268ba0bd6980f6",
    ("conflicts", "p5-pruned"): "645b4f799a29a19c9adf19d86a00fb63acba6ed75a96a1aac9fdb0ea6468c2cc",
    ("conflicts-2", "p2"): "a758d1f67a14917b6dbad2bd933013909e9690189d3b279159bba1e0564db5b5",
    ("conflicts-2", "p3"): "54dc45315f80b1a3d3d62328586a3651f817c7915745fe867949b2e4467092b7",
    ("conflicts-2", "p4"): "54dc45315f80b1a3d3d62328586a3651f817c7915745fe867949b2e4467092b7",
    ("conflicts-2", "p5-strict"): "54dc45315f80b1a3d3d62328586a3651f817c7915745fe867949b2e4467092b7",
    ("conflicts-2", "p5-pruned"): "0804523a7168bbe35fcfeae7d44d0e0ef690b07173679be003f1c84fa4112f2b",
}


@pytest.mark.parametrize("label,name", sorted(GOLDEN))
def test_golden_emit_digest(label, name):
    u = GOLDEN_UNIVERSES[label]()
    problem = build_encoding(u, None, name)
    soft = soft_max(u)
    payload = satcore.emit_dimacs(problem.hard, soft, num_vars=problem.num_vars,
                                  kind="wcnf")
    payload += problem.atoms.render_map().encode()
    assert hashlib.sha256(payload).hexdigest() == GOLDEN[label, name]


def test_golden_universes_without_p1_have_conflicts():
    for label, make in GOLDEN_UNIVERSES.items():
        if (label, "p1") not in GOLDEN:
            with pytest.raises(ConflictsPresent):
                build_encoding(make(), None, "p1")


# -- canonical clauses from ids ----------------------------------------------------------


def _with_self_dependencies(rng, u, share=0.05):
    """u plus, for about ``share`` of its packages, a disjunction that
    names the package itself (alone or with up to two others)."""
    pkgs = list(u.order)
    dep = {p: [list(d) for d in u.dep[p]] for p in pkgs}
    for p in pkgs:
        if rng.random() < share:
            dep[p].append([p] + rng.sample(pkgs, rng.randint(0, 2)))
    return make_universe(pkgs, dep, sorted(u.conflicts), u.testing, u.unstable)


def _assert_matches_normalized(u, idx, name):
    built = build_encoding(u, idx, name)
    reference = normalized_encoding(u, idx, name)
    assert built.hard == reference.hard, name
    assert list(built.info) == list(reference.info), name
    assert built.atoms.inst_pairs == reference.atoms.inst_pairs, name
    return built


def test_clauses_match_the_normalizing_generator_mid_scale():
    rng = random.Random(97)
    seen = {"self-dependency": 0, "empty disjunction": 0, "c": 0}
    for _ in range(20):
        u = _with_self_dependencies(
            rng, clustered_universe(rng, rng.randint(100, 300),
                                    conflicts=rng.randint(5, 40),
                                    empty_dep_prob=0.05))
        idx = ClosureIndex(u)
        for name in ("p3", "p4", "p5-strict", "p5-pruned"):
            problem = _assert_matches_normalized(u, idx, name)
            seen["c"] += problem.family_counts().get("c", 0)
        seen["self-dependency"] += sum(1 for p, ds in u.dep.items()
                                       for d in ds if p in d)
        seen["empty disjunction"] += sum(1 for ds in u.dep.values()
                                         for d in ds if not d)
    assert min(seen.values()) > 20, seen


def test_p1_and_p2_clauses_match_the_normalizing_generator():
    rng = random.Random(101)
    for _ in range(10):
        u = _with_self_dependencies(
            rng, clustered_universe(rng, rng.randint(100, 300), conflicts=0,
                                    empty_dep_prob=0.05))
        _assert_matches_normalized(u, ClosureIndex(u), "p1")
    for _ in range(30):
        u = _with_self_dependencies(
            rng, random_universe(rng, max_size=10, dep_density=0.6,
                                 conflict_density=0.7), share=0.2)
        _assert_matches_normalized(u, ClosureIndex(u), "p2")


def _by_ids(problem):
    """Each hard clause with its literals named by ids, as (sign, package)
    or (sign, context, member), paired with its provenance."""
    n, pairs = problem.atoms.num_package_atoms, problem.atoms.inst_pairs

    def name(lit):
        var = abs(lit)
        return (lit > 0, var - 1) if var <= n else (lit > 0, *pairs[var - n - 1])

    return [(tuple(sorted(map(name, clause))), info)
            for clause, info in zip(problem.hard, problem.info)]


def test_tracking_contexts_later_gives_the_full_instance():
    # a lazy build tracks no context; tracking, in two rounds, each context
    # that the full build tracks gives the full instance's clauses, with
    # their provenance, and keeps the first round's p1-style ones
    rng = random.Random(113)
    for _ in range(6):
        u = _with_self_dependencies(
            rng, clustered_universe(rng, rng.randint(60, 150),
                                    conflicts=rng.randint(3, 30),
                                    empty_dep_prob=0.05))
        idx = ClosureIndex(u)
        for name in ("p3", "p4", "p5-strict", "p5-pruned"):
            full = build_encoding(u, idx, name)
            lazy = build_encoding(u, idx, name, lazy=True)
            first = _by_ids(lazy)
            assert lazy.atoms.num_inst_atoms == 0
            assert {info[0] for _, info in first} <= {"u", "d"}
            contexts = sorted(full.atoms.contexts)
            assert track_contexts(lazy, idx, contexts[1::2])
            assert track_contexts(lazy, idx, contexts[::2])
            assert not track_contexts(lazy, idx, contexts[:1])
            clauses = _by_ids(lazy)
            assert len(clauses) == len(set(clauses))
            assert set(clauses) == set(_by_ids(full)) | set(first), name
            assert lazy.atoms.num_inst_atoms == full.atoms.num_inst_atoms
    untracked = next(c for c in range(len(idx.packages))
                     if c not in full.atoms.contexts)  # p5-pruned's
    assert not track_contexts(lazy, idx, [untracked])


# -- provenance from position ------------------------------------------------------


def test_only_clauses_added_one_by_one_keep_a_provenance_record():
    rng = random.Random(31)
    u = clustered_universe(rng, 150, conflicts=12)
    idx = ClosureIndex(u)
    pkgs = idx.packages
    policy = PolicyRules(groups=[[(1, pkgs[0]), (-1, pkgs[1])]],
                         extra_clauses=[[(1, pkgs[2]), (1, pkgs[3])]])
    target = min(u.unstable - u.testing)
    for name in ("p4", "p5"):
        plain = build_encoding(u, idx, name)
        assert plain.records == {}, name
        problem = build_encoding(u, idx, name, policy)
        problem.add(*target_clause(check_target(target, u)))
        added = list(range(len(plain.hard), len(problem.hard)))
        assert sorted(problem.records) == added, name
        assert [problem.info[i][0] for i in added] == ["v", "v", "v", "target"]
        assert sum(stop - start for _, start, stop in problem.blocks) == \
            len(plain.hard), name
        counts: dict[str, int] = {}
        for family, *_ in problem.info:
            counts[family] = counts.get(family, 0) + 1
        assert problem.family_counts() == counts, name
        assert problem.info[-1] == problem.info[len(problem.hard) - 1]
        with pytest.raises(IndexError):
            problem.info[len(problem.hard)]


def test_p4_tells_an_e_clause_from_a_d_clause_with_its_literals():
    # easy c requires itself: p4 tracks c@c and points the dependency at
    # c's package atom, so the d clause repeats the e clause's literals
    u = tiny_universe(["c/1"], dep={"c/1": [["c/1"]]})
    assert ClosureIndex(u).easy_ids == {0}
    problem = build_encoding(u, None, "p4")
    c = 0
    literals = (pkg_atom(problem.atoms, P("c/1")),
                -problem.atoms.contexts[c][c])
    i, j = [k for k, clause in enumerate(problem.hard) if clause == literals]
    assert problem.info[i] == ("e", c, c)
    assert problem.info[j] == ("d", c, c, (c,))
    texts = [engine.describe_clause(problem.info[k], problem.atoms.packages)
             for k in (i, j)]
    assert texts[0] != texts[1], texts
